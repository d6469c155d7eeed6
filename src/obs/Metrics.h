//===- obs/Metrics.h - Log2 histograms, Prometheus text ---------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics half of the observability layer: log2-bucketed
/// histograms, a registry of them, and a Prometheus text-exposition
/// writer.
///
/// Histograms bucket by `bit_width(sample)` — 65 fixed buckets covering
/// the whole uint64 range with no configuration, rendered cumulatively
/// with `le="2^i - 1"` bounds as Prometheus expects.
///
/// Counters and gauges have no objects here: their values already live
/// in the runtime's stats records, so a renderer reads those at scrape
/// time and writes them through PromWriter (service::Supervisor walks
/// its stats field tables this way). Two histogram registries exist in
/// practice: the process-wide \c global() one (check-latency histograms
/// fed from the Runtime sampler) and one owned by each Supervisor (drain
/// tick duration and ring occupancy).
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_OBS_METRICS_H
#define EFFECTIVE_OBS_METRICS_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace effective {
namespace obs {

/// Log2-bucketed histogram: sample N lands in bucket bit_width(N),
/// i.e. bucket i counts samples in [2^(i-1), 2^i - 1] (bucket 0 = the
/// value 0). observe() is exact: three relaxed fetch_adds, so
/// concurrent observers lose no sample. Only sampled paths observe
/// (one type check in 1024 with metrics armed, and the single-threaded
/// drain tick), so the read-modify-writes stay off the check path.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 65;

  void observe(uint64_t Sample) {
    unsigned B = static_cast<unsigned>(std::bit_width(Sample));
    Buckets[B].fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(Sample, std::memory_order_relaxed);
    Count.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  uint64_t bucket(unsigned I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }

  void reset() {
    for (auto &B : Buckets)
      B.store(0, std::memory_order_relaxed);
    Sum.store(0, std::memory_order_relaxed);
    Count.store(0, std::memory_order_relaxed);
  }

private:
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Count{0};
};

/// Appends Prometheus text exposition to a string. A family is a run of
/// series sharing one name: its HELP/TYPE header is written once, before
/// the run's first series. Labels are a pre-rendered label body without
/// braces, e.g. `class="7"`, or empty.
class PromWriter {
public:
  explicit PromWriter(std::string &Out) : Out(Out) {}

  void counter(std::string_view Name, std::string_view Labels,
               std::string_view Help, uint64_t Value);
  void gauge(std::string_view Name, std::string_view Labels,
             std::string_view Help, int64_t Value);
  /// Cumulative buckets up to the highest non-empty one, then +Inf,
  /// _sum and _count.
  void histogram(std::string_view Name, std::string_view Labels,
                 std::string_view Help, const Histogram &H);

private:
  void header(std::string_view Name, std::string_view Help,
              const char *Type);

  std::string &Out;
  std::string Family;
};

/// Named histogram registry. Histograms are never freed while the
/// registry lives, so recorded pointers can be cached and observed
/// without re-lookup; registration and rendering take the registry
/// mutex.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// Find-or-create by (name, labels), in PromWriter's label syntax.
  Histogram &histogram(const std::string &Name, const std::string &Help,
                       const std::string &Labels = "");

  /// Append every histogram, in registration order.
  void render(std::string &Out) const;

  /// The process-wide registry (leaky singleton; see Tracer::instance).
  static MetricsRegistry &global();

private:
  struct Entry {
    std::string Name;
    std::string Labels;
    std::string Help;
    Histogram H;
  };

  mutable std::mutex Lock;
  std::vector<std::unique_ptr<Entry>> Entries;
};

/// The two check-latency histograms fed by the Runtime's 1-in-1024
/// type-check sampler, registered in the global registry on first use.
/// Units are raw TSC ticks (the sampler never multiplies on the hot
/// path); divide by the calibrated tick rate offline.
Histogram &checkFastLatency();
Histogram &checkSlowLatency();

} // namespace obs
} // namespace effective

#endif // EFFECTIVE_OBS_METRICS_H

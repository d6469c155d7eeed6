//===- obs/Metrics.h - Counters, gauges, log2 histograms --------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics half of the observability layer: a registry of named
/// counters, gauges, and log2-bucketed histograms with a Prometheus
/// text-exposition renderer.
///
/// Recording is wait-free (relaxed atomics); registration and
/// rendering take the registry mutex. Histograms bucket by
/// `bit_width(sample)` — 65 fixed buckets covering the whole uint64
/// range with no configuration, rendered cumulatively with
/// `le="2^i - 1"` bounds as Prometheus expects.
///
/// Two registries exist in practice: the process-wide \c global()
/// registry (check-latency histograms fed from the Runtime sampler)
/// and one owned by each service::Supervisor (service counters/gauges
/// mirrored from its stats each drain tick).
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_OBS_METRICS_H
#define EFFECTIVE_OBS_METRICS_H

#include "support/Compiler.h"

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace effective {
namespace obs {

/// Monotonic counter. add() for true event counts; set() when
/// mirroring an externally-maintained monotonic total (service stats).
class Counter {
public:
  void add(uint64_t N = 1) { Value.fetch_add(N, std::memory_order_relaxed); }
  void set(uint64_t N) { Value.store(N, std::memory_order_relaxed); }
  uint64_t value() const { return Value.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Value{0};
};

/// Point-in-time signed value.
class Gauge {
public:
  void set(int64_t N) { Value.store(N, std::memory_order_relaxed); }
  int64_t value() const { return Value.load(std::memory_order_relaxed); }

private:
  std::atomic<int64_t> Value{0};
};

/// A cached handle to the counter or gauge series that mirrors one
/// externally maintained value; both null when the value exports none.
struct MetricSlot {
  Counter *C = nullptr;
  Gauge *G = nullptr;

  void set(uint64_t N) const {
    if (C)
      C->set(N);
    else if (G)
      G->set(static_cast<int64_t>(N));
  }
};

/// Log2-bucketed histogram: sample N lands in bucket bit_width(N),
/// i.e. bucket i counts samples in [2^(i-1), 2^i - 1] (bucket 0 = the
/// value 0). observe() uses statBump — a relaxed non-RMW load+store
/// instead of lock-prefixed xadd, so a sampled check path pays a
/// handful of cycles, not three serialized RMWs. Unlike the check
/// counters, which are per-thread and exact, a histogram is shared:
/// concurrent observers can lose an update, which only skews the
/// statistics (the latency sampler is already 1-in-1024); nothing
/// correctness-bearing reads histograms.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 65;

  void observe(uint64_t Sample) {
    unsigned B = static_cast<unsigned>(std::bit_width(Sample));
    statBump(Buckets[B], 1);
    statBump(Sum, Sample);
    statBump(Count, 1);
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
  static EFFSAN_ALWAYS_INLINE void statBump(std::atomic<uint64_t> &C,
                                            uint64_t N) {
    C.store(C.load(std::memory_order_relaxed) + N,
            std::memory_order_relaxed);
  }

  std::atomic<uint64_t> Buckets[NumBuckets] = {};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Count{0};
};

/// Named metric registry with Prometheus text rendering. Metric
/// objects are never freed while the registry lives, so recorded
/// pointers can be cached and bumped without re-lookup.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// Find-or-create by (name, labels). Labels are a pre-rendered
  /// Prometheus label body without braces, e.g. `class="7"`, or empty.
  Counter &counter(const std::string &Name, const std::string &Help,
                   const std::string &Labels = "");
  Gauge &gauge(const std::string &Name, const std::string &Help,
               const std::string &Labels = "");
  Histogram &histogram(const std::string &Name, const std::string &Help,
                       const std::string &Labels = "");

  /// Append the whole registry in Prometheus text-exposition format.
  void render(std::string &Out) const;

  /// The process-wide registry (leaky singleton; see Tracer::instance).
  static MetricsRegistry &global();

private:
  enum class Kind { CounterKind, GaugeKind, HistogramKind };

  struct Entry {
    std::string Name;
    std::string Labels;
    std::string Help;
    Kind MetricKind;
    std::unique_ptr<Counter> C;
    std::unique_ptr<Gauge> G;
    std::unique_ptr<Histogram> H;
  };

  Entry &findOrCreate(const std::string &Name, const std::string &Help,
                      const std::string &Labels, Kind MetricKind);

  mutable std::mutex Lock;
  std::vector<std::unique_ptr<Entry>> Entries;
};

/// The two check-latency histograms fed by the Runtime's 1-in-1024
/// type-check sampler, registered in the global registry. Units are
/// raw TSC ticks (the sampler never multiplies on the hot path);
/// divide by the calibrated tick rate offline.
Histogram &checkFastLatency();
Histogram &checkSlowLatency();

} // namespace obs
} // namespace effective

#endif // EFFECTIVE_OBS_METRICS_H

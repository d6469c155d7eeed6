//===- perfbench/src/Trace.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own spans, recorded around its calls into each
/// layer's public functions. Spans live in per-thread memory buffers
/// while a Tracer is installed and are written once, at exit, as Chrome
/// trace-event JSON (loadable in Perfetto). Each span keeps its parent
/// (the span open on the same thread when it began), so a layer's self
/// time is its duration minus its children's; spans of one request or
/// one program share a group id.
///
/// With no Tracer installed a Span costs a thread-local read, one relaxed
/// load and a branch, which is what the untraced runs pay.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "Common.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
public:
  Tracer();
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// The process's tracer (installed only during traced rounds).
  static Tracer &instance();

  /// The installed tracer, or null.
  static Tracer *active() { return Active.load(std::memory_order_relaxed); }
  /// Installs \p T (null uninstalls). Spans already open finish into the
  /// tracer they began in.
  static void install(Tracer *T) {
    Active.store(T, std::memory_order_relaxed);
  }

  /// A fresh group id (one per request or program).
  uint64_t newGroup() { return NextGroup.fetch_add(1) + 1; }

  /// Writes the spans as Chrome trace JSON to \p Path, with
  /// \p OtherDataJson (a JSON object) as the top-level "otherData".
  bool write(const std::string &Path, const std::string &OtherDataJson);

private:
  friend class Span;
  struct Record {
    const char *Name; ///< A string literal: "layer.operation".
    uint64_t Group;
    uint64_t Count; ///< Calls the span covers (batched short calls).
    int64_t StartNs;
    int64_t EndNs;
    int32_t Parent; ///< Index in the same buffer, or -1.
  };
  struct Buffer {
    unsigned Tid;
    std::vector<Record> Records;
    std::vector<int32_t> Open;
  };
  Buffer &threadBuffer();
  int64_t nowNs() const;

  static std::atomic<Tracer *> Active;
  int64_t Epoch;
  std::atomic<uint64_t> NextGroup{0};
  std::mutex Lock; ///< Guards Buffers.
  std::vector<std::unique_ptr<Buffer>> Buffers;
};

/// RAII span. \p Name must be a string literal. \p Count is the number
/// of calls the span times, for calls too short to time one by one.
class Span {
public:
  explicit Span(const char *Name, uint64_t Group = 0, uint64_t Count = 1);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer *Owner;
  Tracer::Buffer *Buf = nullptr;
  int32_t Index = -1;
};

/// While alive (and \p On), spans begun on this thread are not
/// recorded: how a traced phase keeps spans for a sample of requests.
class MuteSpans {
public:
  explicit MuteSpans(bool On);
  ~MuteSpans();
  MuteSpans(const MuteSpans &) = delete;
  MuteSpans &operator=(const MuteSpans &) = delete;

private:
  bool Saved;
};

/// Wall seconds of each measured round, untraced and traced.
struct RoundTimes {
  std::vector<double> Untraced;
  std::vector<double> Traced;
};

/// Runs the measured rounds. Untraced runs spend the whole budget
/// untraced; traced runs spend half of it untraced, then install the
/// tracer for exactly \p TracedRounds more rounds (a fixed count keeps
/// the trace file's size independent of machine speed), so the tracing
/// overhead is measured on the same work in the same process.
/// \p Round takes (round index, traced?).
template <typename Fn>
RoundTimes measureRounds(const Args &A, unsigned MinRounds,
                         unsigned TracedRounds, Fn &&Round) {
  RoundTimes Times;
  auto Timed = [&](std::vector<double> &Into, bool Traced) {
    return [&Into, &Round, Traced](unsigned Index) {
      Clock::time_point Start = Clock::now();
      Round(Index, Traced);
      Into.push_back(secondsSince(Start));
    };
  };
  if (!A.Trace) {
    runRounds(A.Seconds, MinRounds, Timed(Times.Untraced, false));
    return Times;
  }
  unsigned N =
      runRounds(A.Seconds / 2, MinRounds, Timed(Times.Untraced, false));
  Tracer::install(&Tracer::instance());
  auto Traced = Timed(Times.Traced, true);
  for (unsigned I = 0; I < TracedRounds; ++I)
    Traced(N + I);
  Tracer::install(nullptr);
  return Times;
}

} // namespace perfbench

#endif // PERFBENCH_TRACE_H

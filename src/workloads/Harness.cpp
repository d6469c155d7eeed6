//===- workloads/Harness.cpp - Workload measurement harness ---------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/Harness.h"

#include "concurrent/SessionPool.h"
#include "workloads/Support.h"

#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

using namespace effective;
using namespace effective::workloads;

namespace {

using Entry = uint64_t (*)(Runtime &, unsigned);

Entry entryFor(const Workload &W, Variant Kind) {
  switch (Kind) {
  case Variant::None:
    return W.RunNone;
  case Variant::Type:
    return W.RunType;
  case Variant::Bounds:
    return W.RunBounds;
  case Variant::Full:
    return W.RunFull;
  }
  return W.RunFull;
}

/// One run of \p Run, a workload entry built as variant \p Kind.
RunStats runEntry(Variant Kind, Entry Run, unsigned Scale,
                  std::FILE *LogStream) {
  SessionOptions Options;
  // The kernels select their instrumentation at compile time (the
  // EFFSAN_WORKLOAD_ENTRIES template variants) and drive the Runtime
  // directly; the session policy is set to match so anything
  // introspecting the session sees a consistent configuration.
  Options.Policy = checkPolicyFor(Kind);
  Options.Reporter.Mode =
      LogStream ? ReportMode::Log : ReportMode::Count;
  Options.Reporter.Stream = LogStream;
  // All workloads share the global type context (types are interned
  // once, like the paper's weak-symbol meta data) but get a private
  // session — heap, counters and reporter — per run.
  Sanitizer Session(TypeContext::global(), Options);
  SanitizerScope Scope(Session);
  Runtime &RT = Session.runtime();
  MallocTally::reset();

  auto Start = std::chrono::steady_clock::now();
  uint64_t Checksum = Run(RT, Scale);
  auto End = std::chrono::steady_clock::now();

  RunStats Stats;
  Stats.Seconds = std::chrono::duration<double>(End - Start).count();
  Stats.Checks = RT.counters().snapshot();
  Stats.Issues = RT.reporter().numIssues();
  Stats.ErrorEvents = RT.reporter().numEvents();
  Stats.PeakHeapBytes = Kind == Variant::None
                            ? MallocTally::peakBytes()
                            : RT.heap().stats().PeakBlockBytesInUse;
  Stats.Checksum = Checksum;
  return Stats;
}

/// runEntry fanned out over \p Threads shards of one pool; \p W names
/// the workload in a checksum mismatch.
RunStats runEntryMT(const Workload &W, Variant Kind, Entry Run,
                    unsigned Scale, unsigned Threads, std::FILE *LogStream) {
  if (Threads <= 1)
    return runEntry(Kind, Run, Scale, LogStream);

  concurrent::PoolOptions Options;
  Options.Shards = Threads;
  Options.Policy = checkPolicyFor(Kind);
  Options.Reporter.Mode = LogStream ? ReportMode::Log : ReportMode::Count;
  Options.Reporter.Stream = LogStream;
  // Types shared globally (interned once), session state per shard.
  concurrent::SessionPool Pool(TypeContext::global(), Options);
  MallocTally::reset();

  std::vector<uint64_t> Checksums(Threads, 0);
  auto Start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> Workers;
    Workers.reserve(Threads);
    for (unsigned T = 0; T < Threads; ++T) {
      Workers.emplace_back([&, T] {
        // Each worker drives its own shard's runtime — no shared
        // allocator locks, no shared counter cache lines. The scope
        // binds this thread's CheckedPtr instrumentation to the shard.
        Runtime &RT = Pool.shard(T).runtime();
        RuntimeScope Scope(RT);
        Checksums[T] = Run(RT, Scale);
      });
    }
    for (std::thread &Worker : Workers)
      Worker.join();
  }
  size_t Drained = Pool.drain();
  (void)Drained;
  auto End = std::chrono::steady_clock::now();

  // The kernels are deterministic: a checksum divergence means a shard
  // saw cross-thread interference. Checked unconditionally — the
  // benchmarks run with NDEBUG, which is exactly where such a bug
  // would otherwise pass silently.
  for (unsigned T = 1; T < Threads; ++T) {
    if (Checksums[T] != Checksums[0]) {
      std::fprintf(stderr,
                   "FATAL: %s: shard %u checksum %llu != shard 0 "
                   "checksum %llu (cross-thread interference)\n",
                   W.Info.Name, T, (unsigned long long)Checksums[T],
                   (unsigned long long)Checksums[0]);
      std::abort();
    }
  }

  RunStats Stats;
  Stats.Seconds = std::chrono::duration<double>(End - Start).count();
  Stats.Checks = Pool.counters();
  Stats.Issues = Pool.reporter().numIssues();
  Stats.ErrorEvents = Pool.reporter().numEvents();
  Stats.PeakHeapBytes = Kind == Variant::None
                            ? MallocTally::peakBytes()
                            : Pool.heap().stats().PeakBlockBytesInUse;
  Stats.Checksum = Checksums[0];
  return Stats;
}

} // namespace

RunStats effective::workloads::runWorkload(const Workload &W, Variant Kind,
                                           unsigned Scale,
                                           std::FILE *LogStream) {
  return runEntry(Kind, entryFor(W, Kind), Scale, LogStream);
}

RunStats effective::workloads::runWorkloadMT(const Workload &W,
                                             Variant Kind, unsigned Scale,
                                             unsigned Threads,
                                             std::FILE *LogStream) {
  return runEntryMT(W, Kind, entryFor(W, Kind), Scale, Threads, LogStream);
}

RunStats effective::workloads::runCountedWorkload(const Workload &W,
                                                  unsigned Scale,
                                                  std::FILE *LogStream) {
  return runEntry(Variant::Full, W.RunCounted, Scale, LogStream);
}

RunStats effective::workloads::runCountedWorkloadMT(const Workload &W,
                                                    unsigned Scale,
                                                    unsigned Threads,
                                                    std::FILE *LogStream) {
  return runEntryMT(W, Variant::Full, W.RunCounted, Scale, Threads,
                    LogStream);
}

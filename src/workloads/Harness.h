//===- workloads/Harness.h - Workload measurement harness -------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a workload under one instrumentation policy with a fresh
/// Sanitizer session, measuring wall-clock time, dynamic check counts,
/// issues found, and peak memory — everything Figures 7, 8, 9 and 10
/// report. Each run is fully session-isolated: private heap, counters
/// and reporter, with types shared through the global context.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_WORKLOADS_HARNESS_H
#define EFFECTIVE_WORKLOADS_HARNESS_H

#include "api/Sanitizer.h"
#include "workloads/Workload.h"

#include <cstdio>

namespace effective {
namespace workloads {

/// Kept only because perfbench/ still spells the variant PolicyKind.
using PolicyKind = Variant;

/// Kept only because perfbench/ still calls policyKindName.
inline const char *policyKindName(Variant V) { return variantName(V); }

/// Everything measured for one run.
struct RunStats {
  double Seconds = 0;
  CheckCounters::Snapshot Checks{};
  /// Distinct issues (Figure 7 buckets).
  uint64_t Issues = 0;
  /// Raw error events.
  uint64_t ErrorEvents = 0;
  /// Peak heap footprint: low-fat block bytes under instrumented
  /// policies; malloc usable bytes under the uninstrumented baseline.
  uint64_t PeakHeapBytes = 0;
  /// The workload checksum (identical across policies by construction).
  uint64_t Checksum = 0;
};

/// Runs \p W once under \p Kind at \p Scale. When \p LogStream is
/// non-null the runtime logs each issue there (Figure 7 logging mode);
/// otherwise errors are only counted (performance mode).
RunStats runWorkload(const Workload &W, Variant Kind, unsigned Scale,
                     std::FILE *LogStream = nullptr);

/// Multi-threaded pool mode: fans \p Threads copies of the workload
/// across a concurrent::SessionPool with one shard per thread. Each
/// worker runs the kernel against its own shard runtime (private
/// sub-arena, private counters); afterwards the per-shard
/// CheckCounters snapshots are merged (Snapshot::operator+=), pending
/// error events are drained to the pool's central reporter, and the
/// heap peak is read off the shared sharded heap. The kernels are
/// deterministic, so every worker must produce the same checksum — the
/// harness verifies this and returns it. Threads <= 1 degrades to
/// runWorkload.
RunStats runWorkloadMT(const Workload &W, Variant Kind, unsigned Scale,
                       unsigned Threads, std::FILE *LogStream = nullptr);

/// runWorkload and runWorkloadMT on the counting Full build
/// (Workload::RunCounted). The Variant entries count type checks and
/// bounds_get only; Figure 7 and every test of bounds check or narrow
/// counts run this one. Its checks and reports are the Full entry's.
RunStats runCountedWorkload(const Workload &W, unsigned Scale,
                            std::FILE *LogStream = nullptr);
RunStats runCountedWorkloadMT(const Workload &W, unsigned Scale,
                              unsigned Threads,
                              std::FILE *LogStream = nullptr);

} // namespace workloads
} // namespace effective

#endif // EFFECTIVE_WORKLOADS_HARNESS_H

//===- workloads/Workload.h - Benchmark workload framework ------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workload framework behind the Figure 7-10 reproductions. Each
/// SPEC2006 benchmark (and each Firefox browser benchmark) is
/// represented by a synthetic kernel with the same allocation and
/// access pattern, templated over the instrumentation Policy so the
/// paper's four build variants (uninstrumented / -type / -bounds /
/// full) compile to genuinely different native code.
///
/// Every kernel returns a checksum that must be identical across
/// policies — the harness verifies this, guaranteeing all variants do
/// the same work.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_WORKLOADS_WORKLOAD_H
#define EFFECTIVE_WORKLOADS_WORKLOAD_H

#include "core/CheckedPtr.h"

#include <vector>

namespace effective {
namespace workloads {

/// Static facts about one workload (display data for the tables; the
/// kilo-sLOC column reproduces the paper's Figure 7 values for the
/// original programs our kernels stand in for).
struct WorkloadInfo {
  const char *Name;
  /// "C" or "C++" (Figure 7 marks C++ benchmarks).
  const char *Language;
  /// The original program's kilo-sLOC (Figure 7 column).
  double KiloSloc;
  /// Number of distinct seeded issues (what Figure 7's #Issues-found
  /// should report when run under full instrumentation; 0 = clean).
  unsigned SeededIssues;
};

/// One workload: info plus one entry point per instrumentation policy.
/// The four Figure 8 entries count type checks and bounds_get only, so
/// their bounds checks are a compare and a branch; RunCounted is full
/// instrumentation that also counts every bounds check and narrow, the
/// build Figure 7's check counts come from.
struct Workload {
  WorkloadInfo Info;
  uint64_t (*RunFull)(Runtime &RT, unsigned Scale);
  uint64_t (*RunBounds)(Runtime &RT, unsigned Scale);
  uint64_t (*RunType)(Runtime &RT, unsigned Scale);
  uint64_t (*RunNone)(Runtime &RT, unsigned Scale);
  uint64_t (*RunCounted)(Runtime &RT, unsigned Scale);
};

/// Expands to the per-policy instantiations of a workload function
/// template: the four non-counting Figure 8 rows, then the counting
/// Full row.
#define EFFSAN_WORKLOAD_ENTRIES(FN)                                          \
  FN<::effective::VariantPolicy<::effective::Variant::Full, false>>,         \
      FN<::effective::VariantPolicy<::effective::Variant::Bounds, false>>,   \
      FN<::effective::VariantPolicy<::effective::Variant::Type, false>>,     \
      FN<::effective::VariantPolicy<::effective::Variant::None, false>>,     \
      FN<::effective::FullPolicy>

/// The 19 SPEC2006 stand-in kernels, in Figure 7 order.
const std::vector<Workload> &specWorkloads();

/// The browser benchmark stand-ins, in Figure 10 order.
const std::vector<Workload> &browserWorkloads();

} // namespace workloads
} // namespace effective

#endif // EFFECTIVE_WORKLOADS_WORKLOAD_H

//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One entry point per workload (README.md explains why each exists).
/// Untraced, a workload fills Result with the end-to-end metrics;
/// traced, it measures an untraced half and a traced half of the same
/// budget and fills the per-layer metrics it computes itself (the span
/// self times are derived from the trace by trace_summary.py).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

namespace perfbench {

/// The 19 SPEC2006 stand-in kernels; \p Threaded runs each kernel on
/// workerThreads() threads against one shared session (spec_mt).
Result runSpec(const Args &A, bool Threaded);

/// A seeded MiniC corpus compiled under every variant and run on the
/// bytecode VM.
Result runMinic(const Args &A);

/// Closed-loop tenant requests against a service::Supervisor.
Result runService(const Args &A);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H

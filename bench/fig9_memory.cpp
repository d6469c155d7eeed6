//===- bench/fig9_memory.cpp - Reproduces Figure 9 ------------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Figure 9 of the paper: peak memory per benchmark,
/// uninstrumented (plain malloc footprint) versus EffectiveSan full
/// (low-fat blocks including META headers and size-class rounding).
/// Paper result: ~12% overall overhead.
///
/// Usage: fig9_memory [scale]   (default 4)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "support/StringUtils.h"
#include "workloads/Harness.h"

#include <vector>

using namespace effective;
using namespace effective::workloads;

int main(int argc, char **argv) {
  unsigned Scale = 4;
  if (!bench::parseArgs(argc, argv, "[scale]", &Scale, nullptr))
    return 2;

  bench::banner("Figure 9: peak memory, uninstrumented vs EffectiveSan (full); "
                "scale=%u",
                Scale);
  std::printf("%-12s %14s %14s %10s\n", "Benchmark", "Uninstrumented",
              "EffectiveSan", "overhead");

  // Every uninstrumented pass runs before any instrumented one. The
  // baseline is what malloc hands back (malloc_usable_size), which
  // depends on the free chunks earlier code left in malloc; instrumented
  // sessions leave runtime structures (pooled per-thread heap caches)
  // behind for the life of the process, so after them the baseline
  // would move with the runtime's own allocations.
  const std::vector<Workload> &Spec = specWorkloads();
  std::vector<RunStats> Baselines;
  for (const Workload &W : Spec)
    Baselines.push_back(runWorkload(W, Variant::None, Scale));

  uint64_t TotalNone = 0, TotalFull = 0;
  for (size_t I = 0; I < Spec.size(); ++I) {
    const Workload &W = Spec[I];
    const RunStats &None = Baselines[I];
    RunStats Full = runWorkload(W, Variant::Full, Scale);
    double Overhead =
        None.PeakHeapBytes
            ? 100.0 * ((double)Full.PeakHeapBytes / None.PeakHeapBytes - 1)
            : 0.0;
    std::printf("%-12s %14s %14s %+9.1f%%\n", W.Info.Name,
                formatBytes(None.PeakHeapBytes).c_str(),
                formatBytes(Full.PeakHeapBytes).c_str(), Overhead);
    TotalNone += None.PeakHeapBytes;
    TotalFull += Full.PeakHeapBytes;
  }

  std::printf("\nOverall: %s -> %s (%+.1f%%); paper reports ~12%% "
              "(vs ~237%% for\nAddressSanitizer's shadow memory).\n",
              formatBytes(TotalNone).c_str(),
              formatBytes(TotalFull).c_str(),
              TotalNone
                  ? 100.0 * ((double)TotalFull / TotalNone - 1)
                  : 0.0);
  std::printf("The overhead is META headers (16 B/object) plus size-class "
              "rounding;\nconstant type meta data (layout tables) is shared "
              "process-wide.\n");
  return 0;
}

//===- bench/fig10_browser.cpp - Reproduces Figure 10 ---------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Figure 10 of the paper: relative performance of the
/// browser benchmarks under full EffectiveSan instrumentation (Firefox
/// stand-ins; see DESIGN.md substitution 3). The paper reports a 422%
/// overall overhead — about 1.5x the SPEC geomean — driven by the
/// engine's temporary-object churn.
///
/// Usage: fig10_browser [scale] [reps]   (defaults 6, 3)
///
//===----------------------------------------------------------------------===//

#include "workloads/Harness.h"

#include <cmath>
#include <cstdlib>

using namespace effective;
using namespace effective::workloads;

int main(int argc, char **argv) {
  unsigned Scale = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 48;
  unsigned Reps = argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 3;
  if (Scale == 0)
    Scale = 1;
  if (Reps == 0)
    Reps = 1;

  std::printf("==============================================================="
              "=========\n");
  std::printf("Figure 10: browser benchmarks, EffectiveSan (full) relative "
              "overhead\n(scale=%u, best of %u)\n",
              Scale, Reps);
  std::printf("==============================================================="
              "=========\n\n");
  std::printf("%-14s %10s %10s %10s\n", "Benchmark", "Uninstr(s)",
              "Full(s)", "relative");

  double LogSum = 0;
  unsigned Counted = 0;
  for (const Workload &W : browserWorkloads()) {
    double None = 1e30, Full = 1e30;
    for (unsigned Rep = 0; Rep < Reps; ++Rep) {
      RunStats N = runWorkload(W, Variant::None, Scale);
      RunStats F = runWorkload(W, Variant::Full, Scale);
      if (N.Seconds < None)
        None = N.Seconds;
      if (F.Seconds < Full)
        Full = F.Seconds;
    }
    double Relative = Full / None;
    std::printf("%-14s %10.3f %10.3f %9.0f%%\n", W.Info.Name, None, Full,
                Relative * 100);
    LogSum += std::log(Relative);
    ++Counted;
  }

  double Geo = std::exp(LogSum / Counted);
  std::printf("\nOverall relative performance: %.0f%% (paper: ~522%% = 422%% "
              "overhead).\nExpected shape: browser overhead exceeds the "
              "SPEC-like geomean\n(temporary-object churn; see [11]).\n",
              Geo * 100);
  return 0;
}

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
/// Each overhead is the median of seven order-alternating pairs of
/// full and uninstrumented cells, each cell calibrated to >= 50 ms, as
/// in fig8_timings.
///
/// Usage: fig10_browser [scale]   (default 48)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "workloads/Harness.h"

using namespace effective;
using namespace effective::workloads;

int main(int argc, char **argv) {
  unsigned Scale = 48;
  if (!bench::parseArgs(argc, argv, "[scale]", &Scale, nullptr))
    return 2;

  bench::banner("Figure 10: browser benchmarks, EffectiveSan (full) relative "
                "overhead\n(scale=%u, medians of 7 paired cells of >= 50 ms)",
                Scale);
  std::printf("%-14s %10s %10s %10s\n", "Benchmark", "Uninstr(s)",
              "Full(s)", "relative");

  std::vector<double> Relatives;
  for (const Workload &W : browserWorkloads()) {
    bench::Paired P =
        bench::runPaired(7, bench::workloadCell(W, Variant::None, Scale, 0.05),
                         bench::workloadCell(W, Variant::Full, Scale, 0.05));
    Relatives.push_back(bench::median(P.Ratios));
    std::printf("%-14s %10.3f %10.3f %9.0f%%\n", W.Info.Name,
                bench::median(P.A), bench::median(P.B), Relatives.back() * 100);
  }

  double Geo = bench::geomean(Relatives);
  std::printf("\nOverall relative performance: %.0f%% (paper: ~522%% = 422%% "
              "overhead).\nExpected shape: browser overhead exceeds the "
              "SPEC-like geomean\n(temporary-object churn; see [11]).\n",
              Geo * 100);
  return 0;
}

//===- bench/fig8_timings.cpp - Reproduces Figure 8 -----------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Figure 8 of the paper: per-benchmark wall-clock time for
/// the uninstrumented baseline and the three EffectiveSan variants,
/// plus geometric-mean overheads (paper: full 288%, bounds 115%,
/// type 49%).
///
/// Timings are SINGLE-THREADED (one session per run, like the paper's
/// SPEC methodology). Multi-thread scaling of the runtime itself is
/// bench/mt_throughput.cpp's job.
///
/// Usage: fig8_timings [scale] [reps]   (defaults 4, 3)
///
//===----------------------------------------------------------------------===//

#include "workloads/Harness.h"

#include <cmath>
#include <cstdlib>

using namespace effective;
using namespace effective::workloads;

namespace {

/// Best-of-N timing for one (workload, policy) pair.
double bestSeconds(const Workload &W, Variant Kind, unsigned Scale,
                   unsigned Reps) {
  double Best = 1e30;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    RunStats Stats = runWorkload(W, Kind, Scale);
    if (Stats.Seconds < Best)
      Best = Stats.Seconds;
  }
  return Best;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Scale = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 16;
  unsigned Reps = argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 3;
  if (Scale == 0)
    Scale = 1;
  if (Reps == 0)
    Reps = 1;

  std::printf("==============================================================="
              "=========\n");
  std::printf("Figure 8: SPEC2006 stand-in timings (seconds; scale=%u, "
              "best of %u; single-threaded —\nsee mt_throughput for "
              "multi-thread scaling)\n",
              Scale, Reps);
  std::printf("==============================================================="
              "=========\n\n");
  std::printf("%-12s %10s %10s %10s %10s | %8s %8s %8s\n", "Benchmark",
              "Uninstr", "Type", "Bounds", "Full", "ov.type", "ov.bnds",
              "ov.full");

  double LogSum[3] = {0, 0, 0};
  unsigned Counted = 0;
  for (const Workload &W : specWorkloads()) {
    double None = bestSeconds(W, Variant::None, Scale, Reps);
    double Type = bestSeconds(W, Variant::Type, Scale, Reps);
    double Bounds = bestSeconds(W, Variant::Bounds, Scale, Reps);
    double Full = bestSeconds(W, Variant::Full, Scale, Reps);
    double OvType = Type / None, OvBounds = Bounds / None,
           OvFull = Full / None;
    std::printf("%-12s %10.3f %10.3f %10.3f %10.3f | %7.2fx %7.2fx "
                "%7.2fx\n",
                W.Info.Name, None, Type, Bounds, Full, OvType, OvBounds,
                OvFull);
    LogSum[0] += std::log(OvType);
    LogSum[1] += std::log(OvBounds);
    LogSum[2] += std::log(OvFull);
    ++Counted;
  }

  double GeoType = std::exp(LogSum[0] / Counted);
  double GeoBounds = std::exp(LogSum[1] / Counted);
  double GeoFull = std::exp(LogSum[2] / Counted);
  std::printf("\nGeometric-mean overheads (1.00x = baseline):\n");
  std::printf("  EffectiveSan-type:   %5.2fx (+%4.0f%%)   paper: +49%%\n",
              GeoType, (GeoType - 1) * 100);
  std::printf("  EffectiveSan-bounds: %5.2fx (+%4.0f%%)   paper: +115%%\n",
              GeoBounds, (GeoBounds - 1) * 100);
  std::printf("  EffectiveSan (full): %5.2fx (+%4.0f%%)   paper: +288%%\n",
              GeoFull, (GeoFull - 1) * 100);
  std::printf("\nExpected shape: full > bounds > type > 1.0x, with full "
              "instrumentation\nroughly 2-4x and the ordering strict.\n");
  return 0;
}

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
/// Each overhead cell is the median of seven order-alternating pairs
/// of variant and uninstrumented cells. A cell repeats the workload
/// (fresh session per run, kernel time only) as often as calibration
/// says it takes to last at least 50 ms, so no cell is timer noise.
///
/// Timings are SINGLE-THREADED (one session per run, like the paper's
/// SPEC methodology). Multi-thread scaling of the runtime itself is
/// bench/mt_throughput.cpp's job.
///
/// Usage: fig8_timings [scale] [--json=FILE]
///
///   scale        workload input scale (default 16)
///   --json=FILE  emit the table and geomeans as JSON (BENCH_fig8)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "workloads/Harness.h"

using namespace effective;
using namespace effective::workloads;

namespace {

constexpr double MinCellSeconds = 0.05;
constexpr unsigned Pairs = 7;
constexpr Variant Checked[] = {Variant::Type, Variant::Bounds, Variant::Full};
constexpr const char *Keys[] = {"type", "bounds", "full"};

} // namespace

int main(int argc, char **argv) {
  unsigned Scale = 16;
  const char *JsonPath = nullptr;
  if (!bench::parseArgs(argc, argv, "[scale] [--json=FILE]", &Scale,
                        &JsonPath))
    return 2;

  bench::banner("Figure 8: SPEC2006 stand-in timings (seconds per run; "
                "scale=%u; overheads are\nmedians of %u paired cells of >= "
                "%.0f ms; single-threaded — see mt_throughput)",
                Scale, Pairs, MinCellSeconds * 1e3);
  std::printf("%-12s %10s %10s %10s %10s | %8s %8s %8s\n", "Benchmark",
              "Uninstr", "Type", "Bounds", "Full", "ov.type", "ov.bnds",
              "ov.full");

  bench::JsonWriter Json;
  Json.str("bench", "fig8_timings").count("scale", Scale).host();
  Json.num("min_cell_s", MinCellSeconds).count("pairs", Pairs);
  Json.array("workloads");
  std::vector<double> Overheads[3];
  for (const Workload &W : specWorkloads()) {
    auto None = bench::workloadCell(W, Variant::None, Scale, MinCellSeconds);
    std::vector<double> NoneRuns;
    double Secs[4];
    bench::Summary Ov[3];
    for (int K = 0; K < 3; ++K) {
      bench::Paired P = bench::runPaired(
          Pairs, None,
          bench::workloadCell(W, Checked[K], Scale, MinCellSeconds));
      NoneRuns.insert(NoneRuns.end(), P.A.begin(), P.A.end());
      Secs[K + 1] = bench::median(P.B);
      Ov[K] = bench::summarize(P.Ratios);
      Overheads[K].push_back(Ov[K].Median);
    }
    Secs[0] = bench::median(NoneRuns);
    std::printf("%-12s %10.5f %10.5f %10.5f %10.5f | %7.2fx %7.2fx "
                "%7.2fx\n",
                W.Info.Name, Secs[0], Secs[1], Secs[2], Secs[3],
                Ov[0].Median, Ov[1].Median, Ov[2].Median);
    Json.object().str("name", W.Info.Name).num("none_s", Secs[0], 6);
    for (int K = 0; K < 3; ++K)
      Json.object(Keys[K])
          .num("run_s", Secs[K + 1], 6)
          .num("overhead_x", Ov[K].Median)
          .num("overhead_iqr_x", Ov[K].iqr())
          .end();
    Json.end();
  }
  Json.end();

  const int PaperPct[] = {49, 115, 288};
  std::printf("\nGeometric-mean overheads (1.00x = baseline):\n");
  Json.object("geomean_x");
  for (int K = 0; K < 3; ++K) {
    double Geo = bench::geomean(Overheads[K]);
    Json.num(Keys[K], Geo);
    std::printf("  %-20s %5.2fx (+%4.0f%%)   paper: +%d%%\n",
                (std::string(variantName(Checked[K])) + ":").c_str(), Geo,
                (Geo - 1) * 100, PaperPct[K]);
  }
  Json.end();
  std::printf("\nExpected shape: full > bounds > type > 1.0x, with full "
              "instrumentation\nroughly 2-4x and the ordering strict.\n");
  if (JsonPath && !Json.write(JsonPath, "fig8_timings"))
    return 1;
  return 0;
}

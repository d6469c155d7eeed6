//===- bench/fig7_spec_summary.cpp - Reproduces Figure 7 ------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Figure 7 of the paper: per-benchmark dynamic type-check
/// and bounds-check counts plus the number of distinct issues found by
/// full EffectiveSan instrumentation, with the Section 6.2 aggregates
/// (C++-only totals, legacy-pointer ratio, per-variant check volumes).
///
/// Usage: fig7_spec_summary [scale]   (default scale 2)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "support/StringUtils.h"
#include "workloads/Harness.h"

#include <cstring>

using namespace effective;
using namespace effective::workloads;

int main(int argc, char **argv) {
  unsigned Scale = 2;
  if (!bench::parseArgs(argc, argv, "[scale]", &Scale, nullptr))
    return 2;

  bench::banner("Figure 7: SPEC2006 stand-in summary under EffectiveSan (full)"
                "\nscale=%u; checks in millions; kilo-sLOC column reproduces "
                "the\npaper's values for the original programs",
                Scale);

  std::printf("%-12s %-5s %10s %12s %12s %8s %8s\n", "Benchmark", "Lang",
              "kilo-sLOC", "#Type (M)", "#Bounds (M)", "#Issues",
              "expect");
  std::printf("%-12s %-5s %10s %12s %12s %8s %8s\n", "---------", "----",
              "---------", "---------", "-----------", "-------",
              "------");

  uint64_t TotalType = 0, TotalBounds = 0, TotalIssues = 0;
  uint64_t TotalLegacy = 0;
  uint64_t CxxType = 0, CxxBounds = 0, CxxIssues = 0;
  double TotalSloc = 0, CxxSloc = 0;

  CheckCounters::Snapshot VariantTotals[3] = {};

  for (const Workload &W : specWorkloads()) {
    // The counting Full build: the timed one counts no bounds checks.
    RunStats Full = runCountedWorkload(W, Scale);
    uint64_t TypeChecks = Full.Checks.TypeChecks;
    uint64_t BoundsChecks = Full.Checks.BoundsChecks;
    bool IsCxx = std::strcmp(W.Info.Language, "C++") == 0;
    std::printf("%-12s %-5s %10.1f %12.2f %12.2f %8llu %8u%s\n",
                W.Info.Name, W.Info.Language, W.Info.KiloSloc,
                TypeChecks / 1e6, BoundsChecks / 1e6,
                (unsigned long long)Full.Issues, W.Info.SeededIssues,
                Full.Issues != W.Info.SeededIssues ? "  <-- MISMATCH"
                                                   : "");
    TotalType += TypeChecks;
    TotalBounds += BoundsChecks;
    TotalIssues += Full.Issues;
    TotalLegacy += Full.Checks.LegacyTypeChecks;
    TotalSloc += W.Info.KiloSloc;
    if (IsCxx) {
      CxxType += TypeChecks;
      CxxBounds += BoundsChecks;
      CxxIssues += Full.Issues;
      CxxSloc += W.Info.KiloSloc;
    }
    // Variant check volumes (Section 6.2 comparison with TypeSan).
    RunStats TypeVar = runWorkload(W, Variant::Type, Scale);
    RunStats BoundsVar = runWorkload(W, Variant::Bounds, Scale);
    VariantTotals[0].TypeChecks += TypeVar.Checks.TypeChecks;
    VariantTotals[1].BoundsGets += BoundsVar.Checks.BoundsGets;
  }

  std::printf("%-12s %-5s %10.1f %12.2f %12.2f %8llu\n", "Totals (all)",
              "", TotalSloc, TotalType / 1e6, TotalBounds / 1e6,
              (unsigned long long)TotalIssues);
  std::printf("%-12s %-5s %10.1f %12.2f %12.2f %8llu\n", "Totals (C++)",
              "", CxxSloc, CxxType / 1e6, CxxBounds / 1e6,
              (unsigned long long)CxxIssues);

  std::printf("\nSection 6.1/6.2 aggregates:\n");
  std::printf("  bounds/type check ratio:   %.2fx (paper: ~4.0x)\n",
              TotalType ? (double)TotalBounds / TotalType : 0.0);
  std::printf("  legacy-pointer type checks: %.2f%% (paper: ~1.1%%)\n",
              TotalType ? 100.0 * TotalLegacy / TotalType : 0.0);
  std::printf("  EffectiveSan-type total type checks: %s (full: %s)\n",
              withThousandsSep(VariantTotals[0].TypeChecks).c_str(),
              withThousandsSep(TotalType).c_str());
  std::printf("  EffectiveSan-bounds bounds_get ops:  %s\n",
              withThousandsSep(VariantTotals[1].BoundsGets).c_str());
  std::printf("\nBenchmarks with issues (paper: perlbench, bzip2, gcc, "
              "h264ref,\nxalancbmk, milc, namd, dealII, soplex, povray, "
              "lbm, sphinx3;\nzero for mcf, gobmk, hmmer, sjeng, "
              "libquantum, omnetpp, astar)\n");
  return 0;
}

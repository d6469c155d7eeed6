//===- perfbench/src/SpecWorkloads.cpp - spec and spec_mt workloads -------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Figure 8 as paired, interleaved ratios. Each kernel's four variants
/// run back to back in a seed-rotated order, each cell repeating a
/// committed number of runs with a fresh session per run, so a ratio
/// compares cells measured moments apart. spec_mt runs the same cells
/// on workerThreads() threads sharing one session.
///
//===----------------------------------------------------------------------===//

#include "Team.h"
#include "Trace.h"
#include "Workloads.h"

#include "api/Sanitizer.h"
#include "workloads/Harness.h"
#include "workloads/Support.h"
#include "workloads/Workload.h"

#include <array>
#include <cstring>
#include <memory>

using namespace perfbench;
using namespace effective;
using namespace effective::workloads;

namespace {

constexpr PolicyKind Variants[] = {PolicyKind::None, PolicyKind::Type,
                                   PolicyKind::Bounds, PolicyKind::Full};
constexpr unsigned NumVariants = 4;
constexpr unsigned None = 0, Type = 1, BoundsV = 2, Full = 3;

/// Committed work per kernel: the kernel scale, the runs per cell
/// single-threaded, and the runs per cell on the shared session. Chosen
/// so every uninstrumented cell takes milliseconds (far above timer
/// noise) while the multi-threaded Full cells, 5-100x slower than
/// their baselines, stay under a few hundred milliseconds. Fixed here,
/// never calibrated at run time, so two commits do identical work.
struct KernelPlan {
  const char *Name;
  unsigned Scale;
  unsigned Reps;
  unsigned MTReps;
};

constexpr KernelPlan Plans[] = {
    {"perlbench", 8, 3, 1},  {"bzip2", 8, 2, 1},     {"gcc", 16, 8, 1},
    {"mcf", 32, 8, 3},       {"gobmk", 16, 6, 3},    {"hmmer", 8, 2, 1},
    {"sjeng", 32, 20, 6},    {"libquantum", 4, 3, 1}, {"h264ref", 8, 2, 1},
    {"omnetpp", 1, 2, 1},    {"astar", 1, 2, 1},     {"xalancbmk", 32, 4, 1},
    {"milc", 16, 4, 1},      {"namd", 8, 4, 1},      {"dealII", 8, 2, 1},
    {"soplex", 32, 6, 2},    {"povray", 8, 5, 1},    {"lbm", 4, 2, 1},
    {"sphinx3", 16, 5, 2},
};

/// sphinx3 reads Trellis[NumStates..2*NumStates) before writing it at
/// frame 0 (Sphinx3.cpp), so its uninstrumented checksum depends on what
/// malloc returns. Its None checksum alone is exempt from the check.
bool checksumIsDeterministic(const Workload &W, unsigned V) {
  return !(V == None && std::strcmp(W.Info.Name, "sphinx3") == 0);
}

using Entry = uint64_t (*)(Runtime &, unsigned);

Entry entryFor(const Workload &W, unsigned V) {
  switch (Variants[V]) {
  case PolicyKind::None:
    return W.RunNone;
  case PolicyKind::Type:
    return W.RunType;
  case PolicyKind::Bounds:
    return W.RunBounds;
  case PolicyKind::Full:
    return W.RunFull;
  }
  return W.RunFull;
}

std::unique_ptr<Sanitizer> openSession(unsigned V) {
  Span S("api.session_open");
  SessionOptions Options;
  Options.Policy = checkPolicyFor(Variants[V]);
  Options.Reporter.Mode = ReportMode::Count;
  return std::make_unique<Sanitizer>(TypeContext::global(), Options);
}

void closeSession(std::unique_ptr<Sanitizer> &S) {
  Span Sp("api.session_close");
  S.reset();
}

uint64_t totalChecks(const CheckCounters::Snapshot &C) {
  return C.TypeChecks + C.BoundsChecks + C.BoundsGets + C.BoundsNarrows;
}

/// What one kernel run measured.
struct KernelRun {
  double Seconds = 0;
  uint64_t Checksum = 0;
  CheckCounters::Snapshot Checks{};
  uint64_t Issues = 0;
  /// Low-fat peak block bytes, or malloc usable bytes under None.
  uint64_t PeakBytes = 0;
  uint64_t Allocs = 0;
  uint64_t MagazineHits = 0;
};

/// One run with a fresh session, as workloads::runWorkload does, but
/// keeping the heap statistics runWorkload discards.
KernelRun runKernel(const Workload &W, unsigned V, unsigned Scale) {
  std::unique_ptr<Sanitizer> S = openSession(V);
  Runtime &RT = S->runtime();
  KernelRun R;
  {
    SanitizerScope Scope(*S);
    MallocTally::reset();
    Span Sp("workloads.kernel");
    Clock::time_point Start = Clock::now();
    R.Checksum = entryFor(W, V)(RT, Scale);
    R.Seconds = secondsSince(Start);
  }
  RT.heap().flushThreadCache();
  lowfat::HeapStats H = RT.heap().stats();
  R.Checks = RT.counters().snapshot();
  R.Issues = RT.reporter().numIssues();
  R.PeakBytes = V == None ? MallocTally::peakBytes() : H.PeakBlockBytesInUse;
  R.Allocs = H.NumAllocs;
  R.MagazineHits = H.MagazineHits;
  closeSession(S);
  return R;
}

/// One run of \p W on \p Threads fresh threads against one shared
/// session. Returns the wall seconds; checksums land in \p Sums. The
/// threads are new for every run, so where the scheduler places them
/// (which decides how much their shared cache lines cost) is drawn
/// anew each run instead of once per process.
double runShared(unsigned Threads, const Workload &W, unsigned V,
                 unsigned Scale, std::vector<uint64_t> &Sums,
                 CheckCounters::Snapshot &Checks) {
  Team T(Threads);
  std::unique_ptr<Sanitizer> S = openSession(V);
  Runtime &RT = S->runtime();
  Entry Fn = entryFor(W, V);
  double Seconds;
  {
    Span Sp("workloads.kernel_shared");
    Seconds = T.run([&](unsigned I) {
      RuntimeScope Scope(RT);
      Sums[I] = Fn(RT, Scale);
    });
  }
  Checks = RT.counters().snapshot();
  closeSession(S);
  return Seconds;
}

const KernelPlan *planFor(const Workload &W) {
  for (const KernelPlan &P : Plans)
    if (std::strcmp(P.Name, W.Info.Name) == 0)
      return &P;
  return nullptr;
}

/// Samples per kernel and variant: the cell's seconds in each round.
using CellTimes = std::vector<std::array<std::vector<double>, NumVariants>>;

double medianRatio(const CellTimes &Times, size_t K, unsigned V) {
  std::vector<double> Ratios;
  for (size_t R = 0; R < Times[K][V].size(); ++R)
    Ratios.push_back(Times[K][V][R] / Times[K][None][R]);
  return median(Ratios);
}

/// Per-round value of sum_k(t[V1]) - sum_k(t[V0]) over \p Ops, in ns.
double nsPerOp(const CellTimes &Times, unsigned V1, unsigned V0,
               double Ops) {
  std::vector<double> PerRound;
  for (size_t R = 0; R < Times[0][V1].size(); ++R) {
    double Delta = 0;
    for (size_t K = 0; K < Times.size(); ++K)
      Delta += Times[K][V1][R] - Times[K][V0][R];
    PerRound.push_back(Delta * 1e9 / Ops);
  }
  return median(PerRound);
}

} // namespace

Result perfbench::runSpec(const Args &A, bool Threaded) {
  Result Res;
  const std::vector<Workload> &Kernels = specWorkloads();
  std::vector<const KernelPlan *> KPlans;
  for (const Workload &W : Kernels) {
    const KernelPlan *P = planFor(W);
    if (!P) {
      std::fprintf(stderr, "perfbench: no committed plan for kernel %s\n",
                   W.Info.Name);
      std::exit(2);
    }
    KPlans.push_back(P);
  }
  const unsigned Threads = Threaded ? workerThreads() : 1;

  // Set-up: what one pass needs around its timed runs — a session
  // opened and closed per kernel and variant (and, threaded, its thread
  // team started and joined).
  auto SetUp = [&] {
    Clock::time_point Start = Clock::now();
    for (size_t K = 0; K < Kernels.size(); ++K)
      for (unsigned V = 0; V < NumVariants; ++V) {
        std::unique_ptr<Team> T;
        if (Threaded)
          T = std::make_unique<Team>(Threads);
        std::unique_ptr<Sanitizer> S = openSession(V);
        closeSession(S);
      }
    return secondsSince(Start);
  };
  std::vector<double> Setups = initialSetups(SetUp);

  // Reference pass (untimed): every kernel once per variant,
  // single-threaded. Establishes the checksums every later run must
  // reproduce and the exact per-run check counts.
  std::vector<std::array<KernelRun, NumVariants>> Ref(Kernels.size());
  for (size_t K = 0; K < Kernels.size(); ++K) {
    const Workload &W = Kernels[K];
    for (unsigned V = 0; V < NumVariants; ++V)
      Ref[K][V] = runKernel(W, V, KPlans[K]->Scale);
    for (unsigned V = 0; V < NumVariants; ++V) {
      ++Res.Attempted;
      if (checksumIsDeterministic(W, V) &&
          Ref[K][V].Checksum != Ref[K][Full].Checksum)
        Res.fail("%s: %s checksum %llu != full checksum %llu", W.Info.Name,
                 policyKindName(Variants[V]),
                 (unsigned long long)Ref[K][V].Checksum,
                 (unsigned long long)Ref[K][Full].Checksum);
    }
    if (Ref[K][Full].Issues != W.Info.SeededIssues)
      Res.fail("%s: full run found %llu issues, %u are seeded", W.Info.Name,
               (unsigned long long)Ref[K][Full].Issues, W.Info.SeededIssues);
  }

  std::vector<uint64_t> Sums(Threads);

  CellTimes Times(Kernels.size());
  std::vector<double> CounterLoss, RefSeconds;
  auto Round = [&](unsigned Index, bool Traced) {
    Span RoundSpan(Threaded ? "spec_mt.round" : "spec.round");
    // One reference sample per kernel: a round lasts about a second, and
    // the median of many samples follows the machine's speed over it.
    std::vector<double> References;
    uint64_t Counted = 0, Expected = 0;
    for (size_t K = 0; K < Kernels.size(); ++K) {
      const Workload &W = Kernels[K];
      const KernelPlan &P = *KPlans[K];
      References.push_back(referenceSeconds());
      unsigned Rotation = unsigned((A.Seed + Index + K) % NumVariants);
      for (unsigned Step = 0; Step < NumVariants; ++Step) {
        unsigned V = (Rotation + Step) % NumVariants;
        Span Cell("spec.cell", K);
        double Seconds = 0;
        for (unsigned Rep = 0; Rep < (Threaded ? P.MTReps : P.Reps); ++Rep) {
          uint64_t Want = Ref[K][V].Checksum;
          bool Check = checksumIsDeterministic(W, V);
          if (!Threaded) {
            KernelRun Run = runKernel(W, V, P.Scale);
            Seconds += Run.Seconds;
            ++Res.Attempted;
            if (Check && Run.Checksum != Want)
              Res.fail("%s/%s: checksum %llu != %llu", W.Info.Name,
                       policyKindName(Variants[V]),
                       (unsigned long long)Run.Checksum,
                       (unsigned long long)Want);
            else if (V == Full && Run.Issues != W.Info.SeededIssues)
              Res.fail("%s: found %llu issues, %u seeded", W.Info.Name,
                       (unsigned long long)Run.Issues, W.Info.SeededIssues);
            continue;
          }
          CheckCounters::Snapshot Checks;
          Seconds += runShared(Threads, W, V, P.Scale, Sums, Checks);
          for (unsigned I = 0; I < Threads; ++I) {
            ++Res.Attempted;
            if (Check && Sums[I] != Want)
              Res.fail("%s/%s thread %u: checksum %llu != single-threaded "
                       "%llu",
                       W.Info.Name, policyKindName(Variants[V]), I,
                       (unsigned long long)Sums[I], (unsigned long long)Want);
          }
          if (V == Full) {
            Counted += totalChecks(Checks);
            Expected += Threads * totalChecks(Ref[K][Full].Checks);
          }
        }
        if (!Traced)
          Times[K][V].push_back(Seconds);
      }
    }
    if (Traced)
      return;
    Setups.push_back(SetUp());
    RefSeconds.push_back(median(References));
    if (Expected)
      CounterLoss.push_back(1.0 - double(Counted) / double(Expected));
  };
  RoundTimes Rounds = measureRounds(A, 3, 2, Round);
  Res.Rounds = Rounds.Untraced.size();

  if (!A.Trace) {
    Res.set("setup_s", median(Setups));
    const char *Names[] = {nullptr, "overhead_type_x", "overhead_bounds_x",
                           "overhead_full_x"};
    for (unsigned V = Type; V <= Full; ++V) {
      std::vector<double> PerKernel;
      for (size_t K = 0; K < Kernels.size(); ++K)
        PerKernel.push_back(medianRatio(Times, K, V));
      Res.set(Names[V], geomean(PerKernel));
    }
    std::vector<double> PassRef;
    for (size_t R = 0; R < RefSeconds.size(); ++R) {
      double Pass = 0;
      for (size_t K = 0; K < Kernels.size(); ++K)
        Pass += Times[K][Full][R];
      PassRef.push_back(Pass / RefSeconds[R]);
    }
    Res.set("pass_ref_x", median(PassRef));
    return Res;
  }

  // Per-layer metrics. Counts are per pass: every kernel run once at its
  // committed scale (exact, since each run has a private session).
  Res.set("trace.overhead_x", median(Rounds.Traced) / median(Rounds.Untraced));
  if (Threaded) {
    double ExpectedFull = 0;
    for (size_t K = 0; K < Kernels.size(); ++K)
      ExpectedFull += double(KPlans[K]->MTReps) * Threads *
                      totalChecks(Ref[K][Full].Checks);
    Res.set("core.mt_full_ns_per_op", nsPerOp(Times, Full, None, ExpectedFull));
    Res.set("core.mt_counter_loss", median(CounterLoss));
    for (size_t K = 0; K < Kernels.size(); ++K)
      Res.set(std::string("workloads.mt.") + Kernels[K].Info.Name + ".full_x",
              medianRatio(Times, K, Full));
    return Res;
  }

  CheckCounters::Snapshot FullPass{}, BoundsPassPerRound{}, FullPerRound{};
  uint64_t Allocs = 0, MagazineHits = 0, PeakBytes = 0;
  std::vector<double> MemRatios;
  for (size_t K = 0; K < Kernels.size(); ++K) {
    const KernelRun &F = Ref[K][Full];
    FullPass += F.Checks;
    for (unsigned Rep = 0; Rep < KPlans[K]->Reps; ++Rep) {
      BoundsPassPerRound += Ref[K][BoundsV].Checks;
      FullPerRound += F.Checks;
    }
    Allocs += F.Allocs;
    MagazineHits += F.MagazineHits;
    PeakBytes += F.PeakBytes;
    if (Ref[K][None].PeakBytes)
      MemRatios.push_back(double(F.PeakBytes) / Ref[K][None].PeakBytes);
  }
  Res.set("core.type_checks", FullPass.TypeChecks);
  Res.set("core.bounds_checks", FullPass.BoundsChecks);
  Res.set("core.bounds_gets", FullPass.BoundsGets);
  Res.set("core.bounds_narrows", FullPass.BoundsNarrows);
  Res.set("core.legacy_type_checks", FullPass.LegacyTypeChecks);
  uint64_t Probes = FullPass.TypeCheckCacheHits + FullPass.TypeCheckCacheMisses;
  Res.set("core.type_cache_hit_ratio",
          Probes ? double(FullPass.TypeCheckCacheHits) / Probes : 0);
  Res.set("core.bounds_ns_per_op",
          nsPerOp(Times, BoundsV, None,
                  double(BoundsPassPerRound.BoundsChecks +
                         BoundsPassPerRound.BoundsGets +
                         BoundsPassPerRound.BoundsNarrows)));
  Res.set("core.full_ns_per_op",
          nsPerOp(Times, Full, None, double(totalChecks(FullPerRound))));
  Res.set("core.type_over_bounds_ns",
          nsPerOp(Times, Full, BoundsV, double(FullPerRound.TypeChecks)));
  Res.set("lowfat.allocs", Allocs);
  Res.set("lowfat.peak_block_bytes", PeakBytes);
  Res.set("lowfat.mem_overhead_x", geomean(MemRatios));
  Res.set("lowfat.magazine_hit_ratio",
          Allocs ? double(MagazineHits) / Allocs : 0);
  for (size_t K = 0; K < Kernels.size(); ++K) {
    std::string Prefix = std::string("workloads.") + Kernels[K].Info.Name;
    Res.set(Prefix + ".full_x", medianRatio(Times, K, Full));
    Res.set(Prefix + ".bounds_x", medianRatio(Times, K, BoundsV));
  }
  return Res;
}

//===- perfbench/src/MinicWorkload.cpp - The minic workload ---------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Each round compiles every corpus program under the four variants and
/// runs each on the bytecode VM, the variants of one program back to
/// back in a seed-rotated order. Traced rounds compile the Full variant
/// through the pipeline's public phases one by one (the order
/// instrument::compileMiniC calls them), so the trace carries one span
/// per phase.
///
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Trace.h"
#include "Workloads.h"

#include "api/Sanitizer.h"
#include "bytecode/Compiler.h"
#include "bytecode/VM.h"
#include "instrument/CheckOptimizer.h"
#include "instrument/Lowering.h"
#include "instrument/Pipeline.h"
#include "ir/Verifier.h"
#include "minic/Parser.h"
#include "minic/Sema.h"

#include <array>
#include <memory>
#include <optional>

using namespace perfbench;
using namespace effective;
using namespace effective::instrument;

namespace {

constexpr CheckPolicy Policies[] = {CheckPolicy::Off, CheckPolicy::TypeOnly,
                                    CheckPolicy::BoundsOnly,
                                    CheckPolicy::Full};
constexpr const char *VariantNames[] = {"none", "type", "bounds", "full"};
constexpr unsigned NumVariants = 4, None = 0, Full = 3;

/// instrument::compileMiniC, phase by phase, with a span per phase.
/// Must stay call-for-call identical to Pipeline.cpp; the workload
/// checks that both produce the same instrumentation statistics.
CompileResult compilePhased(std::string_view Source, TypeContext &Types,
                            DiagnosticEngine &Diags,
                            const InstrumentOptions &Opts,
                            std::string_view FileName) {
  CompileResult Result;
  minic::ASTContext Ctx(Types);
  minic::TranslationUnit Unit;
  std::optional<minic::Parser> P;
  {
    Span S("minic.parse");
    P.emplace(Source, Ctx, Diags);
    if (!P->parseUnit(Unit))
      return Result;
  }
  std::optional<minic::Sema> Checker;
  {
    Span S("minic.sema");
    Checker.emplace(Ctx, Diags);
    if (!Checker->check(Unit))
      return Result;
  }
  std::unique_ptr<ir::Module> M;
  {
    Span S("ir.lower");
    M = lowerToIR(Unit, Types, Diags);
  }
  if (!M)
    return Result;
  M->setSourceName(std::string(FileName));
  auto Verify = [&] {
    Span S("ir.verify");
    return ir::verifyModule(*M, Diags);
  };
  if (!Verify())
    return Result;
  {
    Span S("instrument.cse");
    localCSE(*M);
  }
  if (!Verify())
    return Result;
  {
    Span S("instrument.pass");
    Result.Stats = instrumentModule(*M, Opts);
  }
  if (!Verify())
    return Result;
  if (Opts.MergeCrossBlockChecks && Opts.V != Variant::None) {
    MergeStats Merged;
    {
      Span S("instrument.merge");
      Merged = mergeCrossBlockChecks(*M);
    }
    Result.Stats.ElidedCrossBlock = Merged.merged();
    Result.Stats.TypeChecks -= Merged.MergedTypeChecks;
    Result.Stats.BoundsGets -= Merged.MergedBoundsGets;
    Result.Stats.BoundsChecks -= Merged.MergedBoundsChecks;
    if (!Verify())
      return Result;
  }
  std::string BcError;
  {
    Span S("bytecode.compile");
    Result.BC = bytecode::compile(*M, &BcError);
  }
  if (!Result.BC)
    Diags.error(SourceLoc(), "bytecode lowering failed: " + BcError);
  Result.M = std::move(M);
  return Result;
}

uint64_t elided(const InstrumentStats &S) {
  return S.ElidedNeverFail + S.ElidedSubsumed + S.ElidedCrossBlock +
         S.UnusedPointers;
}

bool sameStats(const InstrumentStats &A, const InstrumentStats &B) {
  return A.TypeChecks == B.TypeChecks && A.BoundsGets == B.BoundsGets &&
         A.BoundsChecks == B.BoundsChecks &&
         A.BoundsNarrows == B.BoundsNarrows && A.CheckSites == B.CheckSites &&
         elided(A) == elided(B);
}

std::unique_ptr<Sanitizer> openSession(TypeContext &Types, unsigned V) {
  Span S("api.session_open");
  SessionOptions Options;
  Options.Policy = Policies[V];
  Options.Reporter.Mode = ReportMode::Count;
  return std::make_unique<Sanitizer>(Types, Options);
}

/// Per-round sums over the corpus.
struct PassTotals {
  std::array<double, NumVariants> VMSeconds{};
  double FullCompileSeconds = 0;
  /// referenceSeconds() measured at the start of the round.
  double ReferenceSeconds = 0;
};

/// Per-pass counts of the Full variant (identical every round).
struct FullCounts {
  uint64_t Steps = 0, ExecChecks = 0, Reports = 0;
  std::vector<InstrumentStats> Stats; ///< Per program.
};

} // namespace

Result perfbench::runMinic(const Args &A) {
  Result Res;
  const std::vector<Program> Corpus = generateCorpus(A.Seed);
  uint64_t Lines = 0;
  for (const Program &P : Corpus)
    Lines += P.Lines;

  // Set-up: what one pass needs besides compiling and running — a type
  // context per program and a session per variant.
  auto SetUp = [&] {
    Clock::time_point Start = Clock::now();
    for (size_t P = 0; P < Corpus.size(); ++P) {
      TypeContext Types;
      for (unsigned V = 0; V < NumVariants; ++V)
        openSession(Types, V).reset();
    }
    return secondsSince(Start);
  };
  std::vector<double> Setups = initialSetups(SetUp);

  std::vector<PassTotals> Passes;
  FullCounts Counts;
  Counts.Stats.resize(Corpus.size());
  bool HaveCounts = false;

  auto Round = [&](unsigned Index, bool Traced) {
    Span RoundSpan("minic.round");
    PassTotals Pass;
    Pass.ReferenceSeconds = referenceSeconds();
    FullCounts Seen;
    for (size_t I = 0; I < Corpus.size(); ++I) {
      const Program &Prog = Corpus[I];
      Span ProgSpan("minic.program", I);
      TypeContext Types;
      unsigned Rotation = unsigned((A.Seed + Index + I) % NumVariants);
      for (unsigned Step = 0; Step < NumVariants; ++Step) {
        unsigned V = (Rotation + Step) % NumVariants;
        ++Res.Attempted;
        DiagnosticEngine Diags;
        InstrumentOptions Opts = instrumentOptionsFor(Policies[V]);
        CompileResult C;
        Clock::time_point Start = Clock::now();
        if (Traced && V == Full) {
          C = compilePhased(Prog.Source, Types, Diags, Opts, Prog.Name);
        } else {
          Span S("instrument.compileMiniC");
          C = compileMiniC(Prog.Source, Types, Diags, Opts, Prog.Name);
        }
        double CompileSeconds = secondsSince(Start);
        if (!C.M || !C.BC) {
          Res.fail("%s: does not compile under %s", Prog.Name.c_str(),
                   VariantNames[V]);
          Diags.print(stderr, Prog.Name);
          continue;
        }
        std::unique_ptr<Sanitizer> Session = openSession(Types, V);
        interp::RunResult Run;
        Start = Clock::now();
        {
          Span S("bytecode.run");
          Run = bytecode::run(*C.BC, *Session);
        }
        double VMSeconds = secondsSince(Start);
        Pass.VMSeconds[V] += VMSeconds;

        uint64_t Events = Session->reporter().numEvents();
        if (!Run.Ok) {
          Res.fail("%s/%s: VM fault: %s", Prog.Name.c_str(),
                   VariantNames[V], Run.Fault.c_str());
          continue;
        }
        if (Run.ExitCode != Prog.ExpectedExit) {
          Res.fail("%s/%s: exit %lld, expected %lld", Prog.Name.c_str(),
                   VariantNames[V], (long long)Run.ExitCode,
                   (long long)Prog.ExpectedExit);
          continue;
        }
        if (Prog.Seeded == Defect::None && Events != 0) {
          Res.fail("%s/%s: clean program reported %llu errors",
                   Prog.Name.c_str(), VariantNames[V],
                   (unsigned long long)Events);
          continue;
        }
        if (V != Full)
          continue;
        Pass.FullCompileSeconds += CompileSeconds;
        if (Prog.Seeded != Defect::None) {
          std::vector<ErrorBucket> Buckets = Session->reporter().buckets();
          unsigned Line = Buckets.size() == 1 && Buckets[0].Where
                              ? Buckets[0].Where->Line
                              : 0;
          if (Events != 1 || Line != Prog.DefectLine)
            Res.fail("%s: %s defect: %llu reports (line %u), expected one "
                     "at line %u",
                     Prog.Name.c_str(), defectName(Prog.Seeded),
                     (unsigned long long)Events, Line, Prog.DefectLine);
        }
        Seen.Steps += Run.Steps;
        Seen.ExecChecks += Run.Checks.TypeChecks + Run.Checks.BoundsGets +
                           Run.Checks.BoundsChecks + Run.Checks.BoundsNarrows;
        Seen.Reports += Events;
        if (!HaveCounts)
          Counts.Stats[I] = C.Stats;
        else if (!sameStats(C.Stats, Counts.Stats[I]))
          Res.fail("%s: instrumentation differs between rounds%s",
                   Prog.Name.c_str(),
                   Traced ? " (phased pipeline vs compileMiniC)" : "");
      }
    }
    if (!HaveCounts) {
      Counts.Steps = Seen.Steps;
      Counts.ExecChecks = Seen.ExecChecks;
      Counts.Reports = Seen.Reports;
      HaveCounts = true;
    }
    if (!Traced) {
      Passes.push_back(Pass);
      Setups.push_back(SetUp());
    }
  };
  RoundTimes Rounds = measureRounds(A, 3, 10, Round);
  Res.Rounds = Rounds.Untraced.size();

  auto PerPass = [&](auto Fn) {
    std::vector<double> Values;
    for (const PassTotals &P : Passes)
      Values.push_back(Fn(P));
    return median(Values);
  };
  double RunSeconds =
      PerPass([](const PassTotals &P) { return P.VMSeconds[Full]; });
  if (!A.Trace) {
    Res.set("setup_s", median(Setups));
    const char *Names[] = {nullptr, "overhead_type_x", "overhead_bounds_x",
                           "overhead_full_x"};
    for (unsigned V = 1; V < NumVariants; ++V)
      Res.set(Names[V], PerPass([V](const PassTotals &P) {
                return P.VMSeconds[V] / P.VMSeconds[None];
              }));
    Res.set("pass_ref_x", PerPass([](const PassTotals &P) {
              return (P.FullCompileSeconds + P.VMSeconds[Full]) /
                     P.ReferenceSeconds;
            }));
    return Res;
  }

  Res.set("trace.overhead_x", median(Rounds.Traced) / median(Rounds.Untraced));
  Res.set("trace.passes", double(Rounds.Traced.size()));
  Res.set("minic.compile_lines_s",
          Lines / PerPass([](const PassTotals &P) {
            return P.FullCompileSeconds;
          }));
  Res.set("bytecode.run_ms", RunSeconds * 1e3);
  Res.set("bytecode.steps", double(Counts.Steps));
  Res.set("bytecode.exec_checks", double(Counts.ExecChecks));
  Res.set("bytecode.ns_per_step",
          Counts.Steps ? RunSeconds * 1e9 / Counts.Steps : 0);
  Res.set("core.reports", double(Counts.Reports));
  uint64_t Sites = 0, Elided = 0;
  for (const InstrumentStats &S : Counts.Stats) {
    Sites += S.CheckSites;
    Elided += elided(S);
  }
  Res.set("instrument.check_sites", double(Sites));
  Res.set("instrument.elided", double(Elided));
  return Res;
}

//===- perfbench/tests/selftest.cpp - The benchmark's own tests -----------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The minic corpus generator is deterministic per seed, and its
/// expected-exit oracle agrees with hand-computed programs and with the
/// compiler + VM on them.
///
//===----------------------------------------------------------------------===//

#include "Corpus.h"

#include "api/Sanitizer.h"
#include "bytecode/VM.h"
#include "instrument/Pipeline.h"

#include <gtest/gtest.h>

using namespace perfbench;
using namespace effective;

namespace {

interp::RunResult compileAndRun(const Program &P, uint64_t &Events,
                                unsigned &Line) {
  TypeContext Types;
  DiagnosticEngine Diags;
  instrument::CompileResult C = instrument::compileMiniC(
      P.Source, Types, Diags, instrument::InstrumentOptions(), P.Name);
  EXPECT_TRUE(C.M && C.BC) << P.Source;
  if (!C.BC)
    return {};
  SessionOptions Options;
  Options.Reporter.Mode = ReportMode::Count;
  Sanitizer Session(Types, Options);
  interp::RunResult R = bytecode::run(*C.BC, Session);
  Events = Session.reporter().numEvents();
  std::vector<ErrorBucket> Buckets = Session.reporter().buckets();
  Line = Buckets.size() == 1 && Buckets[0].Where ? Buckets[0].Where->Line : 0;
  return R;
}

} // namespace

TEST(Corpus, DeterministicPerSeed) {
  std::vector<Program> A = generateCorpus(7), B = generateCorpus(7);
  std::vector<Program> Other = generateCorpus(8);
  ASSERT_EQ(A.size(), B.size());
  ASSERT_EQ(A.size(), Other.size());
  bool Differs = false;
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Source, B[I].Source);
    EXPECT_EQ(A[I].ExpectedExit, B[I].ExpectedExit);
    EXPECT_EQ(A[I].DefectLine, B[I].DefectLine);
    Differs |= A[I].Source != Other[I].Source;
  }
  EXPECT_TRUE(Differs) << "seed 8 produced seed 7's corpus";
}

TEST(Corpus, OneProgramPerDefectKind) {
  for (uint64_t Seed : {1, 2, 3}) {
    unsigned Kinds[4] = {};
    for (const Program &P : generateCorpus(Seed)) {
      ++Kinds[unsigned(P.Seeded)];
      EXPECT_EQ(P.DefectLine != 0, P.Seeded != Defect::None);
    }
    EXPECT_EQ(Kinds[unsigned(Defect::HeapOverflow)], 1u);
    EXPECT_EQ(Kinds[unsigned(Defect::TypeConfusion)], 1u);
    EXPECT_EQ(Kinds[unsigned(Defect::UseAfterFree)], 1u);
  }
}

// Worked by hand:
//  list: weights (i*5)%101 for i<3 are 0, 5, 10 (sum 15); two rounds
//        give 30.
//  funcs: y = 10*2+1 = 21, divisible by 3, so 21+5 = 26; 26 % 1009.
//  global: slots 3, 10, 1 receive 0+0+1, 1+1 and 2+1, weighted by
//          slot+1: 1*4 + 2*11 + 3*2 = 32.
TEST(Corpus, OracleMatchesHandComputedPrograms) {
  struct Case {
    Program P;
    int64_t Want;
  } Cases[] = {
      {renderList({3, 2, 5}), 30},
      {renderFuncs({10, {2}, {1}, {5}}), 26},
      {renderGlobal({3, 1}), 32},
  };
  for (const Case &C : Cases) {
    EXPECT_EQ(C.P.ExpectedExit, C.Want) << C.P.Source;
    uint64_t Events = 0;
    unsigned Line = 0;
    interp::RunResult R = compileAndRun(C.P, Events, Line);
    ASSERT_TRUE(R.Ok) << R.Fault;
    EXPECT_EQ(R.ExitCode, C.Want) << C.P.Source;
    EXPECT_EQ(Events, 0u);
  }
}

TEST(Corpus, CompilerAgreesWithOracleAndDefectsReportOnce) {
  for (const Program &P : generateCorpus(11)) {
    uint64_t Events = 0;
    unsigned Line = 0;
    interp::RunResult R = compileAndRun(P, Events, Line);
    ASSERT_TRUE(R.Ok) << P.Name << ": " << R.Fault;
    EXPECT_EQ(R.ExitCode, P.ExpectedExit) << P.Name;
    EXPECT_EQ(Events, P.Seeded == Defect::None ? 0u : 1u)
        << P.Name << " (" << defectName(P.Seeded) << ")";
    EXPECT_EQ(Line, P.DefectLine) << P.Name;
  }
}

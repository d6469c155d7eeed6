//===- tests/workloads_test.cpp - Workload integration tests --------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Integration tests over the Figure 7-10 workloads: every kernel must
/// produce the same checksum under all four instrumentation policies
/// (same work), full instrumentation must find exactly the seeded
/// issues (and only in the benchmarks the paper lists), and check
/// counters must behave (type checks only under type-checking
/// policies, etc.).
///
//===----------------------------------------------------------------------===//

#include "core/CheckedPtr.h"
#include "instrument/Pipeline.h"
#include "workloads/Harness.h"

#include <gtest/gtest.h>

#include <cstring>
#include <malloc.h>

using namespace effective;
using namespace effective::workloads;

namespace {

class SpecWorkloadTest : public ::testing::TestWithParam<size_t> {
protected:
  const Workload &workload() const {
    return specWorkloads()[GetParam()];
  }
};

std::string specName(const ::testing::TestParamInfo<size_t> &Info) {
  return specWorkloads()[Info.param].Info.Name;
}

} // namespace

TEST_P(SpecWorkloadTest, ChecksumIdenticalAcrossPolicies) {
  const Workload &W = workload();
  RunStats None = runWorkload(W, Variant::None, 1);
  RunStats Type = runWorkload(W, Variant::Type, 1);
  RunStats Bounds = runWorkload(W, Variant::Bounds, 1);
  RunStats Full = runWorkload(W, Variant::Full, 1);
  EXPECT_EQ(None.Checksum, Full.Checksum) << W.Info.Name;
  EXPECT_EQ(Type.Checksum, Full.Checksum) << W.Info.Name;
  EXPECT_EQ(Bounds.Checksum, Full.Checksum) << W.Info.Name;
}

TEST_P(SpecWorkloadTest, FullInstrumentationFindsSeededIssues) {
  const Workload &W = workload();
  RunStats Full = runWorkload(W, Variant::Full, 1);
  EXPECT_EQ(Full.Issues, W.Info.SeededIssues) << W.Info.Name;
}

TEST_P(SpecWorkloadTest, UninstrumentedRunsNoChecks) {
  // The timed rows count no bounds checks, so a zero count would show
  // nothing: the row EFFSAN_WORKLOAD_ENTRIES instantiates must compile
  // no input, cast or bounds check at all.
  using NoneRow = VariantPolicy<Variant::None, false>;
  static_assert(!NoneRow::CheckInputs && !NoneRow::CheckCasts &&
                !NoneRow::CheckBounds);
  const Workload &W = workload();
  RunStats None = runWorkload(W, Variant::None, 1);
  EXPECT_EQ(None.Checks.TypeChecks, 0u) << W.Info.Name;
  EXPECT_EQ(None.Issues, 0u) << W.Info.Name;
}

TEST_P(SpecWorkloadTest, FullInstrumentationChecksEverything) {
  const Workload &W = workload();
  RunStats Full = runCountedWorkload(W, 1);
  EXPECT_GT(Full.Checks.TypeChecks, 0u) << W.Info.Name;
  EXPECT_GT(Full.Checks.BoundsChecks, 0u) << W.Info.Name;
}

TEST_P(SpecWorkloadTest, CountingRowMatchesTimedFullRow) {
  // The timed Full row drops only the bounds check and narrow counts:
  // same work, same reports, same type checks and site-cache traffic.
  const Workload &W = workload();
  RunStats Timed = runWorkload(W, Variant::Full, 1);
  RunStats Counted = runCountedWorkload(W, 1);
  EXPECT_EQ(Timed.Checksum, Counted.Checksum) << W.Info.Name;
  EXPECT_EQ(Timed.Issues, Counted.Issues) << W.Info.Name;
  EXPECT_EQ(Timed.ErrorEvents, Counted.ErrorEvents) << W.Info.Name;
  EXPECT_EQ(Timed.Checks.TypeChecks, Counted.Checks.TypeChecks)
      << W.Info.Name;
  EXPECT_EQ(Timed.Checks.BoundsGets, Counted.Checks.BoundsGets)
      << W.Info.Name;
  EXPECT_EQ(Timed.Checks.LegacyTypeChecks, Counted.Checks.LegacyTypeChecks)
      << W.Info.Name;
  EXPECT_EQ(Timed.Checks.TypeCheckCacheHits,
            Counted.Checks.TypeCheckCacheHits)
      << W.Info.Name;
  EXPECT_EQ(Timed.Checks.TypeCheckCacheMisses,
            Counted.Checks.TypeCheckCacheMisses)
      << W.Info.Name;
  EXPECT_EQ(Timed.Checks.BoundsChecks, 0u) << W.Info.Name;
  EXPECT_EQ(Timed.Checks.BoundsNarrows, 0u) << W.Info.Name;
  EXPECT_GT(Counted.Checks.BoundsChecks, 0u) << W.Info.Name;
}

TEST_P(SpecWorkloadTest, VariantsScaleDownChecking) {
  const Workload &W = workload();
  RunStats Full = runWorkload(W, Variant::Full, 1);
  RunStats Type = runWorkload(W, Variant::Type, 1);
  RunStats Bounds = runWorkload(W, Variant::Bounds, 1);
  // The -type variant performs no bounds checking at all (its timed row
  // counts none either way, so this is checked on the row itself).
  static_assert(!VariantPolicy<Variant::Type, false>::CheckBounds);
  // The -bounds variant never compares types.
  EXPECT_EQ(Bounds.Checks.TypeChecks, 0u) << W.Info.Name;
  EXPECT_GT(Bounds.Checks.BoundsGets, 0u) << W.Info.Name;
  // Full does at least as many type checks as the casts-only variant.
  EXPECT_GE(Full.Checks.TypeChecks, Type.Checks.TypeChecks)
      << W.Info.Name;
}

TEST_P(SpecWorkloadTest, IssuesAreDeterministic) {
  const Workload &W = workload();
  RunStats A = runWorkload(W, Variant::Full, 1);
  RunStats B = runWorkload(W, Variant::Full, 1);
  EXPECT_EQ(A.Issues, B.Issues) << W.Info.Name;
  EXPECT_EQ(A.Checksum, B.Checksum) << W.Info.Name;
  EXPECT_EQ(A.Checks.TypeChecks, B.Checks.TypeChecks) << W.Info.Name;
}

INSTANTIATE_TEST_SUITE_P(AllSpec, SpecWorkloadTest,
                         ::testing::Range<size_t>(0,
                                                  specWorkloads().size()),
                         specName);

//===----------------------------------------------------------------------===//
// Kernels whose result must not depend on what malloc returns
//===----------------------------------------------------------------------===//

namespace {

const Workload &specNamed(const char *Name) {
  for (const Workload &W : specWorkloads())
    if (std::strcmp(W.Info.Name, Name) == 0)
      return W;
  ADD_FAILURE() << "no spec kernel " << Name;
  return specWorkloads().front();
}

} // namespace

TEST(Sphinx3Test, UninstrumentedChecksumIgnoresMallocContents) {
  const Workload &W = specNamed("sphinx3");
  RunStats Full = runWorkload(W, Variant::Full, 1);
  SessionOptions Options;
  Options.Reporter.Mode = ReportMode::Count;
  Sanitizer Session(TypeContext::global(), Options);
  // glibc fills each malloc block with the complement of the perturb
  // byte: 0x42 bytes, so a float read before it is written is 48.56.
  mallopt(M_PERTURB, 0xbd);
  uint64_t None = W.RunNone(Session.runtime(), 1);
  mallopt(M_PERTURB, 0);
  EXPECT_EQ(None, Full.Checksum);
}

TEST(Sphinx3Test, UninstrumentedMultiThreadedRunCompletes) {
  // runWorkloadMT aborts when the threads' checksums differ.
  RunStats None = runWorkloadMT(specNamed("sphinx3"), Variant::None, 1, 4);
  RunStats Full = runWorkload(specNamed("sphinx3"), Variant::Full, 1);
  EXPECT_EQ(None.Checksum, Full.Checksum);
}

//===----------------------------------------------------------------------===//
// Figure 7 aggregate shape
//===----------------------------------------------------------------------===//

TEST(Figure7Shape, CleanBenchmarksMatchPaper) {
  // The paper reports zero issues for mcf, gobmk, hmmer, sjeng,
  // libquantum, omnetpp and astar.
  for (const Workload &W : specWorkloads()) {
    std::string_view Name = W.Info.Name;
    bool PaperClean = Name == "mcf" || Name == "gobmk" ||
                      Name == "hmmer" || Name == "sjeng" ||
                      Name == "libquantum" || Name == "omnetpp" ||
                      Name == "astar";
    EXPECT_EQ(W.Info.SeededIssues == 0, PaperClean) << Name;
  }
}

TEST(Figure7Shape, BoundsChecksOutnumberTypeChecks) {
  // Paper totals: 2193.0 billion type vs 8836.3 billion bounds checks
  // (~4x). Our kernels must reproduce the direction of this ratio.
  uint64_t Type = 0, Bounds = 0;
  for (const Workload &W : specWorkloads()) {
    RunStats Full = runCountedWorkload(W, 1);
    Type += Full.Checks.TypeChecks;
    Bounds += Full.Checks.BoundsChecks;
  }
  ASSERT_GT(Type, 0u);
  EXPECT_GT(Bounds, Type);
}

TEST(Figure7Shape, LegacyChecksAreRare) {
  // Paper: only ~1.1% of type checks were on legacy pointers.
  uint64_t Type = 0, Legacy = 0;
  for (const Workload &W : specWorkloads()) {
    RunStats Full = runWorkload(W, Variant::Full, 1);
    Type += Full.Checks.TypeChecks;
    Legacy += Full.Checks.LegacyTypeChecks;
  }
  ASSERT_GT(Type, 0u);
  EXPECT_LT(static_cast<double>(Legacy) / Type, 0.05);
}

//===----------------------------------------------------------------------===//
// Figure 9 shape
//===----------------------------------------------------------------------===//

TEST(Figure9Shape, MemoryOverheadIsModest) {
  uint64_t None = 0, Full = 0;
  for (const Workload &W : specWorkloads()) {
    None += runWorkload(W, Variant::None, 1).PeakHeapBytes;
    Full += runWorkload(W, Variant::Full, 1).PeakHeapBytes;
  }
  ASSERT_GT(None, 0u);
  double Overhead = static_cast<double>(Full) / None;
  EXPECT_GT(Overhead, 1.0) << "metadata must cost something";
  EXPECT_LT(Overhead, 1.8) << "paper reports ~12%, far below shadow-"
                              "memory tools (~237%)";
}

//===----------------------------------------------------------------------===//
// Browser workloads (Figure 10)
//===----------------------------------------------------------------------===//

namespace {

class BrowserWorkloadTest : public ::testing::TestWithParam<size_t> {};

std::string browserName(const ::testing::TestParamInfo<size_t> &Info) {
  std::string Name = browserWorkloads()[Info.param].Info.Name;
  for (char &C : Name)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

} // namespace

TEST_P(BrowserWorkloadTest, ChecksumIdenticalAcrossPolicies) {
  const Workload &W = browserWorkloads()[GetParam()];
  RunStats None = runWorkload(W, Variant::None, 1);
  RunStats Full = runWorkload(W, Variant::Full, 1);
  EXPECT_EQ(None.Checksum, Full.Checksum) << W.Info.Name;
  EXPECT_EQ(Full.Issues, W.Info.SeededIssues) << W.Info.Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBrowser, BrowserWorkloadTest,
    ::testing::Range<size_t>(0, browserWorkloads().size()), browserName);

//===----------------------------------------------------------------------===//
// The Figure 8 variant table
//===----------------------------------------------------------------------===//

namespace {

/// One Figure 8 variant as every layer must see it: the CheckedPtr
/// schema switches, the display name, and the session policy.
struct PinnedVariant {
  instrument::Variant V;
  bool CheckInputs, CheckCasts, CheckBounds, StoresBounds, NarrowFields;
  const char *Name;
  CheckPolicy Policy;
};

constexpr PinnedVariant Pinned[] = {
    {instrument::Variant::None, false, false, false, false, false,
     "Uninstrumented", CheckPolicy::Off},
    {instrument::Variant::Type, false, true, false, false, false,
     "EffectiveSan-type", CheckPolicy::TypeOnly},
    {instrument::Variant::Bounds, true, false, true, true, false,
     "EffectiveSan-bounds", CheckPolicy::BoundsOnly},
    {instrument::Variant::Full, true, true, true, true, true,
     "EffectiveSan (full)", CheckPolicy::Full},
};

template <typename P> void expectPinned(const PinnedVariant &E) {
  SCOPED_TRACE(E.Name);
  EXPECT_EQ(P::CheckInputs, E.CheckInputs);
  EXPECT_EQ(P::CheckCasts, E.CheckCasts);
  EXPECT_EQ(P::CheckBounds, E.CheckBounds);
  EXPECT_EQ(P::StoresBounds, E.StoresBounds);
  EXPECT_EQ(P::NarrowFields, E.NarrowFields);
  EXPECT_EQ(std::string_view(P::name()), E.Name);
  EXPECT_EQ(std::string_view(variantName(E.V)), E.Name);
  // The spellings the benchmark harness drives the workloads with.
  PolicyKind Kind = static_cast<PolicyKind>(E.V);
  EXPECT_STREQ(policyKindName(Kind), E.Name);
  EXPECT_EQ(checkPolicyFor(Kind), E.Policy);
  EXPECT_EQ(instrument::instrumentOptionsFor(checkPolicyFor(Kind)).V, E.V);
}

} // namespace

TEST(VariantTable, PinsEveryLayersViewOfTheFigure8Variants) {
  expectPinned<NonePolicy>(Pinned[0]);
  expectPinned<TypePolicy>(Pinned[1]);
  expectPinned<BoundsPolicy>(Pinned[2]);
  expectPinned<FullPolicy>(Pinned[3]);
  // The checks must execute to be counted, so CountOnly instruments as
  // Full.
  EXPECT_EQ(instrument::instrumentOptionsFor(CheckPolicy::CountOnly).V,
            instrument::Variant::Full);
}

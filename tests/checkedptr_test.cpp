//===- tests/checkedptr_test.cpp - Figure 3 schema library tests ----------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Exercises CheckedPtr as the Figure 3 instrumentation schema: the
/// paper's Figure 4 length/sum functions, the account sub-object
/// overflow, cast checking, the per-policy check counts, exact counts
/// from threads sharing one session, and the per-thread memo that
/// resolves each static type once (staticTypeOf).
///
//===----------------------------------------------------------------------===//

#include "api/Sanitizer.h"
#include "core/CheckedPtr.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <new>
#include <thread>
#include <vector>

using namespace effective;

namespace cp_test {

struct Account {
  int Number[8];
  float Balance;
};

struct Node {
  int Value;
  Node *Next;
};

struct Base {
  int X;
  float Y;
};

struct Derived {
  int X;
  float Y;
  char Z;
};

} // namespace cp_test

EFFECTIVE_REFLECT(cp_test::Account, Number, Balance);
EFFECTIVE_REFLECT(cp_test::Node, Value, Next);
EFFECTIVE_REFLECT(cp_test::Base, X, Y);
EFFECTIVE_REFLECT(cp_test::Derived, X, Y, Z);

namespace {

class CheckedPtrTest : public ::testing::Test {
protected:
  CheckedPtrTest() : RT(Ctx, quietOptions()), Scope(RT) {}

  static RuntimeOptions quietOptions() {
    RuntimeOptions Options;
    Options.Reporter.Mode = ReportMode::Count;
    return Options;
  }

  TypeContext Ctx;
  Runtime RT;
  RuntimeScope Scope;
};

/// The paper's Figure 4 sum() under a policy: one type check on entry,
/// one bounds check per element access.
template <typename Policy>
int checkedSum(CheckedPtr<int, Policy> A, int Len) {
  int Sum = 0;
  for (int I = 0; I < Len; ++I) {
    CheckedPtr<int, Policy> Tmp = A + I; // rule (f)
    Sum += *Tmp;                         // rule (g)
  }
  return Sum;
}

/// The paper's Figure 4 length() under a policy: a type check per node.
template <typename Policy>
int checkedLength(CheckedPtr<cp_test::Node, Policy> Xs) {
  int Len = 0;
  while (Xs.raw() != nullptr) {
    ++Len;
    auto Tmp = Xs.template field(&cp_test::Node::Next); // rule (e)
    Xs = CheckedPtr<cp_test::Node, Policy>::input(*Tmp); // rules (c)+(a)
  }
  return Len;
}

} // namespace

TEST_F(CheckedPtrTest, Figure4SumCheckCounts) {
  auto A = allocateChecked<int, FullPolicy>(RT, 100);
  for (int I = 0; I < 100; ++I)
    A[I] = I;
  RT.counters().reset();
  auto P = CheckedPtr<int, FullPolicy>::input(A.raw());
  int Sum = checkedSum(P, 100);
  EXPECT_EQ(Sum, 99 * 100 / 2);
  auto C = RT.counters().snapshot();
  EXPECT_EQ(C.TypeChecks, 1u) << "sum needs exactly one type check";
  EXPECT_EQ(C.BoundsChecks, 100u) << "one bounds check per element";
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  deallocateChecked(RT, A);
}

TEST_F(CheckedPtrTest, UncountedRowChecksAndReportsWithoutCounting) {
  // The timed Figure 8 row: the same checks and reports as FullPolicy,
  // with type checks counted and bounds checks and narrows not.
  using Timed = VariantPolicy<Variant::Full, false>;
  static_assert(!Timed::Counts && FullPolicy::Counts);
  auto A = allocateChecked<cp_test::Node, Timed>(RT, 4);
  RT.counters().reset();
  auto P = CheckedPtr<cp_test::Node, Timed>::input(A.raw());
  P[3].Value = 1;
  auto V = P.field(&cp_test::Node::Value);
  EXPECT_EQ(V.bounds().Hi - V.bounds().Lo, sizeof(int));
  *V = 2;
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  (void)P[4];     // One past the array.
  (void)*(V + 1); // Value into Next.
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::BoundsError), 2u);
  auto C = RT.counters().snapshot();
  EXPECT_EQ(C.TypeChecks, 1u);
  EXPECT_EQ(C.BoundsChecks, 0u);
  EXPECT_EQ(C.BoundsNarrows, 0u);
  deallocateChecked(RT, A);
}

TEST_F(CheckedPtrTest, Figure4LengthCheckCounts) {
  // Build a 10-node list.
  std::vector<CheckedPtr<cp_test::Node, FullPolicy>> Nodes;
  for (int I = 0; I < 10; ++I)
    Nodes.push_back(allocateChecked<cp_test::Node, FullPolicy>(RT));
  for (int I = 0; I < 10; ++I) {
    Nodes[I]->Value = I;
    Nodes[I]->Next = I + 1 < 10 ? Nodes[I + 1].raw() : nullptr;
  }
  RT.counters().reset();
  auto Head = CheckedPtr<cp_test::Node, FullPolicy>::input(Nodes[0].raw());
  EXPECT_EQ(checkedLength(Head), 10);
  auto C = RT.counters().snapshot();
  // Input check for the head plus one per loaded next pointer; the null
  // tail pointer is not checked.
  EXPECT_EQ(C.TypeChecks, 1u + 9u)
      << "length is O(N) type checks, one per node";
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  for (auto &N : Nodes)
    deallocateChecked(RT, N);
}

TEST_F(CheckedPtrTest, AccountSubObjectOverflowCaught) {
  auto Acc = allocateChecked<cp_test::Account, FullPolicy>(RT);
  auto Number = Acc.field(&cp_test::Account::Number);
  // In-bounds writes succeed...
  for (int I = 0; I < 8; ++I)
    Number[I] = I;
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  // ...and the classic overflow into balance is caught.
  Number[8] = 42;
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::BoundsError), 1u);
  deallocateChecked(RT, Acc);
}

TEST_F(CheckedPtrTest, CastConfusionCaught) {
  auto Acc = allocateChecked<cp_test::Account, FullPolicy>(RT);
  // (float *)acc: account begins with int[8]; float does not match.
  auto F = CheckedPtr<float, FullPolicy>::fromCast(Acc);
  (void)F;
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::TypeError), 1u);
  deallocateChecked(RT, Acc);
}

TEST_F(CheckedPtrTest, PrefixStructConfusionCaught) {
  // perlbench/povray-style struct-prefix "inheritance": Base and
  // Derived share a prefix but are distinct types ([16] 6.2.7).
  auto B = allocateChecked<cp_test::Base, FullPolicy>(RT);
  auto D = CheckedPtr<cp_test::Derived, FullPolicy>::fromCast(B);
  (void)D;
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::TypeError), 1u);
  deallocateChecked(RT, B);
}

TEST_F(CheckedPtrTest, UseAfterFreeThroughCheckedPtr) {
  auto P = allocateChecked<int, FullPolicy>(RT, 4);
  deallocateChecked(RT, P);
  auto Q = CheckedPtr<int, FullPolicy>::input(P.raw());
  (void)Q;
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::UseAfterFree), 1u);
}

TEST_F(CheckedPtrTest, EscapeChecksBounds) {
  auto A = allocateChecked<int, FullPolicy>(RT, 4);
  auto P = A + 2;
  EXPECT_EQ(P.escape(), A.raw() + 2);
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  auto Bad = A + 100;
  Bad.escape();
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::BoundsError), 1u);
  deallocateChecked(RT, A);
}

TEST_F(CheckedPtrTest, BoundsPolicySkipsTypeChecks) {
  auto A = allocateChecked<cp_test::Account, BoundsPolicy>(RT);
  auto P = CheckedPtr<float, BoundsPolicy>::fromCast(A);
  *P = 1.0f; // Access within the allocation: no error.
  auto C = RT.counters().snapshot();
  EXPECT_EQ(C.TypeChecks, 0u);
  EXPECT_EQ(C.BoundsGets, 1u);
  EXPECT_EQ(RT.reporter().numIssues(), 0u)
      << "bounds-only cannot see type confusion";
  // But an object-bounds overflow is still caught.
  auto End = P + sizeof(cp_test::Account) / sizeof(float);
  *End = 2.0f;
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::BoundsError), 1u);
  deallocateChecked(RT, A);
}

TEST_F(CheckedPtrTest, TypePolicyChecksCastsOnly) {
  auto A = allocateChecked<cp_test::Account, TypePolicy>(RT);
  RT.counters().reset();
  // Inputs are not checked under EffectiveSan-type...
  auto In = CheckedPtr<cp_test::Account, TypePolicy>::input(A.raw());
  EXPECT_EQ(RT.counters().snapshot().TypeChecks, 0u);
  // ...but casts are.
  auto F = CheckedPtr<float, TypePolicy>::fromCast(In);
  (void)F;
  auto C = RT.counters().snapshot();
  EXPECT_EQ(C.TypeChecks, 1u);
  EXPECT_EQ(C.BoundsChecks, 0u);
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::TypeError), 1u);
  deallocateChecked(RT, A);
}

TEST_F(CheckedPtrTest, NonePolicyDoesNothing) {
  auto A = allocateChecked<int, NonePolicy>(RT, 8);
  RT.counters().reset();
  auto P = CheckedPtr<int, NonePolicy>::input(A.raw());
  int Sum = checkedSum(P, 8);
  (void)Sum;
  auto C = RT.counters().snapshot();
  EXPECT_EQ(C.TypeChecks, 0u);
  EXPECT_EQ(C.BoundsChecks, 0u);
  EXPECT_EQ(C.BoundsNarrows, 0u);
  deallocateChecked(RT, A);
}

TEST_F(CheckedPtrTest, FieldNarrowingChainsThroughStructs) {
  auto N = allocateChecked<cp_test::Node, FullPolicy>(RT);
  N->Value = 7;
  N->Next = nullptr;
  auto V = N.field(&cp_test::Node::Value);
  EXPECT_EQ(*V, 7);
  // The narrowed bounds cover only Value.
  EXPECT_EQ(V.bounds().Hi - V.bounds().Lo, sizeof(int));
  // Overflowing from Value into Next is caught.
  *(V + 1) = 1;
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::BoundsError), 1u);
  deallocateChecked(RT, N);
}

TEST_F(CheckedPtrTest, RuntimeScopeBindsCurrentRuntime) {
  EXPECT_EQ(&currentRuntime(), &RT);
  {
    Runtime Other(Ctx, quietOptions());
    RuntimeScope Inner(Other);
    EXPECT_EQ(&currentRuntime(), &Other);
  }
  EXPECT_EQ(&currentRuntime(), &RT);
}

namespace {

/// The counts a run is deterministic in. Cache hits and misses are not:
/// threads sharing a session share its site cache.
struct KernelCounts {
  uint64_t TypeChecks, BoundsChecks, BoundsNarrows, BoundsGets,
      LegacyTypeChecks, CacheProbes;

  explicit KernelCounts(const CheckCounters::Snapshot &C)
      : TypeChecks(C.TypeChecks), BoundsChecks(C.BoundsChecks),
        BoundsNarrows(C.BoundsNarrows), BoundsGets(C.BoundsGets),
        LegacyTypeChecks(C.LegacyTypeChecks),
        CacheProbes(C.TypeCheckCacheHits + C.TypeCheckCacheMisses) {}
};

const workloads::Workload &specKernel(const char *Name) {
  for (const workloads::Workload &W : workloads::specWorkloads())
    if (std::strcmp(W.Info.Name, Name) == 0)
      return W;
  ADD_FAILURE() << "no spec kernel " << Name;
  return workloads::specWorkloads().front();
}

SessionOptions quietSession() {
  SessionOptions Options;
  Options.Reporter.Mode = ReportMode::Count;
  return Options;
}

} // namespace

TEST(CheckedPtrSharedSessionTest, ThreadCountsMergeExactly) {
  constexpr unsigned NumThreads = 4;
  const workloads::Workload &W = specKernel("mcf");

  // The counting Full build: the timed entries count no bounds checks.
  Sanitizer Single(TypeContext::global(), quietSession());
  uint64_t Sum;
  {
    SanitizerScope Scope(Single);
    Sum = W.RunCounted(Single.runtime(), 1);
  }
  KernelCounts One(Single.counters().snapshot());
  ASSERT_GT(One.BoundsChecks, 0u);
  ASSERT_GT(One.TypeChecks, 0u);

  Sanitizer Shared(TypeContext::global(), quietSession());
  Runtime &RT = Shared.runtime();
  std::vector<uint64_t> Sums(NumThreads, 0);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < NumThreads; ++I)
    Threads.emplace_back([&, I] {
      RuntimeScope Scope(RT);
      Sums[I] = W.RunCounted(RT, 1);
    });
  for (std::thread &T : Threads)
    T.join();

  for (uint64_t S : Sums)
    EXPECT_EQ(S, Sum);
  KernelCounts All(RT.counters().snapshot());
  EXPECT_EQ(All.TypeChecks, NumThreads * One.TypeChecks);
  EXPECT_EQ(All.BoundsChecks, NumThreads * One.BoundsChecks);
  EXPECT_EQ(All.BoundsNarrows, NumThreads * One.BoundsNarrows);
  EXPECT_EQ(All.BoundsGets, NumThreads * One.BoundsGets);
  EXPECT_EQ(All.LegacyTypeChecks, NumThreads * One.LegacyTypeChecks);
  EXPECT_EQ(All.CacheProbes, NumThreads * One.CacheProbes);
  EXPECT_EQ(Shared.issuesFound(), Single.issuesFound());
}

TEST(CheckedPtrSharedSessionTest, UnscopedChecksCountIntoTheDefault) {
  TypeContext Ctx;
  RuntimeOptions Options;
  Options.Reporter.Mode = ReportMode::Count;
  Runtime RT(Ctx, Options);
  auto A = allocateChecked<int, FullPolicy>(RT, 4);
  Runtime *Prev = setDefaultRuntime(&RT);
  std::thread Worker([&] {
    // No scope on this thread: the checks count into the injected
    // default runtime, in this thread's own block.
    auto P = CheckedPtr<int, FullPolicy>::input(A.raw());
    P[0] = 1;
    P[3] = 2;
  });
  Worker.join();
  setDefaultRuntime(Prev);
  CheckCounters::Snapshot C = RT.counters().snapshot();
  EXPECT_EQ(C.TypeChecks, 1u);
  EXPECT_EQ(C.BoundsChecks, 2u);
  deallocateChecked(RT, A);
}

//===----------------------------------------------------------------------===//
// Static-type memo: a type check resolves T without a lock after a
// thread's first use, and never against a dead context's types.
//===----------------------------------------------------------------------===//

TEST(StaticTypeMemoTest, ContextRebuiltAtSameAddressResolvesAfresh) {
  RuntimeOptions Options;
  Options.Reporter.Mode = ReportMode::Count;
  alignas(TypeContext) unsigned char Storage[sizeof(TypeContext)];

  TypeContext *Old = new (Storage) TypeContext;
  {
    Runtime RT(*Old, Options);
    RuntimeScope Scope(RT);
    auto P = allocateChecked<cp_test::Account, FullPolicy>(RT);
    CheckedPtr<cp_test::Account, FullPolicy>::input(P.raw());
    EXPECT_EQ(RT.reporter().numIssues(), 0u);
    deallocateChecked(RT, P);
  }
  Old->~TypeContext();

  // Same address, new context: this thread's memo for Account is warm,
  // but it belongs to the dead context.
  TypeContext *New = new (Storage) TypeContext;
  ASSERT_EQ(static_cast<void *>(New), static_cast<void *>(Old));
  {
    Runtime RT(*New, Options);
    RuntimeScope Scope(RT);
    size_t Before = New->numTypes();
    auto P = allocateChecked<cp_test::Account, FullPolicy>(RT);
    EXPECT_GT(New->numTypes(), Before) << "Account was not rebuilt";
    const TypeInfo *Type = RT.dynamicTypeOf(P.raw());
    EXPECT_EQ(Type, TypeOf<cp_test::Account>::get(*New));
    EXPECT_EQ(&Type->context(), New);
    CheckedPtr<cp_test::Account, FullPolicy>::input(P.raw());
    EXPECT_EQ(RT.reporter().numIssues(), 0u);
    EXPECT_EQ(RT.counters().snapshot().TypeChecks, 1u);
    deallocateChecked(RT, P);
  }
  New->~TypeContext();
}

TEST(StaticTypeMemoTest, ConcurrentFirstUseAgreesOnOneType) {
  constexpr unsigned NumThreads = 8;
  using Node = cp_test::Node;

  // How many types one resolution of Node and Node * creates.
  TypeContext Reference;
  size_t ReferenceBefore = Reference.numTypes();
  TypeOf<Node *>::get(Reference);
  size_t Created = Reference.numTypes() - ReferenceBefore;

  TypeContext Ctx;
  Sanitizer Session(Ctx, quietSession());
  Runtime &RT = Session.runtime();
  size_t Before = Ctx.numTypes();
  std::vector<const TypeInfo *> Records(NumThreads), Pointers(NumThreads);
  std::latch Start(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < NumThreads; ++I)
    Threads.emplace_back([&, I] {
      RuntimeScope Scope(RT);
      Start.arrive_and_wait();
      // First use of Node and Node * on this context, on every thread
      // at once.
      auto Obj = allocateChecked<Node, FullPolicy>(RT);
      auto Slot = allocateChecked<Node *, FullPolicy>(RT);
      *Slot = Obj.raw();
      auto In = CheckedPtr<Node, FullPolicy>::input(*Slot);
      auto SlotIn = CheckedPtr<Node *, FullPolicy>::input(Slot.raw());
      In->Value = static_cast<int>(I);
      Records[I] = staticTypeOf<Node>(Ctx);
      Pointers[I] = staticTypeOf<Node *>(Ctx);
      deallocateChecked(RT, SlotIn);
      deallocateChecked(RT, In);
    });
  for (std::thread &T : Threads)
    T.join();

  for (unsigned I = 0; I < NumThreads; ++I) {
    EXPECT_EQ(Records[I], Records[0]);
    EXPECT_EQ(Pointers[I], Pointers[0]);
  }
  EXPECT_EQ(Records[0], TypeOf<Node>::get(Ctx));
  EXPECT_EQ(Pointers[0], Ctx.getPointer(Records[0]));
  EXPECT_EQ(Ctx.numTypes() - Before, Created);
  EXPECT_EQ(Session.issuesFound(), 0u);
  EXPECT_EQ(RT.counters().snapshot().TypeChecks, 2u * NumThreads);
}

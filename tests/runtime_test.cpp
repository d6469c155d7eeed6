//===- tests/runtime_test.cpp - Runtime (type_check et al.) tests ---------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Covers Figure 6 (type_malloc / type_check), Example 5, the FREE type
/// (use-after-free / double-free / reuse-after-free semantics), legacy
/// pointers, coercions, bucketing and the counting/logging modes.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"

#include "core/Layout.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace effective;

namespace {

class RuntimeTest : public ::testing::Test {
protected:
  RuntimeTest() : RT(Ctx, quietOptions()) {
    // The paper's Example 2 types with its padding-free layout.
    S = Ctx.createRecord(TypeKind::Struct, "S");
    T = Ctx.createRecord(TypeKind::Struct, "T");
    FieldInfo SFields[] = {
        {"a", Ctx.getArray(Ctx.getInt(), 3), 0, false},
        {"s", Ctx.getPointer(Ctx.getChar()), 12, false},
    };
    Ctx.defineRecord(S, SFields, 20, 4);
    FieldInfo TFields[] = {
        {"f", Ctx.getFloat(), 0, false},
        {"t", S, 4, false},
    };
    Ctx.defineRecord(T, TFields, 24, 4);
  }

  static RuntimeOptions quietOptions() {
    RuntimeOptions Options;
    Options.Reporter.Mode = ReportMode::Count;
    return Options;
  }

  TypeContext Ctx;
  Runtime RT;
  RecordType *S = nullptr;
  RecordType *T = nullptr;
};

} // namespace

//===----------------------------------------------------------------------===//
// Typed allocation
//===----------------------------------------------------------------------===//

TEST_F(RuntimeTest, AllocateBindsTypeAndSize) {
  void *P = RT.allocate(100 * sizeof(int), Ctx.getInt());
  const MetaHeader *Meta = RT.metaOf(P);
  ASSERT_NE(Meta, nullptr);
  EXPECT_EQ(Meta->Type, Ctx.getInt());
  EXPECT_EQ(Meta->Size, 100 * sizeof(int));
  EXPECT_EQ(RT.dynamicTypeOf(P), Ctx.getInt());
  Bounds B = RT.allocationBounds(P);
  EXPECT_EQ(B.Lo, reinterpret_cast<uintptr_t>(P));
  EXPECT_EQ(B.Hi - B.Lo, 100 * sizeof(int));
  RT.deallocate(P);
}

TEST_F(RuntimeTest, MetaIsInvisibleToTheObject) {
  // Writing the full object must not corrupt the META header.
  char *P = static_cast<char *>(RT.allocate(64, Ctx.getChar()));
  std::memset(P, 0xff, 64);
  EXPECT_EQ(RT.dynamicTypeOf(P), Ctx.getChar());
  EXPECT_EQ(RT.metaOf(P)->Size, 64u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, CallocZeroes) {
  int *P = static_cast<int *>(RT.allocateZeroed(16, sizeof(int),
                                                Ctx.getInt()));
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(P[I], 0) << I;
  RT.deallocate(P);
}

TEST_F(RuntimeTest, ReallocCopiesAndRebinds) {
  int *P = static_cast<int *>(RT.allocate(4 * sizeof(int), Ctx.getInt()));
  for (int I = 0; I < 4; ++I)
    P[I] = I + 1;
  auto *Q = static_cast<int *>(
      RT.reallocate(P, 100 * sizeof(int), Ctx.getInt()));
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(Q[I], I + 1) << I;
  EXPECT_EQ(RT.metaOf(Q)->Size, 100 * sizeof(int));
  // The old block is now FREE.
  EXPECT_TRUE(RT.dynamicTypeOf(P)->isFree());
  RT.deallocate(Q);
}

//===----------------------------------------------------------------------===//
// type_check: Example 5 and friends
//===----------------------------------------------------------------------===//

TEST_F(RuntimeTest, Example5InteriorPointerCheck) {
  // Let p point to an object of type T; q = p + 12.
  char *P = static_cast<char *>(RT.allocate(24, T));
  char *Q = P + 12;
  // type_check(q, int[]) matches <int[3], 8>: bounds p+4 .. p+16.
  Bounds B = RT.typeCheck(Q, Ctx.getInt());
  EXPECT_EQ(B.Lo, reinterpret_cast<uintptr_t>(P) + 4);
  EXPECT_EQ(B.Hi, reinterpret_cast<uintptr_t>(P) + 16);
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  // type_check(q, double[]) fails: no matching sub-object.
  Bounds W = RT.typeCheck(Q, Ctx.getDouble());
  EXPECT_TRUE(W.isWide());
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::TypeError), 1u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, CheckAtBaseReturnsAllocationBounds) {
  char *P = static_cast<char *>(RT.allocate(10 * 24, T)); // T[10]
  Bounds B = RT.typeCheck(P, T);
  EXPECT_EQ(B.Lo, reinterpret_cast<uintptr_t>(P));
  EXPECT_EQ(B.Hi, reinterpret_cast<uintptr_t>(P) + 10 * 24);
  // Element 7 also matches with full array bounds (T[] is incomplete).
  Bounds B7 = RT.typeCheck(P + 7 * 24, T);
  EXPECT_EQ(B7, B);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, SubObjectBoundsStopOverflow) {
  // The introduction's account example: an overflow of number[8] into
  // balance must be stopped by the narrowed bounds.
  RecordType *Account = RecordBuilder(Ctx, TypeKind::Struct, "account")
                            .addField("number", Ctx.getArray(Ctx.getInt(), 8))
                            .addField("balance", Ctx.getFloat())
                            .finish();
  char *P = static_cast<char *>(RT.allocate(Account->size(), Account));
  Bounds B = RT.typeCheck(P, Ctx.getInt()); // int* into number[8].
  EXPECT_EQ(B.Hi - B.Lo, 8 * sizeof(int))
      << "bounds must cover number[8] only, not balance";
  EXPECT_TRUE(B.contains(P + 7 * sizeof(int), sizeof(int)));
  EXPECT_FALSE(B.contains(P + 8 * sizeof(int), sizeof(int)))
      << "number[8] aliases balance and must be out of bounds";
  RT.boundsCheck(P + 8 * sizeof(int), sizeof(int), B);
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::BoundsError), 1u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, OneElementAllocationEndPointer) {
  char *P = static_cast<char *>(RT.allocate(24, T));
  // One-past-the-end pointer may be formed and checked, but any access
  // through it must fail the bounds check.
  Bounds B = RT.typeCheck(P + 24, T);
  EXPECT_EQ(RT.reporter().numIssues(), 0u)
      << "one-past-the-end is not an error by itself";
  EXPECT_FALSE(B.contains(P + 24, 1));
  RT.deallocate(P);
}

TEST_F(RuntimeTest, PointerOutsideAllocationReports) {
  char *P = static_cast<char *>(RT.allocate(24, T));
  // Far out-of-bounds input pointer (still within the low-fat region of
  // another block would be different; here beyond the alloc size but
  // within the block's size class).
  RT.typeCheck(P + 30, Ctx.getInt());
  EXPECT_GE(RT.reporter().numIssues(ErrorKind::BoundsError), 1u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, LegacyPointersGetWideBounds) {
  int Local[4] = {0, 1, 2, 3};
  Bounds B = RT.typeCheck(&Local[0], Ctx.getFloat());
  EXPECT_TRUE(B.isWide());
  EXPECT_EQ(RT.reporter().numIssues(), 0u)
      << "legacy pointers are never type errors";
  auto C = RT.counters().snapshot();
  EXPECT_EQ(C.LegacyTypeChecks, 1u);
  EXPECT_EQ(C.TypeChecks, 1u);
}

TEST_F(RuntimeTest, UntypedAllocationGetsWideBounds) {
  void *P = RT.allocate(64, nullptr);
  Bounds B = RT.typeCheck(P, Ctx.getInt());
  EXPECT_TRUE(B.isWide());
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, UnissuedSpanBlockReadsAsUntyped) {
  // The second object of a class starts a span: the heap has carved
  // the blocks after it, but not handed them out. Their headers are
  // fresh zero memory, so a pointer into one (here one past the second
  // object's block) is a low-fat pointer to an untyped block: wide
  // bounds and no report, the answer legacy gets.
  void *First = RT.allocate(4 * sizeof(int), Ctx.getInt());
  void *Second = RT.allocate(4 * sizeof(int), Ctx.getInt());
  lowfat::LowFatHeap &Heap = RT.heap();
  char *Base = static_cast<char *>(Heap.allocationBase(Second));
  char *Next = Base + Heap.allocationSize(Base);
  ASSERT_TRUE(Heap.isLowFat(Next)) << "the span's next block is carved";
  for (char *P : {Next, Next + sizeof(MetaHeader), Next + 20}) {
    EXPECT_TRUE(RT.typeCheck(P, Ctx.getInt()).isWide());
    EXPECT_TRUE(RT.typeCheck(P, T).isWide());
    EXPECT_TRUE(RT.boundsGet(P).isWide());
  }
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  CheckCounters::Snapshot C = RT.counters().snapshot();
  EXPECT_EQ(C.TypeChecks, 6u);
  EXPECT_EQ(C.TypeCheckCacheHits + C.TypeCheckCacheMisses +
                C.LegacyTypeChecks,
            C.TypeChecks);
  RT.deallocate(Second);
  RT.deallocate(First);
}

TEST_F(RuntimeTest, FreeOfAnUnissuedSpanBlockIsRefused) {
  // A wild free of the block one past a span's newest block (carved,
  // never handed out, META still zero) reports and leaves the block
  // alone: pushed into a magazine it would be issued twice, once from
  // there and once from the span.
  void *First = RT.allocate(4 * sizeof(int), Ctx.getInt());
  void *Second = RT.allocate(4 * sizeof(int), Ctx.getInt());
  lowfat::LowFatHeap &Heap = RT.heap();
  char *Base = static_cast<char *>(Heap.allocationBase(Second));
  char *Next = Base + Heap.allocationSize(Base);
  ASSERT_TRUE(Heap.isLowFat(Next));
  uint64_t Frees = Heap.stats().NumFrees;
  RT.deallocate(Next + sizeof(MetaHeader));
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::DoubleFree), 1u);
  EXPECT_EQ(Heap.stats().NumFrees, Frees);

  std::set<void *> Issued{First, Second};
  std::vector<void *> More;
  for (int I = 0; I < 8; ++I) {
    More.push_back(RT.allocate(4 * sizeof(int), Ctx.getInt()));
    EXPECT_TRUE(Issued.insert(More.back()).second) << "block " << I;
  }
  EXPECT_EQ(More[0], Next + sizeof(MetaHeader));

  // An untyped zero-byte object is not mistaken for one: it frees.
  void *Empty = RT.allocate(0, nullptr);
  ASSERT_NE(Empty, nullptr);
  RT.deallocate(Empty);
  EXPECT_EQ(RT.reporter().numIssues(), 1u);
  for (void *P : More)
    RT.deallocate(P);
  RT.deallocate(Second);
  RT.deallocate(First);
}

TEST_F(RuntimeTest, OverflowingSizesReturnNullWithOneReport) {
  // Sizes whose META-padded block or Count * Size product wraps past
  // SIZE_MAX are refused like an exhausted heap, by the heap, the typed
  // stack and the globals alike: null, one resource-exhausted event
  // each, never a small block with huge bounds.
  const TypeInfo *Int = Ctx.getInt();
  EXPECT_EQ(RT.allocate(SIZE_MAX - 8, Int), nullptr);
  EXPECT_EQ(RT.reporter().numEvents(), 1u);
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::ResourceExhausted), 1u);
  EXPECT_EQ(RT.allocate(SIZE_MAX, Int), nullptr);
  EXPECT_EQ(RT.reporter().numEvents(), 2u);
  EXPECT_EQ(RT.allocateZeroed(SIZE_MAX / 2, 4, Int), nullptr);
  EXPECT_EQ(RT.reporter().numEvents(), 3u);
  EXPECT_EQ(RT.allocateZeroed(size_t(1) << 33, size_t(1) << 33, Int),
            nullptr);
  EXPECT_EQ(RT.reporter().numEvents(), 4u);
  size_t Mark = RT.stackMark();
  EXPECT_EQ(RT.stackAllocate(SIZE_MAX - 8, Int, /*Escapes=*/false), nullptr);
  RT.stackRelease(Mark);
  EXPECT_EQ(RT.globalAllocate(SIZE_MAX - 8, Int, "huge"), nullptr);
  EXPECT_EQ(RT.reporter().numEvents(), 6u);

  // A refused realloc leaves the old block live and intact.
  int *P = static_cast<int *>(RT.allocate(4 * sizeof(int), Int));
  ASSERT_NE(P, nullptr);
  P[3] = 42;
  EXPECT_EQ(RT.reallocate(P, SIZE_MAX - 8, Int), nullptr);
  EXPECT_EQ(RT.reporter().numEvents(), 7u);
  EXPECT_EQ(RT.dynamicTypeOf(P), Int);
  EXPECT_EQ(P[3], 42);
  EXPECT_EQ(RT.reporter().numIssues(),
            RT.reporter().numIssues(ErrorKind::ResourceExhausted));
  RT.deallocate(P);
}

//===----------------------------------------------------------------------===//
// Coercions
//===----------------------------------------------------------------------===//

TEST_F(RuntimeTest, CharCastResetsBoundsToAllocation) {
  char *P = static_cast<char *>(RT.allocate(24, T));
  Bounds B = RT.typeCheck(P + 4, Ctx.getChar());
  EXPECT_EQ(B.Lo, reinterpret_cast<uintptr_t>(P));
  EXPECT_EQ(B.Hi, reinterpret_cast<uintptr_t>(P) + 24);
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, CharBufferCoercesToAnyType) {
  // An allocation first used as char[] may later be read as any type
  // (the paper's second hash table lookup).
  char *P = static_cast<char *>(RT.allocate(64, Ctx.getChar()));
  Bounds B = RT.typeCheck(P + 8, Ctx.getInt());
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  EXPECT_EQ(B.Lo, reinterpret_cast<uintptr_t>(P));
  EXPECT_EQ(B.Hi, reinterpret_cast<uintptr_t>(P) + 64);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, VoidPointerCoercions) {
  RecordType *Holder = RecordBuilder(Ctx, TypeKind::Struct, "holder")
                           .addField("vp", Ctx.getPointer(Ctx.getVoid()))
                           .addField("x", Ctx.getLong())
                           .addField("ip", Ctx.getPointer(Ctx.getInt()))
                           .finish();
  char *P = static_cast<char *>(RT.allocate(Holder->size(), Holder));
  // A static (int*) matches the void* member at offset 0...
  RT.typeCheck(P + 0, Ctx.getPointer(Ctx.getInt()));
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  // ...and a static (void*) matches the int* member at offset 16.
  RT.typeCheck(P + 16, Ctx.getPointer(Ctx.getVoid()));
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  // But (float*) against the (int*) member is a type error (perlbench's
  // T* vs T** class of bugs must stay detectable; offset 16 is not
  // adjacent to any void* member, so no coercion applies).
  RT.typeCheck(P + 16, Ctx.getPointer(Ctx.getFloat()));
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::TypeError), 1u);
  RT.deallocate(P);
}

//===----------------------------------------------------------------------===//
// FREE type: use-after-free, double free, reuse-after-free
//===----------------------------------------------------------------------===//

TEST_F(RuntimeTest, UseAfterFreeDetected) {
  int *P = static_cast<int *>(RT.allocate(sizeof(int), Ctx.getInt()));
  RT.deallocate(P);
  EXPECT_TRUE(RT.dynamicTypeOf(P)->isFree());
  Bounds B = RT.typeCheck(P, Ctx.getInt());
  EXPECT_TRUE(B.isWide());
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::UseAfterFree), 1u);
}

TEST_F(RuntimeTest, DoubleFreeDetected) {
  int *P = static_cast<int *>(RT.allocate(sizeof(int), Ctx.getInt()));
  RT.deallocate(P);
  RT.deallocate(P);
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::DoubleFree), 1u);
}

TEST_F(RuntimeTest, ReuseAfterFreeDifferentTypeDetected) {
  // Free an int block, reallocate (LIFO gives the same block) as float;
  // the dangling int* check now sees dynamic type float -> type error.
  int *P = static_cast<int *>(RT.allocate(40, Ctx.getInt()));
  RT.deallocate(P);
  void *Q = RT.allocate(40, Ctx.getFloat());
  ASSERT_EQ(static_cast<void *>(P), Q) << "test requires block reuse";
  RT.typeCheck(P, Ctx.getInt());
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::TypeError), 1u)
      << "reuse-after-free with a different type is a type error";
  RT.deallocate(Q);
}

TEST_F(RuntimeTest, ReuseAfterFreeSameTypeIsMissed) {
  // The paper's documented partial coverage: same-type reuse passes.
  int *P = static_cast<int *>(RT.allocate(40, Ctx.getInt()));
  RT.deallocate(P);
  void *Q = RT.allocate(40, Ctx.getInt());
  ASSERT_EQ(static_cast<void *>(P), Q);
  RT.typeCheck(P, Ctx.getInt());
  EXPECT_EQ(RT.reporter().numIssues(), 0u)
      << "same-type reuse-after-free is (by design) not detected";
  RT.deallocate(Q);
}

TEST_F(RuntimeTest, ReallocOfFreedObjectReports) {
  int *P = static_cast<int *>(RT.allocate(sizeof(int), Ctx.getInt()));
  RT.deallocate(P);
  void *Q = RT.reallocate(P, 64, Ctx.getInt());
  EXPECT_NE(Q, nullptr);
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::UseAfterFree), 1u);
  RT.deallocate(Q);
}

namespace {

/// One captured report: what bounds_get handed the reporter.
struct CapturedReport {
  ErrorKind Kind;
  const TypeInfo *AllocType;
  int64_t Offset;
  const void *Pointer;
  std::string Detail;
  SiteId Site;
  const SiteInfo *Where;
};

/// A counting-mode runtime that records every report's ErrorInfo.
RuntimeOptions capturingOptions(std::vector<CapturedReport> &Out) {
  RuntimeOptions Options;
  Options.Reporter.Mode = ReportMode::Count;
  Options.Reporter.Callback = [](const ErrorInfo &E, const char *,
                                 void *User) {
    static_cast<std::vector<CapturedReport> *>(User)->push_back(
        {E.Kind, E.AllocType, E.Offset, E.Pointer,
         E.Detail ? E.Detail : "", E.Site, E.Where});
  };
  Options.Reporter.CallbackUserData = &Out;
  return Options;
}

/// Registers two bounds_get sites in \p RT; returns the first's id.
SiteId registerBoundsGetSites(Runtime &RT) {
  SiteTable Table;
  Table.File = "uaf.c";
  Table.Entries.push_back(
      {CheckSiteKind::BoundsGet, SourceLoc{12, 5}, "heap_user", nullptr});
  Table.Entries.push_back(
      {CheckSiteKind::BoundsGet, SourceLoc{20, 9}, "stack_user", nullptr});
  return RT.siteTables().registerTable(Table);
}

} // namespace

TEST(BoundsGetTemporalTest, FreedBlockReportsUseAfterFreeAtItsSite) {
  TypeContext Ctx;
  std::vector<CapturedReport> Reports;
  Runtime RT(Ctx, capturingOptions(Reports));
  SiteId Base = registerBoundsGetSites(RT);
  int *P = static_cast<int *>(RT.allocate(4 * sizeof(int), Ctx.getInt()));
  RT.deallocate(P);

  uint64_t GetsBefore = RT.counters().snapshot().BoundsGets;
  Bounds B = RT.boundsGet(P + 1, Base);
  EXPECT_TRUE(B.isWide());
  EXPECT_EQ(RT.counters().snapshot().BoundsGets, GetsBefore + 1);

  ASSERT_EQ(Reports.size(), 1u);
  const CapturedReport &R = Reports[0];
  EXPECT_EQ(R.Kind, ErrorKind::UseAfterFree);
  EXPECT_EQ(R.AllocType, Ctx.getFree());
  EXPECT_EQ(R.Offset, 0);
  EXPECT_EQ(R.Pointer, static_cast<const void *>(P + 1));
  EXPECT_EQ(R.Detail, "use of freed object");
  EXPECT_EQ(R.Site, Base);
  ASSERT_NE(R.Where, nullptr);
  EXPECT_STREQ(R.Where->File, "uaf.c");
  EXPECT_EQ(R.Where->Line, 12u);
  EXPECT_STREQ(R.Where->Function, "heap_user");
  EXPECT_EQ(RT.reporter().numEventsAtSite(Base), 1u);
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::UseAfterFree), 1u);
}

TEST(BoundsGetTemporalTest, ReturnedFrameReportsUseAfterReturnAtItsSite) {
  TypeContext Ctx;
  std::vector<CapturedReport> Reports;
  Runtime RT(Ctx, capturingOptions(Reports));
  SiteId Base = registerBoundsGetSites(RT);
  size_t Mark = RT.stackMark();
  void *P = RT.stackAllocate(16, Ctx.getInt(), /*Escapes=*/true);
  ASSERT_FALSE(RT.boundsGet(P, Base + 1).isWide());
  RT.stackRelease(Mark);
  ASSERT_TRUE(Reports.empty());

  uint64_t GetsBefore = RT.counters().snapshot().BoundsGets;
  Bounds B = RT.boundsGet(P, Base + 1);
  EXPECT_TRUE(B.isWide());
  EXPECT_EQ(RT.counters().snapshot().BoundsGets, GetsBefore + 1);

  ASSERT_EQ(Reports.size(), 1u);
  const CapturedReport &R = Reports[0];
  EXPECT_EQ(R.Kind, ErrorKind::StackUseAfterReturn);
  EXPECT_EQ(R.AllocType, Ctx.getStackFree());
  EXPECT_EQ(R.Pointer, P);
  EXPECT_EQ(R.Detail, "use of stack object after frame return");
  EXPECT_EQ(R.Site, Base + 1);
  ASSERT_NE(R.Where, nullptr);
  EXPECT_EQ(R.Where->Line, 20u);
  EXPECT_STREQ(R.Where->Function, "stack_user");
  EXPECT_EQ(RT.reporter().numEventsAtSite(Base + 1), 1u);
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::UseAfterFree), 0u);
}

//===----------------------------------------------------------------------===//
// Typed stack and globals
//===----------------------------------------------------------------------===//

TEST_F(RuntimeTest, StackObjectsAreTyped) {
  size_t Mark = RT.stackMark();
  void *P = RT.stackAllocate(24, T);
  EXPECT_EQ(RT.dynamicTypeOf(P), T);
  Bounds B = RT.typeCheck(P, T);
  EXPECT_EQ(B.Hi - B.Lo, 24u);
  RT.stackRelease(Mark);
  // The dangling stack pointer is now STACK-FREE, and the temporal
  // error classifies as a stack use-after-return, not a heap UAF.
  RT.typeCheck(P, T);
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::StackUseAfterReturn), 1u);
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::UseAfterFree), 0u);
}

TEST_F(RuntimeTest, GlobalObjectsAreTypedAndZeroed) {
  auto *G = static_cast<int *>(
      RT.globalAllocate(8 * sizeof(int), Ctx.getInt(), "counters"));
  EXPECT_EQ(RT.dynamicTypeOf(G), Ctx.getInt());
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(G[I], 0) << I;
  Bounds B = RT.typeCheck(G + 5, Ctx.getInt());
  EXPECT_TRUE(B.contains(G + 5, sizeof(int)));
}

//===----------------------------------------------------------------------===//
// bounds_check / bounds_narrow / bounds_get
//===----------------------------------------------------------------------===//

TEST_F(RuntimeTest, BoundsCheckCountsAndReports) {
  int *P = static_cast<int *>(RT.allocate(4 * sizeof(int), Ctx.getInt()));
  Bounds B = RT.typeCheck(P, Ctx.getInt());
  RT.boundsCheck(P + 3, sizeof(int), B); // OK.
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  RT.boundsCheck(P + 4, sizeof(int), B); // Overflow.
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::BoundsError), 1u);
  auto C = RT.counters().snapshot();
  EXPECT_EQ(C.BoundsChecks, 2u);
  RT.deallocate(P);
}

namespace {

/// The three-compare Bounds::contains the two-compare form replaced,
/// kept as the reference its answers must match.
bool referenceContains(Bounds B, uintptr_t P, size_t Size) {
  return P >= B.Lo && Size <= B.Hi - P && P <= B.Hi;
}

void expectContainsMatches(Bounds B, uintptr_t P, size_t Size) {
  ASSERT_LE(B.Lo, B.Hi);
  EXPECT_EQ(B.contains(reinterpret_cast<const void *>(P), Size),
            referenceContains(B, P, Size))
      << "[" << B.Lo << ", " << B.Hi << ") P=" << P << " Size=" << Size;
}

} // namespace

TEST(BoundsContainsTest, MatchesTheThreeCompareReference) {
  constexpr uintptr_t Top = UINTPTR_MAX;
  const size_t Sizes[] = {0, 1, 2, 4, 8, 16, 4096, SIZE_MAX / 2,
                          SIZE_MAX - 1, SIZE_MAX};
  // Wide bounds, P in the top Size bytes: P + Size wraps past
  // UINTPTR_MAX, which a `P + Size <= Hi` form would accept.
  for (size_t Size : Sizes)
    for (uintptr_t Back : {uintptr_t(0), uintptr_t(1), uintptr_t(2),
                           uintptr_t(7), uintptr_t(8), uintptr_t(4095)})
      expectContainsMatches(Bounds::wide(), Top - Back, Size);
  for (Bounds B : {Bounds{0x1000, 0x1040}, Bounds{Top - 64, Top},
                   Bounds{0, 16}, Bounds{0x1000, 0x1001}}) {
    uintptr_t Width = B.Hi - B.Lo;
    for (size_t Size : Sizes) {
      expectContainsMatches(B, B.Lo - 1, Size); // One below Lo.
      expectContainsMatches(B, B.Lo, Size);
      expectContainsMatches(B, B.Hi, Size); // At Hi: only Size 0 fits.
      expectContainsMatches(B, B.Hi - 1, Size);
      expectContainsMatches(B, B.Hi + 1, Size);
    }
    // Size larger than the whole interval.
    expectContainsMatches(B, B.Lo, Width + 1);
    expectContainsMatches(B, B.Lo, Width);
  }
  // Empty bounds and the empty result of a disjoint intersection.
  Bounds Disjoint = Bounds{0x1000, 0x1010}.intersect(Bounds{0x2000, 0x2010});
  ASSERT_EQ(Disjoint.Lo, Disjoint.Hi);
  for (Bounds B : {Bounds::empty(), Disjoint})
    for (size_t Size : Sizes)
      for (uintptr_t P : {B.Lo - 1, B.Lo, B.Lo + 1, uintptr_t(0), Top})
        expectContainsMatches(B, P, Size);
}

TEST(BoundsContainsTest, MatchesTheReferenceOnRandomTriples) {
  std::mt19937_64 Rng(20180618);
  auto Near = [&](uintptr_t Anchor) {
    return Anchor + static_cast<uintptr_t>(Rng() % 65) - 32;
  };
  for (int I = 0; I < 200000; ++I) {
    uintptr_t X = Rng(), Y = Rng();
    // Every third interval is narrow, so in-bounds answers are common.
    if (I % 3 == 0)
      Y = X + Rng() % 256;
    Bounds B{std::min(X, Y), std::max(X, Y)};
    uintptr_t P = I % 2 ? Near(B.Lo) : (I % 5 ? Near(B.Hi) : Rng());
    size_t Size = I % 7 ? Rng() % 64 : Rng();
    expectContainsMatches(B, P, Size);
    if (HasFailure())
      return;
  }
}

TEST_F(RuntimeTest, BoundsNarrowIsIntersection) {
  int *P = static_cast<int *>(RT.allocate(24, T));
  Bounds B = RT.allocationBounds(P);
  Bounds N = RT.boundsNarrow(B, reinterpret_cast<char *>(P) + 4, 12);
  EXPECT_EQ(N.Lo, reinterpret_cast<uintptr_t>(P) + 4);
  EXPECT_EQ(N.Hi, reinterpret_cast<uintptr_t>(P) + 16);
  auto C = RT.counters().snapshot();
  EXPECT_EQ(C.BoundsNarrows, 1u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, BoundsGetSkipsTypeCheck) {
  // bounds_get must succeed even with a mismatched static type
  // (EffectiveSan-bounds protects object bounds only).
  char *P = static_cast<char *>(RT.allocate(24, T));
  Bounds B = RT.boundsGet(P + 4);
  EXPECT_EQ(B.Lo, reinterpret_cast<uintptr_t>(P));
  EXPECT_EQ(B.Hi, reinterpret_cast<uintptr_t>(P) + 24);
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  auto C = RT.counters().snapshot();
  EXPECT_EQ(C.BoundsGets, 1u);
  EXPECT_EQ(C.TypeChecks, 0u);
  RT.deallocate(P);
}

//===----------------------------------------------------------------------===//
// Reporting modes and bucketing
//===----------------------------------------------------------------------===//

TEST_F(RuntimeTest, ErrorsAreBucketedByTypeAndOffset) {
  char *P = static_cast<char *>(RT.allocate(24, T));
  for (int I = 0; I < 100; ++I)
    RT.typeCheck(P + 12, Ctx.getDouble()); // Same issue repeatedly.
  EXPECT_EQ(RT.reporter().numIssues(), 1u) << "one bucket";
  EXPECT_EQ(RT.reporter().numEvents(), 100u) << "many events";
  RT.typeCheck(P + 4, Ctx.getDouble()); // Different offset, new bucket.
  EXPECT_EQ(RT.reporter().numIssues(), 2u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, LoggingModeWritesMessages) {
  std::FILE *Tmp = std::tmpfile();
  ASSERT_NE(Tmp, nullptr);
  RuntimeOptions Options;
  Options.Reporter.Mode = ReportMode::Log;
  Options.Reporter.Stream = Tmp;
  Runtime LogRT(Ctx, Options);
  char *P = static_cast<char *>(LogRT.allocate(24, T));
  LogRT.typeCheck(P + 12, Ctx.getDouble());
  LogRT.deallocate(P);
  std::fflush(Tmp);
  std::rewind(Tmp);
  char Buffer[512] = {};
  ASSERT_NE(std::fgets(Buffer, sizeof(Buffer), Tmp), nullptr);
  EXPECT_NE(std::string(Buffer).find("TYPE ERROR"), std::string::npos);
  EXPECT_NE(std::string(Buffer).find("double"), std::string::npos);
  EXPECT_NE(std::string(Buffer).find("struct T"), std::string::npos);
  std::fclose(Tmp);
}

//===----------------------------------------------------------------------===//
// Site-indexed type-check inline cache (PR 3)
//===----------------------------------------------------------------------===//

namespace {

/// Plain-value cache statistics for assertions.
struct CacheStats {
  uint64_t Hits;
  uint64_t Misses;
};

CacheStats cacheStats(Runtime &RT) {
  auto C = RT.counters().snapshot();
  return CacheStats{C.TypeCheckCacheHits, C.TypeCheckCacheMisses};
}

} // namespace

TEST_F(RuntimeTest, CacheHitIsBitIdenticalToSlowAndUncachedPaths) {
  char *P = static_cast<char *>(RT.allocate(24, T));
  char *Q = P + 12; // Example 5's interior pointer.
  const SiteId Site = 7;

  Bounds Reference = RT.typeCheckUncached(Q, Ctx.getInt());
  Bounds Miss = RT.typeCheck(Q, Ctx.getInt(), Site); // Fills the cache.
  Bounds Hit = RT.typeCheck(Q, Ctx.getInt(), Site);  // Replays it.
  EXPECT_EQ(Miss, Reference);
  EXPECT_EQ(Hit, Reference);

  CacheStats S = cacheStats(RT);
  EXPECT_EQ(S.Misses, 1u) << "first sited check must fill";
  EXPECT_EQ(S.Hits, 1u) << "second sited check must hit";
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, CacheHitAtDifferentOffsetSameNormalization) {
  // T[10]: element bases at K = 2*24 .. 9*24 all normalize to offset 0
  // (element 1's base is the special sizeof(T) domain position, so it
  // gets its own resolution), and one cache entry serves them all.
  char *P = static_cast<char *>(RT.allocate(10 * 24, T));
  const SiteId Site = 9;
  Bounds First = RT.typeCheck(P, T, Site); // K=0: the filling miss.
  for (int I = 2; I < 10; ++I) {
    Bounds B = RT.typeCheck(P + I * 24, T, Site);
    EXPECT_EQ(B, First) << "element " << I;
  }
  CacheStats S = cacheStats(RT);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 8u);
  // Element 1 (K = sizeof(T), the table's "element 1 base" position)
  // resolves to the same full-array bounds through the slow path.
  EXPECT_EQ(RT.typeCheck(P + 24, T, Site), First);
  EXPECT_EQ(cacheStats(RT).Misses, 2u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, FreeInvalidatesCacheEntries) {
  // The temporal-safety regression: a hot cache entry must never mask
  // a use-after-free. free() rebinds the META type to FREE, which can
  // never equal a cached allocation type, so the revalidating fast
  // path falls through and the slow path reports.
  int *P = static_cast<int *>(RT.allocate(40, Ctx.getInt()));
  const SiteId Site = 11;
  RT.typeCheck(P, Ctx.getInt(), Site);
  RT.typeCheck(P, Ctx.getInt(), Site);
  ASSERT_EQ(cacheStats(RT).Hits, 1u) << "entry must be hot before free";

  RT.deallocate(P);
  Bounds B = RT.typeCheck(P, Ctx.getInt(), Site);
  EXPECT_TRUE(B.isWide());
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::UseAfterFree), 1u)
      << "cached entry masked the use-after-free";
  EXPECT_EQ(cacheStats(RT).Hits, 1u)
      << "the post-free check must not hit the cache";
}

TEST_F(RuntimeTest, ReuseAfterFreeThroughHotCacheEntry) {
  // Same-address reuse with a *different* type through a hot entry:
  // the fresh META type mismatches the cached key, so the slow path
  // runs and reports the type error (same coverage as the uncached
  // ReuseAfterFreeDifferentTypeDetected).
  int *P = static_cast<int *>(RT.allocate(40, Ctx.getInt()));
  const SiteId Site = 13;
  RT.typeCheck(P, Ctx.getInt(), Site);
  RT.typeCheck(P, Ctx.getInt(), Site);
  RT.deallocate(P);
  void *Q = RT.allocate(40, Ctx.getFloat());
  ASSERT_EQ(static_cast<void *>(P), Q) << "test requires block reuse";
  RT.typeCheck(P, Ctx.getInt(), Site);
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::TypeError), 1u);
  RT.deallocate(Q);
}

TEST_F(RuntimeTest, ReallocatedBlockRevalidatesSizeOnHit) {
  // Same type, same address, different size: the key matches (that's a
  // hit), and the bounds must come from the *fresh* META size — the
  // hit path clamps to the live allocation, never a remembered one.
  // 40 and 44 byte requests share the 64-byte size class, so the LIFO
  // free list hands the same block back with a different META size.
  int *P = static_cast<int *>(RT.allocate(10 * sizeof(int), Ctx.getInt()));
  const SiteId Site = 17;
  Bounds Small = RT.typeCheck(P, Ctx.getInt(), Site);
  EXPECT_EQ(Small.Hi - Small.Lo, 10 * sizeof(int));
  RT.deallocate(P);
  void *Q = RT.allocate(11 * sizeof(int), Ctx.getInt());
  ASSERT_EQ(static_cast<void *>(P), Q) << "test requires block reuse";
  Bounds Big = RT.typeCheck(Q, Ctx.getInt(), Site);
  EXPECT_EQ(Big.Hi - Big.Lo, 11 * sizeof(int))
      << "hit must rebuild bounds from the live META header";
  EXPECT_EQ(Big, RT.typeCheckUncached(Q, Ctx.getInt()));
  RT.deallocate(Q);
}

TEST_F(RuntimeTest, DifferentialCoercionsCachedVsUncached) {
  // The three layout-coercion fallbacks must behave identically cached
  // and uncached: (T*) <-> (void*) member coercion, the (char[])
  // second lookup, and one-past-the-end entries.
  RecordType *Holder = RecordBuilder(Ctx, TypeKind::Struct, "holder2")
                           .addField("vp", Ctx.getPointer(Ctx.getVoid()))
                           .addField("x", Ctx.getLong())
                           .addField("ip", Ctx.getPointer(Ctx.getInt()))
                           .finish();
  char *H = static_cast<char *>(RT.allocate(Holder->size(), Holder));
  char *C64 = static_cast<char *>(RT.allocate(64, Ctx.getChar()));
  char *TP = static_cast<char *>(RT.allocate(24, T));

  struct Probe {
    const char *Name;
    const void *Ptr;
    const TypeInfo *Static;
  } Probes[] = {
      // (int*) static matches the (void*) member at offset 0.
      {"int* vs void* member", H, Ctx.getPointer(Ctx.getInt())},
      // (void*) static matches the (int*) member at offset 16.
      {"void* vs int* member", H + 16, Ctx.getPointer(Ctx.getVoid())},
      // char[] allocation probed as int[]: the second (char) lookup.
      {"char[] second lookup", C64 + 8, Ctx.getInt()},
      // One-past-the-end of a single-element allocation.
      {"one past the end", TP + 24, T},
  };

  SiteId Site = 100;
  for (const Probe &Pr : Probes) {
    Bounds Reference = RT.typeCheckUncached(Pr.Ptr, Pr.Static);
    CacheStats Before = cacheStats(RT);
    Bounds Miss = RT.typeCheck(Pr.Ptr, Pr.Static, Site);
    Bounds Hit = RT.typeCheck(Pr.Ptr, Pr.Static, Site);
    CacheStats After = cacheStats(RT);
    EXPECT_EQ(Miss, Reference) << Pr.Name;
    EXPECT_EQ(Hit, Reference) << Pr.Name;
    EXPECT_EQ(After.Misses, Before.Misses + 1) << Pr.Name;
    EXPECT_EQ(After.Hits, Before.Hits + 1)
        << Pr.Name << ": coercion results must be cacheable";
    ++Site;
  }
  EXPECT_EQ(RT.reporter().numIssues(), 0u);

  RT.deallocate(H);
  RT.deallocate(C64);
  RT.deallocate(TP);
}

TEST_F(RuntimeTest, CharCoercionCachesAcrossOffsets) {
  // A (char*) check resolves to the allocation bounds regardless of
  // offset, so its cache entry matches at ANY in-bounds offset.
  char *P = static_cast<char *>(RT.allocate(24, T));
  const SiteId Site = 23;
  Bounds A = RT.typeCheck(P + 4, Ctx.getChar(), Site);
  Bounds B = RT.typeCheck(P + 17, Ctx.getChar(), Site);
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.Lo, reinterpret_cast<uintptr_t>(P));
  EXPECT_EQ(A.Hi, reinterpret_cast<uintptr_t>(P) + 24);
  CacheStats S = cacheStats(RT);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 1u) << "char coercion entries are offset-independent";
  RT.deallocate(P);
}

TEST_F(RuntimeTest, TypeErrorsAreNeverCached) {
  char *P = static_cast<char *>(RT.allocate(24, T));
  const SiteId Site = 29;
  for (int I = 0; I < 3; ++I) {
    Bounds B = RT.typeCheck(P + 12, Ctx.getDouble(), Site);
    EXPECT_TRUE(B.isWide());
  }
  CacheStats S = cacheStats(RT);
  EXPECT_EQ(S.Hits, 0u) << "error results must not be replayed";
  EXPECT_EQ(S.Misses, 3u);
  EXPECT_EQ(RT.reporter().numEvents(), 3u)
      << "every erring check must keep reporting";
  RT.deallocate(P);
}

TEST(SiteCacheVictimTest, PrefersOldestFillNotHighestVersion) {
  // The squatter regression: version counts fills *per entry*, not
  // recency. A way churned hot in the past (high version) but filled
  // long ago must be the victim against a way filled just now —
  // otherwise a stale colliding site pins its slot forever and the
  // set degrades to direct-mapped.
  SiteCache Cache(16);
  SiteCacheEntry *Set = Cache.setFor(0);
  Set[0].Version.store(40, std::memory_order_relaxed); // Old churner.
  Set[0].FillTick.store(nextSiteFillTick(), std::memory_order_relaxed);
  Set[1].Version.store(2, std::memory_order_relaxed); // Fresh fill.
  Set[1].FillTick.store(nextSiteFillTick(), std::memory_order_relaxed);
  EXPECT_EQ(&SiteCache::victimIn(Set), &Set[0])
      << "the older fill must age out regardless of its version";
  // Empty ways always win over recency.
  Set[1].Version.store(0, std::memory_order_relaxed);
  EXPECT_EQ(&SiteCache::victimIn(Set), &Set[1]);
}

TEST_F(RuntimeTest, PolymorphicSiteKeepsTwoResolutionsResident) {
  // The 2-way associativity win: two resolutions alternating through
  // ONE site coexist in the site's set — after the two filling misses
  // every probe is a hit (the direct-mapped cache ping-ponged here at
  // ~3.5x the hit cost).
  char *P = static_cast<char *>(RT.allocate(24, T));
  const SiteId Site = 31;
  Bounds IntRef = RT.typeCheckUncached(P + 12, Ctx.getInt());
  Bounds SRef = RT.typeCheckUncached(P + 4, S);
  for (int I = 0; I < 4; ++I) {
    EXPECT_EQ(RT.typeCheck(P + 12, Ctx.getInt(), Site), IntRef);
    EXPECT_EQ(RT.typeCheck(P + 4, S, Site), SRef);
  }
  CacheStats Stats = cacheStats(RT);
  EXPECT_EQ(Stats.Misses, 2u) << "one filling miss per resolution";
  EXPECT_EQ(Stats.Hits, 6u) << "both resolutions stay resident";
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, SiteCollisionBeyondAssociativityEvictsButStaysCorrect) {
  // THREE incompatible resolutions fighting over one 2-way set:
  // every probe evicts the oldest way and misses, but the returned
  // bounds are never wrong.
  char *P = static_cast<char *>(RT.allocate(24, T));
  const SiteId Site = 31;
  Bounds IntRef = RT.typeCheckUncached(P + 12, Ctx.getInt());
  Bounds SRef = RT.typeCheckUncached(P + 4, S);
  Bounds FloatRef = RT.typeCheckUncached(P, Ctx.getFloat());
  for (int I = 0; I < 4; ++I) {
    EXPECT_EQ(RT.typeCheck(P + 12, Ctx.getInt(), Site), IntRef);
    EXPECT_EQ(RT.typeCheck(P + 4, S, Site), SRef);
    EXPECT_EQ(RT.typeCheck(P, Ctx.getFloat(), Site), FloatRef);
  }
  EXPECT_EQ(cacheStats(RT).Hits, 0u)
      << "oldest-fill eviction ping-pongs on a 3-way conflict";
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, ResetClearsSiteCache) {
  void *P = RT.allocate(40, Ctx.getInt());
  const SiteId Site = 37;
  RT.typeCheck(P, Ctx.getInt(), Site);
  RT.typeCheck(P, Ctx.getInt(), Site);
  EXPECT_EQ(cacheStats(RT).Hits, 1u);

  RT.reset(); // Invalidates every pointer AND the cache.

  void *Q = RT.allocate(40, Ctx.getInt());
  RT.typeCheck(Q, Ctx.getInt(), Site);
  CacheStats After = cacheStats(RT);
  EXPECT_EQ(After.Hits, 0u) << "reset must drop cached resolutions";
  EXPECT_EQ(After.Misses, 1u);
  RT.deallocate(Q);
}

TEST_F(RuntimeTest, NextRuntimeReusesTheCacheBufferEmpty) {
  // A closed runtime parks its cache buffer for the next runtime of the
  // same size, which must start with none of the old resolutions.
  const SiteId Site = 41;
  auto First = std::make_unique<Runtime>(Ctx, quietOptions());
  void *P = First->allocate(40, Ctx.getInt());
  First->typeCheck(P, Ctx.getInt(), Site);
  First->typeCheck(P, Ctx.getInt(), Site);
  ASSERT_EQ(cacheStats(*First).Hits, 1u);
  First.reset();

  Runtime Next(Ctx, quietOptions());
  void *Q = Next.allocate(40, Ctx.getInt());
  Next.typeCheck(Q, Ctx.getInt(), Site);
  CacheStats After = cacheStats(Next);
  EXPECT_EQ(After.Hits, 0u) << "a reused buffer must start empty";
  EXPECT_EQ(After.Misses, 1u);
  Next.deallocate(Q);
}

TEST_F(RuntimeTest, DisabledCacheTakesSlowPathEverywhere) {
  RuntimeOptions Options = quietOptions();
  Options.SiteCacheEntries = 0;
  Runtime Uncached(Ctx, Options);
  char *P = static_cast<char *>(Uncached.allocate(24, T));
  Bounds Ref = Uncached.typeCheckUncached(P + 12, Ctx.getInt());
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(Uncached.typeCheck(P + 12, Ctx.getInt(), 41), Ref);
  auto C = Uncached.counters().snapshot();
  EXPECT_EQ(C.TypeCheckCacheHits, 0u);
  EXPECT_EQ(C.TypeCheckCacheMisses, 3u);
  Uncached.deallocate(P);
}

TEST_F(RuntimeTest, PseudoSiteOverloadCachesByStaticType) {
  // The 2-argument overload (CheckedPtr / session APIs) derives its
  // site from the static type; repeated checks of one type must hit.
  char *P = static_cast<char *>(RT.allocate(100 * sizeof(int),
                                            Ctx.getInt()));
  RT.typeCheck(P + 40, Ctx.getInt());
  RT.typeCheck(P + 40, Ctx.getInt());
  RT.typeCheck(P + 80, Ctx.getInt()); // Same normalized offset (0).
  CacheStats S = cacheStats(RT);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 2u);
  RT.deallocate(P);
}

/// Threads sharing one runtime: every check lands in the calling
/// thread's own counter block, so the merged counts are exact at any
/// thread count and the cache invariant holds under concurrency.
class ConcurrentChecksTest : public RuntimeTest,
                             public ::testing::WithParamInterface<unsigned> {
};

TEST_P(ConcurrentChecksTest, ConcurrentChecksAreSafe) {
  constexpr unsigned PerThread = 5000;
  const unsigned NumThreads = GetParam();
  char *P = static_cast<char *>(RT.allocate(100 * 24, T));
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W < NumThreads; ++W) {
    Threads.emplace_back([&] {
      for (unsigned I = 0; I < PerThread; ++I) {
        Bounds B = RT.typeCheck(P + (I % 100) * 24, T);
        RT.boundsCheck(P + (I % 100) * 24, 4, B);
      }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  CheckCounters::Snapshot C = RT.counters().snapshot();
  EXPECT_EQ(C.TypeChecks, NumThreads * PerThread);
  EXPECT_EQ(C.BoundsChecks, NumThreads * PerThread);
  EXPECT_EQ(C.TypeCheckCacheHits + C.TypeCheckCacheMisses +
                C.LegacyTypeChecks,
            C.TypeChecks);
  RT.deallocate(P);
}

INSTANTIATE_TEST_SUITE_P(Threads, ConcurrentChecksTest,
                         ::testing::Values(1u, 2u, 4u, 16u, 64u));

TEST_F(RuntimeTest, ExitedThreadCountsStayUntilReset) {
  char *P = static_cast<char *>(RT.allocate(24, T));
  std::thread Worker([&] {
    Bounds B = RT.typeCheck(P, T);
    RT.boundsCheck(P, 4, B);
    RT.boundsCheck(P + 4, 4, B);
  });
  Worker.join();
  CheckCounters::Snapshot C = RT.counters().snapshot();
  EXPECT_EQ(C.TypeChecks, 1u);
  EXPECT_EQ(C.BoundsChecks, 2u);

  // This thread's block adds to the exited thread's.
  RT.boundsCheck(P, 4, Bounds::forObject(P, 24));
  EXPECT_EQ(RT.counters().snapshot().BoundsChecks, 3u);

  RT.counters().reset();
  C = RT.counters().snapshot();
  EXPECT_EQ(C.TypeChecks, 0u);
  EXPECT_EQ(C.BoundsChecks, 0u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, ThreadContextNamesItsRuntimeAndIsStable) {
  CheckContext &C = RT.threadContext();
  EXPECT_EQ(C.RT, &RT);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(&C) % 64, 0u);
  // A scope bound to another runtime does not capture this one's
  // checks; the thread keeps one block per runtime.
  Runtime Other(Ctx, quietOptions());
  CheckContext &O = Other.threadContext();
  EXPECT_NE(&O, &C);
  EXPECT_EQ(O.RT, &Other);
  EXPECT_EQ(&RT.threadContext(), &C);
  EXPECT_EQ(&Other.threadContext(), &O);
}

TEST_F(RuntimeTest, ThreadFindsItsBlockAfterCacheEviction) {
  CheckContext &C = RT.threadContext();
  // Checking through other runtimes makes the thread forget the block
  // it found last; it must find the same block again on the list
  // rather than start a second one.
  std::vector<std::unique_ptr<Runtime>> Others;
  for (int I = 0; I < 16; ++I) {
    Others.push_back(std::make_unique<Runtime>(Ctx, quietOptions()));
    Others.back()->boundsGet(nullptr);
  }
  EXPECT_EQ(&RT.threadContext(), &C);
  for (auto &O : Others)
    EXPECT_EQ(O->counters().snapshot().BoundsGets, 1u);
}

TEST_F(RuntimeTest, ExitedThreadsBlocksAreAdopted) {
  for (int I = 0; I < 50; ++I)
    std::thread([&] { RT.boundsGet(nullptr); }).join();
  EXPECT_EQ(RT.counters().snapshot().BoundsGets, 50u);
  EXPECT_EQ(RT.counters().numBlocks(), 1u)
      << "each thread adopts the block its exited predecessor freed";
}

TEST_F(RuntimeTest, ThreadMayOutliveARuntimeItChecked) {
  auto Short = std::make_unique<Runtime>(Ctx, quietOptions());
  std::atomic<int> Phase{0};
  std::thread Worker([&] {
    Short->boundsGet(nullptr);
    Phase = 1;
    while (Phase != 2)
      std::this_thread::yield();
  });
  while (Phase != 1)
    std::this_thread::yield();
  // The dead runtime's block goes back to the pool and is reused here,
  // while the worker still holds it.
  Short.reset();
  Runtime Next(Ctx, quietOptions());
  Next.boundsGet(nullptr);
  Phase = 2;
  Worker.join(); // Its exit must not free the block it no longer owns.
  std::thread([&] { Next.boundsGet(nullptr); }).join();
  EXPECT_EQ(Next.counters().snapshot().BoundsGets, 2u);
  EXPECT_EQ(Next.counters().numBlocks(), 2u);
}

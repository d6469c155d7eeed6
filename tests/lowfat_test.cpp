//===- tests/lowfat_test.cpp - Low-fat allocator unit tests ---------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "lowfat/GlobalPool.h"
#include "lowfat/LowFatHeap.h"
#include "lowfat/SizeClass.h"
#include "lowfat/StackPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <random>
#include <thread>
#include <vector>

using namespace effective;
using namespace effective::lowfat;

//===----------------------------------------------------------------------===//
// Size classes
//===----------------------------------------------------------------------===//

TEST(SizeClassTest, TableIsAscendingAndBounded) {
  EXPECT_EQ(SizeClasses.front().Size, MinClassSize);
  EXPECT_EQ(SizeClasses.back().Size, MaxClassSize);
  for (unsigned I = 1; I < NumSizeClasses; ++I) {
    EXPECT_LT(SizeClasses[I - 1].Size, SizeClasses[I].Size)
        << "class " << I;
  }
}

TEST(SizeClassTest, PowersOfTwoAndMidpoints) {
  EXPECT_EQ(classSize(0), 32u);
  EXPECT_EQ(classSize(1), 48u);
  EXPECT_EQ(classSize(2), 64u);
  EXPECT_EQ(classSize(3), 96u);
  EXPECT_EQ(classSize(4), 128u);
}

TEST(SizeClassTest, SizeToClassReturnsSmallestFit) {
  for (size_t Bytes : {1u, 31u, 32u}) {
    EXPECT_EQ(sizeToClass(Bytes), 0u) << Bytes;
  }
  EXPECT_EQ(sizeToClass(33), 1u);
  EXPECT_EQ(sizeToClass(48), 1u);
  EXPECT_EQ(sizeToClass(49), 2u);
  EXPECT_EQ(sizeToClass(64), 2u);
  EXPECT_EQ(sizeToClass(65), 3u);
  EXPECT_EQ(sizeToClass(MaxClassSize), NumSizeClasses - 1);
}

TEST(SizeClassTest, SizeToClassIsExhaustivelyConsistent) {
  std::mt19937_64 Rng(42);
  for (int I = 0; I < 20000; ++I) {
    size_t Bytes = Rng() % MaxClassSize + 1;
    unsigned C = sizeToClass(Bytes);
    EXPECT_GE(classSize(C), Bytes);
    if (C > 0) {
      EXPECT_LT(classSize(C - 1), Bytes);
    }
  }
}

TEST(SizeClassTest, InternalFragmentationBounded) {
  // The 1.5x midpoint scheme wastes at most 50% (size 2^k+1 maps to
  // 1.5*2^k, i.e. < 1.5x the request).
  std::mt19937_64 Rng(7);
  for (int I = 0; I < 10000; ++I) {
    size_t Bytes = Rng() % MaxClassSize + 1;
    if (Bytes < MinClassSize)
      continue;
    EXPECT_LE(classSize(sizeToClass(Bytes)), Bytes + Bytes / 2)
        << "request " << Bytes;
  }
}

TEST(SizeClassTest, ClassModuloMatchesDivision) {
  std::mt19937_64 Rng(123);
  for (unsigned C = 0; C < NumSizeClasses; ++C) {
    for (int I = 0; I < 200; ++I) {
      uint64_t Offset = Rng() % (1ull << 38);
      EXPECT_EQ(classModulo(C, Offset), Offset % classSize(C))
          << "class " << C << " offset " << Offset;
    }
  }
}

//===----------------------------------------------------------------------===//
// LowFatHeap
//===----------------------------------------------------------------------===//

namespace {

class LowFatHeapTest : public ::testing::Test {
protected:
  LowFatHeap Heap;
};

} // namespace

TEST_F(LowFatHeapTest, AllocateGivesLowFatPointer) {
  void *P = Heap.allocate(100);
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(Heap.isLowFat(P));
  EXPECT_EQ(Heap.allocationBase(P), P);
  EXPECT_GE(Heap.allocationSize(P), 100u);
  Heap.deallocate(P);
}

TEST_F(LowFatHeapTest, InteriorPointersResolveToBase) {
  char *P = static_cast<char *>(Heap.allocate(100));
  size_t Size = Heap.allocationSize(P);
  for (size_t Off : {size_t(1), size_t(50), size_t(99), Size - 1}) {
    EXPECT_TRUE(Heap.isLowFat(P + Off)) << Off;
    EXPECT_EQ(Heap.allocationBase(P + Off), P) << Off;
    EXPECT_EQ(Heap.allocationSize(P + Off), Size) << Off;
  }
  Heap.deallocate(P);
}

TEST_F(LowFatHeapTest, LegacyPointersReportWide) {
  int Local = 0;
  EXPECT_FALSE(Heap.isLowFat(&Local));
  EXPECT_EQ(Heap.allocationSize(&Local), SIZE_MAX);
  EXPECT_EQ(Heap.allocationBase(&Local), nullptr);
  EXPECT_FALSE(Heap.isLowFat(nullptr));
}

TEST_F(LowFatHeapTest, OversizedRequestsFallBackToLegacy) {
  void *P = Heap.allocate(MaxClassSize + 1);
  ASSERT_NE(P, nullptr);
  EXPECT_FALSE(Heap.isLowFat(P));
  EXPECT_EQ(Heap.stats().NumLegacyAllocs, 1u);
  std::memset(P, 0xab, MaxClassSize + 1); // Must be usable.
  Heap.deallocate(P);
  EXPECT_EQ(Heap.stats().NumFrees, 1u);
}

TEST_F(LowFatHeapTest, DistinctAllocationsDoNotOverlap) {
  std::vector<char *> Ptrs;
  for (int I = 0; I < 64; ++I)
    Ptrs.push_back(static_cast<char *>(Heap.allocate(48)));
  std::sort(Ptrs.begin(), Ptrs.end());
  for (size_t I = 1; I < Ptrs.size(); ++I)
    EXPECT_GE(Ptrs[I] - Ptrs[I - 1], 48) << I;
  for (char *P : Ptrs)
    Heap.deallocate(P);
}

TEST_F(LowFatHeapTest, FreePreservesFirstSixteenBytes) {
  // The META header (16 bytes) must survive free until reallocation
  // (Section 5 of the paper).
  char *P = static_cast<char *>(Heap.allocate(64));
  std::memset(P, 0x5a, 64);
  Heap.deallocate(P);
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(static_cast<unsigned char>(P[I]), 0x5a) << "byte " << I;
}

TEST_F(LowFatHeapTest, FreeListReusesBlocks) {
  void *P = Heap.allocate(64);
  Heap.deallocate(P);
  void *Q = Heap.allocate(64);
  EXPECT_EQ(P, Q) << "LIFO free list should reuse the freed block";
  Heap.deallocate(Q);
}

TEST_F(LowFatHeapTest, QuarantineDelaysReuse) {
  LowFatHeap QHeap(HeapOptions{1ull << 29, /*QuarantineBytes=*/1 << 20});
  void *P = QHeap.allocate(64);
  QHeap.deallocate(P);
  void *Q = QHeap.allocate(64);
  EXPECT_NE(P, Q) << "quarantined block must not be reused immediately";
  EXPECT_GT(QHeap.stats().QuarantinedBytes, 0u);
}

TEST_F(LowFatHeapTest, QuarantineEvictsWhenOverBudget) {
  LowFatHeap QHeap(HeapOptions{1ull << 29, /*QuarantineBytes=*/256});
  std::vector<void *> Ptrs;
  for (int I = 0; I < 16; ++I)
    Ptrs.push_back(QHeap.allocate(64));
  for (void *P : Ptrs)
    QHeap.deallocate(P);
  EXPECT_LE(QHeap.stats().QuarantinedBytes, 256u + 96u);
}

TEST_F(LowFatHeapTest, StatsTrackPeaks) {
  HeapStats Before = Heap.stats();
  void *A = Heap.allocate(1000);
  void *B = Heap.allocate(2000);
  HeapStats During = Heap.stats();
  EXPECT_GT(During.BlockBytesInUse, Before.BlockBytesInUse);
  Heap.deallocate(A);
  Heap.deallocate(B);
  HeapStats After = Heap.stats();
  EXPECT_EQ(After.BlockBytesInUse, Before.BlockBytesInUse);
  EXPECT_GE(After.PeakBlockBytesInUse, During.BlockBytesInUse);
  EXPECT_EQ(After.NumAllocs, Before.NumAllocs + 2);
  EXPECT_EQ(After.NumFrees, Before.NumFrees + 2);
}

TEST_F(LowFatHeapTest, PointerBeyondBumpIsLegacy) {
  char *P = static_cast<char *>(Heap.allocate(64));
  size_t Class = Heap.allocationSize(P);
  // One-past-the-end of the newest block was never allocated.
  EXPECT_FALSE(Heap.isLowFat(P + Class));
  Heap.deallocate(P);
}

namespace {

/// The base(p) lookup as the file comment of lowfat/LowFatHeap.h states
/// it, with true divisions and a bump map the test keeps itself: the
/// reference the heap's inline isLowFat() and allocationBase() must
/// match, pointer for pointer. The geometry follows the heap's
/// constructor: one RegionSize region per class from the arena base,
/// each carved into Shards slices of the largest class-size multiple
/// that fits, every slice's bump pointer starting at its base.
class ReferenceLookup {
public:
  ReferenceLookup(uintptr_t ArenaBase, uint64_t RegionSize, unsigned Shards)
      : ArenaBase(ArenaBase), RegionSize(RegionSize), Shards(Shards),
        Bump(NumSizeClasses, std::vector<uintptr_t>(Shards)) {
    for (unsigned S = 0; S < Shards; ++S)
      resetShard(S);
  }

  uintptr_t arenaEnd() const { return ArenaBase + NumSizeClasses * RegionSize; }
  uintptr_t regionBegin(unsigned C) const {
    return ArenaBase + C * RegionSize;
  }
  uint64_t sliceBytes(unsigned C) const {
    return RegionSize / Shards / classSize(C) * classSize(C);
  }
  uintptr_t sliceBegin(unsigned C, unsigned S) const {
    return regionBegin(C) + S * sliceBytes(C);
  }
  uintptr_t bump(unsigned C, unsigned S) const { return Bump[C][S]; }

  /// Records a block the heap bump-allocated.
  void noteBlock(const void *Block) {
    uintptr_t P = reinterpret_cast<uintptr_t>(Block);
    unsigned C = static_cast<unsigned>((P - ArenaBase) / RegionSize);
    unsigned S = static_cast<unsigned>((P - regionBegin(C)) / sliceBytes(C));
    Bump[C][S] = std::max(Bump[C][S], P + classSize(C));
  }
  /// resetShard(S): every slice of shard S is unallocated again.
  void resetShard(unsigned S) {
    for (unsigned C = 0; C < NumSizeClasses; ++C)
      Bump[C][S] = sliceBegin(C, S);
  }

  bool isLowFat(uintptr_t P) const {
    if (P < ArenaBase || P >= arenaEnd())
      return false;
    unsigned C = static_cast<unsigned>((P - ArenaBase) / RegionSize);
    if (sliceBytes(C) == 0)
      return false;
    uint64_t S = (P - regionBegin(C)) / sliceBytes(C);
    return S < Shards && P < Bump[C][S];
  }
  void *base(uintptr_t P) const {
    if (!isLowFat(P))
      return nullptr;
    unsigned C = static_cast<unsigned>((P - ArenaBase) / RegionSize);
    uint64_t Off = P - regionBegin(C);
    return reinterpret_cast<void *>(regionBegin(C) + Off / classSize(C) *
                                                         classSize(C));
  }

private:
  uintptr_t ArenaBase;
  uint64_t RegionSize;
  unsigned Shards;
  std::vector<std::vector<uintptr_t>> Bump;
};

void expectLookupMatches(const LowFatHeap &Heap, const ReferenceLookup &Ref,
                         uintptr_t P) {
  const void *Ptr = reinterpret_cast<const void *>(P);
  EXPECT_EQ(Heap.isLowFat(Ptr), Ref.isLowFat(P)) << std::hex << "P=0x" << P;
  EXPECT_EQ(Heap.allocationBase(Ptr), Ref.base(P)) << std::hex << "P=0x" << P;
}

/// Allocates two blocks of every class on every shard of a fresh heap
/// with magazines off (so each allocation moves its slice's bump
/// pointer by exactly one block), then probes block bases, interiors,
/// last bytes, one past each block, the bump pointers and past them,
/// slice and region edges, the arena edges and legacy pointers against
/// the reference. Then it resets each shard and probes the stale
/// headers past the rewound bump pointers, before and after one fresh
/// allocation.
void checkLookupAgainstReference(unsigned NumShards) {
  HeapOptions Options;
  Options.NumShards = NumShards;
  Options.MagazineSize = 0;
  LowFatHeap Heap(Options);
  ASSERT_EQ(Heap.numShards(), NumShards);
  // A fresh heap's first class-0 block on shard 0 sits at the arena
  // base.
  void *First = Heap.allocateOnShard(classSize(0), 0);
  ASSERT_TRUE(Heap.isLowFat(First));
  ReferenceLookup Ref(reinterpret_cast<uintptr_t>(First), Heap.regionSize(),
                      NumShards);
  Ref.noteBlock(First);

  // Blocks[C][S] = the shard's first block of class C (null if the class
  // cannot be split across the shards and fell back to legacy).
  std::vector<std::vector<char *>> Blocks(NumSizeClasses,
                                          std::vector<char *>(NumShards));
  for (unsigned C = 0; C < NumSizeClasses; ++C) {
    for (unsigned S = 0; S < NumShards; ++S) {
      for (int K = 0; K < 2; ++K) {
        if (C == 0 && S == 0 && K == 0) {
          Blocks[C][S] = static_cast<char *>(First);
          continue;
        }
        void *P = Heap.allocateOnShard(classSize(C), S);
        ASSERT_NE(P, nullptr);
        if (!Heap.isLowFat(P)) {
          EXPECT_EQ(Ref.sliceBytes(C), 0u) << "class " << C;
          continue;
        }
        Ref.noteBlock(P);
        if (K == 0)
          Blocks[C][S] = static_cast<char *>(P);
      }
    }
  }

  auto ProbeClass = [&](unsigned C) {
    uint64_t Size = classSize(C);
    uintptr_t Region = Ref.regionBegin(C);
    for (uintptr_t P : {Region - 1, Region, Region + 1,
                        Region + NumShards * Ref.sliceBytes(C) - 1,
                        Region + NumShards * Ref.sliceBytes(C),
                        Region + Heap.regionSize() - 1})
      expectLookupMatches(Heap, Ref, P);
    for (unsigned S = 0; S < NumShards; ++S) {
      uintptr_t Slice = Ref.sliceBegin(C, S);
      uintptr_t Bump = Ref.bump(C, S);
      for (uintptr_t P : {Slice - 1, Slice, Slice + Size - 1, Slice + Size,
                          Slice + 2 * Size - 1, Bump - 1, Bump, Bump + 1,
                          Bump + Size, Bump + Size / 2,
                          Slice + Ref.sliceBytes(C) - 1})
        expectLookupMatches(Heap, Ref, P);
      if (char *B = Blocks[C][S]) {
        uintptr_t P = reinterpret_cast<uintptr_t>(B);
        for (uint64_t Off : {uint64_t(0), uint64_t(1), Size / 2, Size - 1,
                             Size, Size + 1, 2 * Size - 1, 2 * Size})
          expectLookupMatches(Heap, Ref, P + Off);
      }
    }
  };

  for (unsigned C = 0; C < NumSizeClasses; ++C) {
    ProbeClass(C);
    char *B = Blocks[C][0];
    if (!B)
      continue;
    // One past the older block is the newer block's base; one past the
    // slice's newest block was never handed out: legacy (unless the
    // slice is full and the pointer is the next slice's first block).
    EXPECT_EQ(Heap.allocationBase(B + classSize(C)), B + classSize(C));
    if (2 * classSize(C) < Ref.sliceBytes(C)) {
      EXPECT_FALSE(Heap.isLowFat(B + 2 * classSize(C))) << "class " << C;
      EXPECT_EQ(Heap.allocationBase(B + 2 * classSize(C)), nullptr);
    }
  }

  // Arena edges and legacy pointers.
  int Local = 0;
  void *Oversized = Heap.allocate(MaxClassSize + 1);
  for (uintptr_t P :
       {Ref.regionBegin(0) - 1, Ref.regionBegin(0), Ref.arenaEnd() - 1,
        Ref.arenaEnd(), Ref.arenaEnd() + 1, uintptr_t(0), uintptr_t(1),
        UINTPTR_MAX, reinterpret_cast<uintptr_t>(&Local),
        reinterpret_cast<uintptr_t>(Oversized)})
    expectLookupMatches(Heap, Ref, P);
  EXPECT_FALSE(Heap.isLowFat(Oversized));
  Heap.deallocate(Oversized);

  // Stale headers past a rewound bump pointer resolve to legacy, and
  // one fresh allocation brings back exactly its own block.
  for (unsigned S = 0; S < NumShards; ++S) {
    Heap.resetShard(S);
    Ref.resetShard(S);
    for (unsigned C = 0; C < NumSizeClasses; ++C) {
      ProbeClass(C);
      if (char *B = Blocks[C][S]) {
        EXPECT_EQ(Heap.allocationBase(B), nullptr) << "class " << C;
      }
    }
    for (unsigned C = 0; C < NumSizeClasses; ++C) {
      void *P = Heap.allocateOnShard(classSize(C), S);
      if (Heap.isLowFat(P)) {
        EXPECT_EQ(P, Blocks[C][S]) << "class " << C;
        Ref.noteBlock(P);
      }
    }
    for (unsigned C = 0; C < NumSizeClasses; ++C) {
      ProbeClass(C);
      char *B = Blocks[C][S];
      if (B && 2 * classSize(C) <= Ref.sliceBytes(C)) {
        EXPECT_EQ(Heap.allocationBase(B + classSize(C) - 1), B);
        EXPECT_EQ(Heap.allocationBase(B + classSize(C)), nullptr)
            << "stale second block of class " << C;
      }
    }
  }
}

} // namespace

TEST(InlineLookupTest, MatchesTheReferenceOnOneShard) {
  checkLookupAgainstReference(1);
}

TEST(InlineLookupTest, MatchesTheReferenceOnThreeShards) {
  checkLookupAgainstReference(3);
}

namespace {

/// Property sweep: for many sizes, allocation/base/size invariants hold.
class LowFatHeapPropertyTest : public ::testing::TestWithParam<size_t> {
protected:
  static LowFatHeap &heap() {
    static LowFatHeap Heap;
    return Heap;
  }
};

} // namespace

TEST_P(LowFatHeapPropertyTest, BaseAndSizeInvariants) {
  size_t Request = GetParam();
  char *P = static_cast<char *>(heap().allocate(Request));
  ASSERT_NE(P, nullptr);
  ASSERT_TRUE(heap().isLowFat(P));
  size_t Size = heap().allocationSize(P);
  EXPECT_GE(Size, Request);
  EXPECT_EQ(heap().allocationBase(P), P);
  // Interior pointers throughout the block resolve to the same base.
  for (size_t Off = 1; Off < Request; Off = Off * 2 + 1) {
    EXPECT_EQ(heap().allocationBase(P + Off), P) << Off;
    EXPECT_EQ(heap().allocationSize(P + Off), Size) << Off;
  }
  std::memset(P, 0xcd, Request); // The block must be writable.
  heap().deallocate(P);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LowFatHeapPropertyTest,
                         ::testing::Values(1, 16, 31, 32, 33, 48, 63, 64,
                                           100, 256, 1000, 4096, 10000,
                                           1 << 16, (1 << 16) + 1, 1 << 20,
                                           (3 << 19), 1 << 24));

TEST(LowFatHeapThreadTest, ConcurrentAllocFree) {
  LowFatHeap Heap;
  constexpr int NumThreads = 4;
  constexpr int Iterations = 2000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&Heap, T] {
      std::mt19937 Rng(T);
      std::vector<void *> Live;
      for (int I = 0; I < Iterations; ++I) {
        size_t Size = Rng() % 500 + 1;
        void *P = Heap.allocate(Size);
        ASSERT_TRUE(Heap.isLowFat(P));
        ASSERT_EQ(Heap.allocationBase(P), P);
        Live.push_back(P);
        if (Live.size() > 16) {
          Heap.deallocate(Live.front());
          Live.erase(Live.begin());
        }
      }
      for (void *P : Live)
        Heap.deallocate(P);
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Heap.stats().NumAllocs, Heap.stats().NumFrees);
}

//===----------------------------------------------------------------------===//
// Sharded heaps (HeapOptions::NumShards > 1)
//===----------------------------------------------------------------------===//

TEST(ShardedLowFatHeapTest, ShardSlicesAreClassAlignedEverywhere) {
  // For every size class: blocks allocated by different shards must
  // all sit at class-size multiples from the region base, so the
  // base(p)/size(p) arithmetic is shard-blind.
  HeapOptions Options;
  Options.NumShards = 4;
  LowFatHeap Heap(Options);
  ASSERT_EQ(Heap.numShards(), 4u);

  for (unsigned C = 0; C < NumSizeClasses; ++C) {
    size_t Request = classSize(C);
    if (Request > Heap.regionSize())
      break;
    for (unsigned S = 0; S < 4; ++S) {
      char *P = static_cast<char *>(Heap.allocateOnShard(Request, S));
      if (!Heap.isLowFat(P))
        continue; // Class too large for a 4-way split: legacy is fine.
      EXPECT_EQ(Heap.allocationSize(P), Request) << "class " << C;
      EXPECT_EQ(Heap.allocationBase(P), P) << "class " << C;
      EXPECT_EQ(Heap.shardOf(P), S) << "class " << C;
      EXPECT_EQ(Heap.allocationBase(P + Request / 2), P)
          << "interior pointer, class " << C;
      Heap.deallocate(P);
    }
  }
}

TEST(ShardedLowFatHeapTest, CrossShardFreeReturnsToOwningShard) {
  HeapOptions Options;
  Options.NumShards = 2;
  LowFatHeap Heap(Options);
  void *P = Heap.allocateOnShard(64, 1);
  EXPECT_EQ(Heap.shardOf(P), 1u);
  // Freed from "shard 0's thread" (deallocate is shard-blind)...
  Heap.deallocate(P);
  // ...the block must come back to shard 1, not shard 0.
  void *Q0 = Heap.allocateOnShard(64, 0);
  EXPECT_NE(Q0, P) << "shard 0 must not receive shard 1's free block";
  void *Q1 = Heap.allocateOnShard(64, 1);
  EXPECT_EQ(Q1, P) << "shard 1's LIFO free list reuses its own block";
  Heap.deallocate(Q0);
  Heap.deallocate(Q1);
}

TEST(ShardedLowFatHeapTest, ConcurrentShardsWithQuarantine) {
  // The concurrent-use contract: per-shard alloc/free under a live
  // quarantine, with cross-shard base/size queries racing against
  // sibling allocation. No block may ever be handed out twice while
  // live, and freed blocks must respect the quarantine delay.
  constexpr unsigned Threads = 4;
  constexpr int Iterations = 2000;
  HeapOptions Options;
  Options.NumShards = Threads;
  Options.QuarantineBytes = 1 << 15;
  LowFatHeap Heap(Options);

  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T) {
    Workers.emplace_back([&Heap, T] {
      std::mt19937 Rng(T);
      std::vector<void *> Live;
      void *LastFreed = nullptr;
      for (int I = 0; I < Iterations; ++I) {
        size_t Size = Rng() % 500 + 1;
        void *P = Heap.allocateOnShard(Size, T);
        ASSERT_TRUE(Heap.isLowFat(P));
        ASSERT_EQ(Heap.allocationBase(P), P);
        ASSERT_EQ(Heap.shardOf(P), T);
        ASSERT_NE(P, LastFreed)
            << "quarantine must delay immediate reuse";
        Live.push_back(P);
        if (Live.size() > 16) {
          LastFreed = Live.front();
          Heap.deallocate(LastFreed);
          Live.erase(Live.begin());
        }
      }
      for (void *P : Live)
        Heap.deallocate(P);
    });
  }
  for (std::thread &T : Workers)
    T.join();
  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.NumAllocs, Stats.NumFrees);
  EXPECT_EQ(Stats.BlockBytesInUse, 0u);
}

TEST(ShardedLowFatHeapTest, ResetShardDropsQuarantineAndFreeLists) {
  HeapOptions Options;
  Options.NumShards = 2;
  Options.QuarantineBytes = 1 << 20;
  LowFatHeap Heap(Options);

  void *A = Heap.allocateOnShard(64, 0);
  void *B = Heap.allocateOnShard(64, 1);
  Heap.deallocate(A); // Parked in shard 0's quarantine.
  ASSERT_GT(Heap.shardStats(0).QuarantinedBytes, 0u);

  Heap.resetShard(0);
  HeapStats S0 = Heap.shardStats(0);
  EXPECT_EQ(S0.QuarantinedBytes, 0u);
  EXPECT_EQ(S0.NumAllocs, 0u);
  EXPECT_EQ(S0.BlockBytesInUse, 0u);
  // Shard 1 untouched; shard 0 serves from the start of its slice.
  EXPECT_TRUE(Heap.isLowFat(B));
  void *A2 = Heap.allocateOnShard(64, 0);
  EXPECT_EQ(A2, A);
  Heap.deallocate(A2);
  Heap.deallocate(B);
}

TEST(ShardedLowFatHeapTest, SingleShardKeepsClassicBehaviour) {
  // NumShards = 1 (the default) must be indistinguishable from the
  // pre-sharding allocator: one slice spanning the region.
  LowFatHeap Heap;
  EXPECT_EQ(Heap.numShards(), 1u);
  void *P = Heap.allocate(100);
  EXPECT_EQ(Heap.shardOf(P), 0u);
  Heap.deallocate(P);
}

//===----------------------------------------------------------------------===//
// The lock-free fast path: magazines, batched quarantine, stealing
//===----------------------------------------------------------------------===//

TEST(MagazineTest, SteadyStateChurnHitsTheMagazine) {
  LowFatHeap Heap; // MagazineSize defaults to 16.
  ASSERT_GT(Heap.magazineSize(), 0u);
  // Warm-up alloc/free pair seeds the magazine; every later alloc of
  // the class must be a magazine hit.
  void *P = Heap.allocate(64);
  Heap.deallocate(P);
  for (int I = 0; I < 100; ++I) {
    void *Q = Heap.allocate(64);
    EXPECT_EQ(Q, P) << "LIFO magazine must replay the cached block";
    Heap.deallocate(Q);
  }
  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.MagazineHits, 100u);
  EXPECT_EQ(Stats.NumAllocs, 101u);
  EXPECT_EQ(Stats.NumFrees, 101u);
  EXPECT_EQ(Stats.BlockBytesInUse, 0u);
}

TEST(MagazineTest, DisabledMagazinesStillReuseLockFree) {
  HeapOptions Options;
  Options.MagazineSize = 0;
  LowFatHeap Heap(Options);
  EXPECT_EQ(Heap.magazineSize(), 0u);
  void *P = Heap.allocate(64);
  Heap.deallocate(P);
  void *Q = Heap.allocate(64);
  EXPECT_EQ(Q, P) << "Treiber free list reuses the freed block";
  Heap.deallocate(Q);
  EXPECT_EQ(Heap.stats().MagazineHits, 0u);
}

TEST(MagazineTest, OverflowFlushesHalfToTheSharedList) {
  HeapOptions Options;
  Options.MagazineSize = 8;
  LowFatHeap Heap(Options);
  // Free more blocks than one magazine holds: the overflow must land
  // on the shared free list (visible to other threads), not grow the
  // TLS cache without bound.
  std::vector<void *> Ptrs;
  for (int I = 0; I < 32; ++I)
    Ptrs.push_back(Heap.allocate(64));
  for (void *P : Ptrs)
    Heap.deallocate(P);
  // Another thread (fresh TLS) must be able to reuse flushed blocks.
  std::thread Other([&Heap] {
    void *P = Heap.allocate(64);
    EXPECT_TRUE(Heap.isLowFat(P));
    EXPECT_GE(Heap.stats().MagazineRefills, 1u)
        << "the fresh thread must refill from the flushed overflow";
    Heap.deallocate(P);
  });
  Other.join();
  EXPECT_EQ(Heap.stats().BlockBytesInUse, 0u);
}

TEST(MagazineTest, FlushThreadCachePublishesCachedBlocks) {
  LowFatHeap Heap;
  void *P = Heap.allocate(64);
  Heap.deallocate(P); // Parked in this thread's magazine.
  Heap.flushThreadCache();
  // After the flush the block sits on the shared free list, so a
  // magazine-REFILL (not a hit) serves it back.
  uint64_t HitsBefore = Heap.stats().MagazineHits;
  void *Q = Heap.allocate(64);
  EXPECT_EQ(Q, P);
  EXPECT_EQ(Heap.stats().MagazineHits, HitsBefore);
  EXPECT_GE(Heap.stats().MagazineRefills, 1u);
  Heap.deallocate(Q);
}

TEST(MagazineTest, ResetShardDiscardsStaleThreadMagazines) {
  // The stale-TLS regression: a worker's magazine holds freed blocks
  // of a shard; resetShard() recycles the shard and a new tenant is
  // handed the same addresses. The worker's next allocation must NOT
  // replay a cached (now foreign) block.
  LowFatHeap Heap;
  void *A = nullptr, *B = nullptr;
  std::atomic<int> Phase{0};

  std::thread Worker([&] {
    A = Heap.allocate(64);
    B = Heap.allocate(64);
    Heap.deallocate(B); // B parks in the worker's magazine.
    Phase.store(1, std::memory_order_release);
    while (Phase.load(std::memory_order_acquire) != 2)
      std::this_thread::yield();
    // The shard was reset and the new tenant owns A's and B's
    // addresses. A stale magazine would hand back B == C2.
    void *D = Heap.allocate(64);
    EXPECT_TRUE(Heap.isLowFat(D));
    EXPECT_NE(D, A) << "stale magazine block replayed after reset";
    EXPECT_NE(D, B) << "stale magazine block replayed after reset";
  });

  while (Phase.load(std::memory_order_acquire) != 1)
    std::this_thread::yield();
  Heap.resetShard(0);
  // New tenant: the recycled slice serves A's and B's addresses again.
  void *C1 = Heap.allocate(64);
  void *C2 = Heap.allocate(64);
  EXPECT_EQ(C1, A);
  EXPECT_EQ(C2, B);
  Phase.store(2, std::memory_order_release);
  Worker.join();
}

TEST(MagazineTest, ThreadExitFlushesMagazinesBackToTheHeap) {
  LowFatHeap Heap;
  void *P = nullptr;
  std::thread Worker([&] {
    P = Heap.allocate(64);
    Heap.deallocate(P); // Parks in the worker's magazine...
  });
  Worker.join(); // ...and must flush back at thread exit.
  void *Q = Heap.allocate(64);
  EXPECT_EQ(Q, P) << "the dead thread's cached block must be reusable";
  Heap.deallocate(Q);
  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.NumAllocs, 2u);
  EXPECT_EQ(Stats.NumFrees, 2u);
}

TEST(MagazineTest, ConcurrentHitTalliesAreExact) {
  // Hit/refill telemetry is tallied per thread and published with
  // fetch_add (batched, with the remainder flushed through ThreadCache
  // retirement), so the totals are *exact* under concurrent mutators —
  // the old racy load+store on the shared counter lost updates under
  // exactly this workload. Each thread's first allocation comes from
  // the bump pointer (or a refill of a finished sibling's flushed
  // blocks); every one of the remaining Iters-1 is a magazine hit.
  LowFatHeap Heap;
  ASSERT_GT(Heap.magazineSize(), 0u);
  constexpr unsigned NumThreads = 8;
  constexpr unsigned Iters = 4096;
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&] {
      Ready.fetch_add(1);
      while (!Go.load(std::memory_order_acquire)) {
      }
      for (unsigned I = 0; I < Iters; ++I) {
        void *P = Heap.allocate(64);
        Heap.deallocate(P);
      }
      Heap.flushThreadCache();
    });
  }
  while (Ready.load() != NumThreads) {
  }
  Go.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.MagazineHits, uint64_t(NumThreads) * (Iters - 1));
  EXPECT_LE(Stats.MagazineRefills, uint64_t(NumThreads));
  EXPECT_EQ(Stats.NumAllocs, uint64_t(NumThreads) * Iters);
  EXPECT_EQ(Stats.NumFrees, uint64_t(NumThreads) * Iters);
  EXPECT_EQ(Stats.BlockBytesInUse, 0u);
}

TEST(MagazineTest, ParkedThreadsHitsAreExactWithoutAFlush) {
  // Each thread's first allocation comes from the bump pointer; the
  // other Iters-1 replay its magazine. The threads stay alive and never
  // flush, yet another thread's stats() reads every hit.
  LowFatHeap Heap;
  constexpr unsigned NumThreads = 4;
  constexpr unsigned Iters = 10;
  std::atomic<unsigned> Parked{0};
  std::atomic<bool> Release{false};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&] {
      for (unsigned I = 0; I < Iters; ++I)
        Heap.deallocate(Heap.allocate(64));
      Parked.fetch_add(1, std::memory_order_release);
      while (!Release.load(std::memory_order_acquire))
        std::this_thread::yield();
    });
  }
  while (Parked.load(std::memory_order_acquire) != NumThreads)
    std::this_thread::yield();
  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.MagazineHits, uint64_t(NumThreads) * (Iters - 1));
  EXPECT_EQ(Stats.MagazineRefills, 0u);
  EXPECT_EQ(Stats.NumAllocs, uint64_t(NumThreads) * Iters);
  Release.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Heap.stats().MagazineHits, uint64_t(NumThreads) * (Iters - 1))
      << "thread exit folds each cache's hits into the shard once";
}

//===----------------------------------------------------------------------===//
// Heap statistics counted in the thread caches
//===----------------------------------------------------------------------===//

TEST(CacheStatsTest, ParkedThreadsAllocsFreesAndBytesAreExact) {
  // Each thread churns, then keeps Kept blocks live and parks without a
  // flush. Its allocations, frees and bytes sit in its cache, unfolded,
  // yet another thread's stats() reads them exactly.
  LowFatHeap Heap;
  constexpr unsigned NumThreads = 4, Iters = 100, Kept = 7;
  constexpr size_t Size = 96;
  std::atomic<unsigned> Parked{0};
  std::atomic<bool> Release{false};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&] {
      for (unsigned I = 0; I < Iters; ++I)
        Heap.deallocate(Heap.allocate(Size));
      std::vector<void *> Live;
      for (unsigned I = 0; I < Kept; ++I)
        Live.push_back(Heap.allocate(Size));
      Parked.fetch_add(1, std::memory_order_release);
      while (!Release.load(std::memory_order_acquire))
        std::this_thread::yield();
      for (void *P : Live)
        Heap.deallocate(P);
    });
  }
  while (Parked.load(std::memory_order_acquire) != NumThreads)
    std::this_thread::yield();
  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.NumAllocs, uint64_t(NumThreads) * (Iters + Kept));
  EXPECT_EQ(Stats.NumFrees, uint64_t(NumThreads) * Iters);
  EXPECT_EQ(Stats.BlockBytesInUse, uint64_t(NumThreads) * Kept * Size);
  Release.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
  Stats = Heap.stats();
  EXPECT_EQ(Stats.NumAllocs, uint64_t(NumThreads) * (Iters + Kept));
  EXPECT_EQ(Stats.NumFrees, uint64_t(NumThreads) * (Iters + Kept));
  EXPECT_EQ(Stats.BlockBytesInUse, 0u) << "thread exit folds each cache once";
}

TEST(CacheStatsTest, BlockFreedOnAnotherThreadSumsToZero) {
  // A's cache counts the allocation, B's the free (B is bound to the
  // same shard), so B's byte count runs below zero; the sum is exact.
  LowFatHeap Heap;
  constexpr size_t Size = 64;
  void *Shared = nullptr;
  std::atomic<int> Phase{0};
  auto Park = [&](int Until) {
    while (Phase.load(std::memory_order_acquire) < Until)
      std::this_thread::yield();
  };
  std::thread A([&] {
    Shared = Heap.allocate(Size);
    Phase.store(1, std::memory_order_release);
    Park(3);
  });
  std::thread B([&] {
    Park(1);
    Heap.deallocate(Heap.allocate(Size)); // Binds B's cache to shard 0.
    Heap.deallocate(Shared);
    Phase.store(2, std::memory_order_release);
    Park(3);
  });
  Park(2);
  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.NumAllocs, 2u);
  EXPECT_EQ(Stats.NumFrees, 2u);
  EXPECT_EQ(Stats.BlockBytesInUse, 0u);
  EXPECT_EQ(Stats.PeakBlockBytesInUse, 2 * Size);
  Phase.store(3, std::memory_order_release);
  A.join();
  B.join();
  EXPECT_EQ(Heap.stats().BlockBytesInUse, 0u);
  EXPECT_EQ(Heap.shardBytesInUse(0), 0u);
}

TEST(CacheStatsTest, SingleThreadedPeakIsExact) {
  // Magazine hits, span blocks and a legacy block between them: one
  // thread's peak is the exact high-water mark of its live bytes.
  LowFatHeap Heap;
  auto Block = [](size_t Size) { return classSize(sizeToClass(Size)); };
  std::vector<void *> Ptrs;
  for (int I = 0; I < 40; ++I)
    Ptrs.push_back(Heap.allocate(64));
  uint64_t First = 40 * Block(64);
  EXPECT_EQ(Heap.stats().PeakBlockBytesInUse, First);
  for (void *P : Ptrs)
    Heap.deallocate(P);
  Ptrs.clear();
  for (int I = 0; I < 30; ++I)
    Ptrs.push_back(Heap.allocate(64)); // Magazine hits, then a span.
  EXPECT_EQ(Heap.stats().PeakBlockBytesInUse, First) << "below the peak";
  // One block, then a span whose second block is counted in the cache
  // and not yet folded into the shard.
  for (int I = 0; I < 3; ++I)
    Ptrs.push_back(Heap.allocate(3000));
  uint64_t Second = 30 * Block(64) + 3 * Block(3000);
  ASSERT_GT(Second, First);
  EXPECT_EQ(Heap.stats().PeakBlockBytesInUse, Second);
  // A legacy block while a span block is unfolded: the shared counter
  // alone would miss it.
  constexpr size_t Oversized = MaxClassSize + 1;
  void *Big = Heap.allocate(Oversized);
  ASSERT_FALSE(Heap.isLowFat(Big));
  Heap.deallocate(Big);
  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.PeakBlockBytesInUse, Second + Oversized);
  EXPECT_EQ(Stats.BlockBytesInUse, Second);
  for (void *P : Ptrs)
    Heap.deallocate(P);
  EXPECT_EQ(Heap.stats().BlockBytesInUse, 0u);
  EXPECT_EQ(Heap.stats().PeakBlockBytesInUse, Second + Oversized);
}

TEST(CacheStatsTest, LegacyFreeAfterResetShardReadsZero) {
  // resetShard() zeroes the statistics while a legacy block stays live;
  // its later free reads 0, never a wrapped count, and the shard's
  // next allocations count from there exactly.
  LowFatHeap Heap;
  constexpr size_t Oversized = MaxClassSize + 1;
  void *Big = Heap.allocate(Oversized);
  ASSERT_FALSE(Heap.isLowFat(Big));
  Heap.resetShard(0);
  Heap.deallocate(Big);
  EXPECT_EQ(Heap.shardStats(0).BlockBytesInUse, 0u);
  EXPECT_EQ(Heap.shardBytesInUse(0), 0u);
  void *P = Heap.allocate(64);
  EXPECT_EQ(Heap.shardStats(0).BlockBytesInUse, 64u);
  EXPECT_EQ(Heap.shardBytesInUse(0), 64u) << "a first carve folds";
  Heap.deallocate(P);
  EXPECT_EQ(Heap.shardStats(0).BlockBytesInUse, 0u);
}

TEST(CacheStatsTest, ShardBytesInUseTrailsWithinTheFoldSlack) {
  // shardBytesInUse() is one load of the shared counter, which each
  // cache updates only at a refill, a half-magazine flush or a span
  // carve. While threads churn it trails the exact live bytes by at
  // most a magazine of blocks plus one span per thread (one class).
  LowFatHeap Heap;
  constexpr unsigned NumThreads = 3, Base = 1000, Churn = 40, Rounds = 2000;
  constexpr uint64_t Size = 64;
  const uint64_t Slack = Heap.magazineSize() * Size + (16 << 10);
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Done{false};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&] {
      std::vector<void *> Kept, Batch;
      for (unsigned I = 0; I < Base; ++I)
        Kept.push_back(Heap.allocate(Size));
      Ready.fetch_add(1, std::memory_order_release);
      for (unsigned R = 0; R < Rounds; ++R) {
        for (unsigned I = 0; I < Churn; ++I)
          Batch.push_back(Heap.allocate(Size));
        for (void *P : Batch)
          Heap.deallocate(P);
        Batch.clear();
      }
      while (!Done.load(std::memory_order_acquire))
        std::this_thread::yield();
      for (void *P : Kept)
        Heap.deallocate(P);
    });
  }
  while (Ready.load(std::memory_order_acquire) != NumThreads)
    std::this_thread::yield();
  // Every thread holds Base blocks and at most Churn more.
  const uint64_t Low = NumThreads * Base * Size;
  const uint64_t High = NumThreads * (Base + Churn) * Size;
  for (int Sample = 0; Sample < 2000; ++Sample) {
    uint64_t Read = Heap.shardBytesInUse(0);
    ASSERT_GE(Read + NumThreads * Slack, Low) << "sample " << Sample;
    ASSERT_LE(Read, High + NumThreads * Slack) << "sample " << Sample;
  }
  Done.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Heap.shardBytesInUse(0), 0u) << "exits fold every cache";
  EXPECT_EQ(Heap.stats().BlockBytesInUse, 0u);
}

//===----------------------------------------------------------------------===//
// Spans: thread-private runs of fresh blocks
//===----------------------------------------------------------------------===//

TEST(SpanTest, ConcurrentThreadsCarveDisjointRuns) {
  // Three threads allocate together on one heap and one shard. After
  // its first block (a single-block carve), each thread's blocks come
  // from its own span: consecutive addresses, in a run no other
  // thread's block falls into. No thread exits before all are done: an
  // exit retires the thread's span, and its tail would feed the others'
  // refills.
  LowFatHeap Heap;
  constexpr unsigned NumThreads = 3;
  constexpr unsigned Blocks = 300;
  constexpr size_t Size = 48;
  std::vector<std::vector<char *>> Ptrs(NumThreads);
  std::atomic<unsigned> Ready{0}, Done{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      Ready.fetch_add(1);
      while (Ready.load() != NumThreads) {
      }
      for (unsigned I = 0; I < Blocks; ++I)
        Ptrs[T].push_back(static_cast<char *>(Heap.allocate(Size)));
      Done.fetch_add(1);
      while (Done.load() != NumThreads)
        std::this_thread::yield();
    });
  }
  for (std::thread &T : Threads)
    T.join();

  ASSERT_EQ(Heap.allocationSize(Ptrs[0][0]), Size);
  for (unsigned T = 0; T < NumThreads; ++T)
    for (unsigned I = 2; I < Blocks; ++I)
      ASSERT_EQ(Ptrs[T][I], Ptrs[T][I - 1] + Size)
          << "thread " << T << " block " << I;
  for (unsigned T = 0; T < NumThreads; ++T) {
    char *RunBegin = Ptrs[T][1];
    char *RunEnd = Ptrs[T].back() + Size;
    for (unsigned U = 0; U < NumThreads; ++U) {
      if (U == T)
        continue;
      for (char *P : Ptrs[U])
        EXPECT_FALSE(P >= RunBegin && P < RunEnd)
            << "thread " << U << "'s block inside thread " << T << "'s run";
    }
  }
  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.NumAllocs, uint64_t(NumThreads) * Blocks);
  EXPECT_EQ(Stats.BlockBytesInUse, uint64_t(NumThreads) * Blocks * Size);
}

TEST(SpanTest, ResetShardCarvesOneBlockBelowTheOldHighWater) {
  // With magazines on, a slice's second carve of a class takes a span.
  // After resetShard, memory below the old bump pointer may hold stale
  // headers, so carving there moves the bump pointer one block at a
  // time; a stale block past it stays legacy. Spans resume at the old
  // high-water mark.
  LowFatHeap Heap;
  ASSERT_GT(Heap.magazineSize(), 0u);
  constexpr size_t Size = 64;
  unsigned C = sizeToClass(Size);
  ASSERT_EQ(classSize(C), Size);
  std::vector<char *> Old;
  for (int I = 0; I < 10; ++I)
    Old.push_back(static_cast<char *>(Heap.allocate(Size)));
  uint64_t HighWater = Heap.classCarvedBytes(C);
  EXPECT_GT(HighWater, 10 * Size) << "the second carve takes a span";
  std::memcpy(Old[5], "stale header", 13);

  Heap.resetShard(0);
  EXPECT_EQ(Heap.classCarvedBytes(C), 0u);
  for (uint64_t I = 1; I <= 3; ++I) {
    char *P = static_cast<char *>(Heap.allocate(Size));
    EXPECT_EQ(P, Old[I - 1]);
    EXPECT_EQ(Heap.classCarvedBytes(C), I * Size);
    EXPECT_FALSE(Heap.isLowFat(P + Size)) << "block " << I;
  }
  EXPECT_FALSE(Heap.isLowFat(Old[5]));
  EXPECT_EQ(Heap.allocationBase(Old[5] + 1), nullptr);

  // Up to the old high-water mark every carve is one block; the first
  // carve at it takes a span again.
  while (Heap.classCarvedBytes(C) < HighWater) {
    uint64_t Before = Heap.classCarvedBytes(C);
    Heap.allocate(Size);
    ASSERT_EQ(Heap.classCarvedBytes(C), Before + Size);
  }
  EXPECT_EQ(Heap.classCarvedBytes(C), HighWater);
  Heap.allocate(Size);
  EXPECT_GT(Heap.classCarvedBytes(C), HighWater + Size);
}

TEST(SpanTest, ResetShardDiscardsAWorkersStaleSpan) {
  // A worker carved a span, then the shard was reset and a new tenant
  // was handed the span's addresses. The worker's next allocation must
  // not serve the rest of its (now foreign) span.
  LowFatHeap Heap;
  constexpr size_t Size = 64;
  char *A = nullptr, *B = nullptr;
  std::atomic<int> Phase{0};

  std::thread Worker([&] {
    A = static_cast<char *>(Heap.allocate(Size)); // One block.
    B = static_cast<char *>(Heap.allocate(Size)); // A span's first.
    Phase.store(1, std::memory_order_release);
    while (Phase.load(std::memory_order_acquire) != 2)
      std::this_thread::yield();
    // A stale span would hand out B + Size, now the new tenant's C3.
    char *D = static_cast<char *>(Heap.allocate(Size));
    EXPECT_TRUE(Heap.isLowFat(D));
    EXPECT_EQ(D, B + 2 * Size) << "stale span block served after reset";
  });

  while (Phase.load(std::memory_order_acquire) != 1)
    std::this_thread::yield();
  ASSERT_EQ(B, A + Size);
  Heap.resetShard(0);
  void *C1 = Heap.allocate(Size);
  void *C2 = Heap.allocate(Size);
  void *C3 = Heap.allocate(Size);
  EXPECT_EQ(C1, A);
  EXPECT_EQ(C2, B);
  EXPECT_EQ(C3, B + Size);
  Phase.store(2, std::memory_order_release);
  Worker.join();
}

TEST(SpanTest, RetiredSpanHandsItsTailBack) {
  // A cache that retires its shard while no carve followed its span
  // returns the span's unissued tail to the bump pointer.
  LowFatHeap Heap;
  constexpr size_t Size = 64;
  unsigned C = sizeToClass(Size);
  Heap.allocate(Size);
  Heap.allocate(Size);
  EXPECT_GT(Heap.classCarvedBytes(C), 2 * Size);
  Heap.flushThreadCache();
  EXPECT_EQ(Heap.classCarvedBytes(C), 2 * Size);
}

TEST(SpanTest, RetiredTailsBehindOtherCarvesAreReused) {
  // Two threads allocate one class in turns and switch shards every
  // round, as leased workers do. A thread's span is retired after the
  // other thread carved behind it, so its tail cannot go back to the
  // bump pointer; it joins the free list, and later refills on that
  // shard take it. Carving stays near the live bytes instead of
  // growing by a span per switch.
  HeapOptions Options;
  Options.NumShards = 2;
  LowFatHeap Heap(Options);
  ASSERT_GT(Heap.magazineSize(), 0u);
  constexpr size_t Size = 64;
  constexpr unsigned Rounds = 200, PerRound = 3;
  unsigned C = sizeToClass(Size);
  std::atomic<unsigned> Turn{0};
  auto Worker = [&](unsigned Me) {
    for (unsigned R = 0; R < Rounds; ++R) {
      while (Turn.load(std::memory_order_acquire) != 2 * R + Me)
        std::this_thread::yield();
      for (unsigned I = 0; I < PerRound; ++I)
        EXPECT_TRUE(Heap.isLowFat(Heap.allocateOnShard(Size, R % 2)));
      Turn.store(2 * R + Me + 1, std::memory_order_release);
    }
  };
  std::thread A(Worker, 0), B(Worker, 1);
  A.join();
  B.join();

  uint64_t Live = uint64_t(2) * Rounds * PerRound * Size;
  ASSERT_EQ(Heap.stats().BlockBytesInUse, Live);
  // At most one unissued span per (thread, shard) on top of the live
  // blocks; a leaked tail per switch would add 16 KiB a round.
  EXPECT_LE(Heap.classCarvedBytes(C), Live + 4 * (16 << 10));
}

TEST(ThreadCacheLifetime, HeapDiesWhileAThreadHoldsItsCache) {
  // The holder's cache keeps magazine blocks and a pending quarantine
  // batch of a heap that is destroyed before the holder exits. The
  // exit must leave the unmapped arena alone.
  HeapOptions Options;
  Options.QuarantineBytes = 1024;
  auto Heap = std::make_unique<LowFatHeap>(Options);
  std::atomic<int> Phase{0};
  std::thread Holder([&] {
    // Batches of 8 frees flush into the 1 KiB quarantine; the third
    // batch evicts the first 8 blocks to the free list and the last 3
    // frees stay in the thread's batch.
    std::vector<void *> Blocks;
    for (int I = 0; I < 27; ++I)
      Blocks.push_back(Heap->allocate(64));
    for (void *P : Blocks)
      Heap->deallocate(P);
    // A refill moves the evicted blocks into the magazine.
    Heap->deallocate(Heap->allocate(64));
    Phase.store(1, std::memory_order_release);
    while (Phase.load(std::memory_order_acquire) != 2)
      std::this_thread::yield();
  });
  while (Phase.load(std::memory_order_acquire) != 1)
    std::this_thread::yield();
  HeapStats Stats = Heap->stats();
  EXPECT_EQ(Stats.MagazineRefills, 1u);
  EXPECT_EQ(Stats.QuarantinedBytes, 20u * 64);
  Heap.reset();
  Phase.store(2, std::memory_order_release);
  Holder.join();
}

TEST(ThreadCacheLifetime, HeapAtADeadHeapsAddressGetsAFreshCache) {
  alignas(LowFatHeap) unsigned char Storage[sizeof(LowFatHeap)];
  HeapOptions Small;
  Small.MagazineSize = 4;
  auto *Dead = new (Storage) LowFatHeap(Small);
  Dead->deallocate(Dead->allocate(64)); // Parks in this thread's cache.
  Dead->~LowFatHeap();

  // The pooled cache comes back resized: 32 frees fit its magazine.
  HeapOptions Large;
  Large.MagazineSize = 32;
  auto *Heap = new (Storage) LowFatHeap(Large);
  std::vector<void *> Ptrs;
  for (int I = 0; I < 32; ++I)
    Ptrs.push_back(Heap->allocate(64));
  EXPECT_EQ(Heap->stats().MagazineHits, 0u)
      << "the dead heap's magazine block was replayed";
  for (void *P : Ptrs) {
    EXPECT_TRUE(Heap->isLowFat(P));
    Heap->deallocate(P);
  }
  for (int I = 0; I < 32; ++I)
    Ptrs[I] = Heap->allocate(64);
  EXPECT_EQ(Heap->stats().MagazineHits, 32u);
  for (void *P : Ptrs)
    Heap->deallocate(P);
  Heap->~LowFatHeap();
}

TEST(ThreadCacheLifetime, ExitedThreadsCacheIsAdoptedEmpty) {
  LowFatHeap Heap;
  for (int T = 0; T < 4; ++T)
    std::thread([&Heap] {
      Heap.deallocate(Heap.allocate(64)); // Exit flushes the block.
    }).join();
  EXPECT_EQ(Heap.numThreadCaches(), 1u);
  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.MagazineHits, 0u) << "an adopted cache arrives empty";
  EXPECT_EQ(Stats.MagazineRefills, 3u)
      << "each later thread refills the flushed block";
  EXPECT_EQ(Stats.BlockBytesInUse, 0u);
}

TEST(BatchedQuarantineTest, DelayPreservedWithinAndAcrossBatches) {
  HeapOptions Options;
  Options.QuarantineBytes = 1 << 20;
  LowFatHeap Heap(Options);
  // Free a full batch (16) plus change: no freed block may come back
  // while the budget holds, whether it sits in the thread batch or in
  // the shard FIFO.
  std::vector<void *> Freed;
  for (int I = 0; I < 20; ++I) {
    void *P = Heap.allocate(64);
    Heap.deallocate(P);
    Freed.push_back(P);
    void *Q = Heap.allocate(64);
    for (void *F : Freed)
      EXPECT_NE(Q, F) << "quarantined block reused (iteration " << I
                      << ")";
    Heap.deallocate(Q);
    Freed.push_back(Q);
  }
  EXPECT_GT(Heap.stats().QuarantinedBytes, 0u);
}

TEST(BatchedQuarantineTest, AccountingVisibleBeforeTheBatchFlushes) {
  HeapOptions Options;
  Options.QuarantineBytes = 1 << 20;
  LowFatHeap Heap(Options);
  void *P = Heap.allocate(64);
  Heap.deallocate(P);
  // One free < batch size: the block is still in the TLS batch, but
  // the byte accounting must already see it.
  EXPECT_EQ(Heap.stats().QuarantinedBytes, 64u);
  Heap.flushThreadCache();
  EXPECT_EQ(Heap.stats().QuarantinedBytes, 64u);
}

TEST(BatchedQuarantineTest, ResetShardDropsPendingBatchEntries) {
  HeapOptions Options;
  Options.NumShards = 2;
  Options.QuarantineBytes = 1 << 20;
  LowFatHeap Heap(Options);
  void *P = Heap.allocateOnShard(64, 0);
  Heap.deallocate(P); // Parked in this thread's pending batch.
  ASSERT_GT(Heap.shardStats(0).QuarantinedBytes, 0u);
  Heap.resetShard(0);
  EXPECT_EQ(Heap.shardStats(0).QuarantinedBytes, 0u);
  // Flushing the stale batch must neither corrupt the recycled shard
  // nor resurrect the accounting.
  Heap.flushThreadCache();
  EXPECT_EQ(Heap.shardStats(0).QuarantinedBytes, 0u);
  void *Q = Heap.allocateOnShard(64, 0);
  EXPECT_EQ(Q, P) << "recycled slice serves from its start";
  Heap.deallocate(Q);
}

namespace {

/// A heap whose 1 MiB-class slices hold exactly 4 blocks per shard
/// (64 MiB regions / 16 shards), so slice exhaustion is cheap to
/// reach.
HeapOptions tinySliceOptions(bool Stealing) {
  HeapOptions Options;
  Options.RegionSize = 1ull << 26;
  Options.NumShards = 16;
  Options.EnableWorkStealing = Stealing;
  return Options;
}

} // namespace

TEST(WorkStealingTest, ExhaustedSliceRefillsFromSiblings) {
  LowFatHeap Heap(tinySliceOptions(true));
  constexpr size_t BlockSize = 1u << 20;
  std::vector<char *> Blocks;
  for (int I = 0; I < 12; ++I) {
    auto *P = static_cast<char *>(Heap.allocateOnShard(BlockSize, 0));
    ASSERT_TRUE(Heap.isLowFat(P)) << "block " << I << " went legacy";
    Blocks.push_back(P);
  }
  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.Steals, 8u) << "blocks 5..12 must be stolen";
  EXPECT_EQ(Stats.ExhaustFallbacks, 0u);
  EXPECT_EQ(Stats.NumLegacyAllocs, 0u);

  // Differential base/size sweep: bump-served (shard 0) and stolen
  // (sibling-slice) blocks must be bit-identical under the metadata
  // arithmetic — same class size, exact base at every interior
  // offset, and the owning shard derived purely from the address.
  for (char *P : Blocks) {
    EXPECT_EQ(Heap.allocationSize(P), BlockSize);
    EXPECT_EQ(Heap.allocationBase(P), P);
    for (size_t Off : {size_t(1), BlockSize / 2, BlockSize - 1}) {
      EXPECT_EQ(Heap.allocationBase(P + Off), P) << Off;
      EXPECT_EQ(Heap.allocationSize(P + Off), BlockSize) << Off;
    }
  }
  // The first four live in shard 0's slice; the rest were stolen from
  // the next sibling slices in steal order.
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(Heap.shardOf(Blocks[I]), 0u) << I;
  for (int I = 4; I < 12; ++I)
    EXPECT_NE(Heap.shardOf(Blocks[I]), 0u) << I;

  // A freed stolen block returns to its OWNING (victim) shard: the
  // victim can reuse it, and per-shard alloc/free stats balance.
  unsigned Victim = Heap.shardOf(Blocks[4]);
  Heap.deallocate(Blocks[4]);
  void *Reused = Heap.allocateOnShard(BlockSize, Victim);
  EXPECT_EQ(Reused, Blocks[4]);
  Heap.deallocate(Reused);
  for (int I = 0; I < 12; ++I)
    if (I != 4)
      Heap.deallocate(Blocks[I]);
  Stats = Heap.stats();
  EXPECT_EQ(Stats.NumAllocs, Stats.NumFrees);
  EXPECT_EQ(Stats.BlockBytesInUse, 0u);
}

TEST(WorkStealingTest, DisabledStealingFallsBackToLegacy) {
  LowFatHeap Heap(tinySliceOptions(false));
  constexpr size_t BlockSize = 1u << 20;
  std::vector<void *> Blocks;
  for (int I = 0; I < 6; ++I)
    Blocks.push_back(Heap.allocateOnShard(BlockSize, 0));
  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.Steals, 0u);
  EXPECT_EQ(Stats.ExhaustFallbacks, 2u);
  EXPECT_EQ(Stats.NumLegacyAllocs, 2u);
  for (void *P : Blocks)
    Heap.deallocate(P);
}

TEST(LockFreeHammerTest, SharedShardChurnWithStealingAndQuarantine) {
  // The TSan hammer for the whole lock-free surface at once: four
  // threads churn ONE shard (maximal contention on its Treiber lists
  // and bump pointers) with magazines, batched quarantine and stealing
  // all enabled, while cross-thread frees bounce blocks between
  // magazines and the shared lists.
  constexpr unsigned Threads = 4;
  constexpr int Iterations = 2000;
  HeapOptions Options;
  Options.QuarantineBytes = 1 << 14;
  Options.MagazineSize = 8;
  Options.EnableWorkStealing = true;
  Options.NumShards = 2;
  LowFatHeap Heap(Options);

  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T) {
    Workers.emplace_back([&Heap, T] {
      std::mt19937 Rng(T);
      std::vector<void *> Live;
      for (int I = 0; I < Iterations; ++I) {
        size_t Size = Rng() % 500 + 1;
        void *P = Heap.allocateOnShard(Size, 0); // Everyone on shard 0.
        ASSERT_TRUE(Heap.isLowFat(P));
        ASSERT_EQ(Heap.allocationBase(P), P);
        static_cast<char *>(P)[0] = static_cast<char>(T);
        Live.push_back(P);
        if (Live.size() > 16) {
          Heap.deallocate(Live.front());
          Live.erase(Live.begin());
        }
      }
      for (void *P : Live)
        Heap.deallocate(P);
      Heap.flushThreadCache();
    });
  }
  for (std::thread &T : Workers)
    T.join();
  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.NumAllocs, Stats.NumFrees);
  EXPECT_EQ(Stats.BlockBytesInUse, 0u);
}

//===----------------------------------------------------------------------===//
// StackPool and GlobalPool
//===----------------------------------------------------------------------===//

TEST(StackPoolTest, LifoFrames) {
  LowFatHeap Heap;
  StackPool Stack(Heap);
  size_t Outer = Stack.mark();
  void *A = Stack.allocate(64);
  size_t Inner = Stack.mark();
  void *B = Stack.allocate(128);
  EXPECT_TRUE(Heap.isLowFat(B));
  EXPECT_EQ(Stack.liveObjects(), 2u);
  Stack.release(Inner);
  EXPECT_EQ(Stack.liveObjects(), 1u) << "frame exit frees its objects";
  EXPECT_EQ(Heap.allocationBase(A), A) << "outer object still live";
  Stack.release(Outer);
  EXPECT_EQ(Stack.liveObjects(), 0u);
  EXPECT_EQ(Stack.framesReleased(), 2u);
}

TEST(StackPoolTest, BlocksSinceMark) {
  LowFatHeap Heap;
  StackPool Stack(Heap);
  size_t Mark = Stack.mark();
  void *A = Stack.allocate(32);
  void *B = Stack.allocate(32);
  auto Blocks = Stack.blocksSince(Mark);
  ASSERT_EQ(Blocks.size(), 2u);
  EXPECT_EQ(Blocks[0].Ptr, A);
  EXPECT_EQ(Blocks[1].Ptr, B);
  Stack.release(Mark);
}

TEST(StackPoolTest, EscapingSlotsQuarantineBeforeReuse) {
  // Escaping (address-taken) slots are retired through a FIFO
  // quarantine instead of being freed at frame pop, so a dangling
  // frame pointer keeps addressing a block whose META the runtime
  // rebound — the stack use-after-return detection window.
  LowFatHeap Heap;
  StackPool::Options Opts;
  Opts.QuarantineBytes = 1 << 12;
  StackPool Stack(Heap, 0, Opts);
  // An outer "main" frame keeps the program alive: the quarantine only
  // holds blocks while some frame remains (it drains once the pool
  // empties — no frame left for a pointer to dangle out of).
  Stack.allocate(16, /*Retire=*/false);
  size_t Mark = Stack.mark();
  void *Escapes = Stack.allocate(64, /*Retire=*/true);
  void *Plain = Stack.allocate(64, /*Retire=*/false);
  Stack.release(Mark);
  EXPECT_EQ(Stack.liveObjects(), 1u);
  EXPECT_EQ(Stack.quarantinedBlocks(), 1u)
      << "only the escaping slot is quarantined";
  EXPECT_GT(Stack.quarantinedBytes(), 0u);
  // The quarantined block still answers base(p)/size(p) queries.
  EXPECT_EQ(Heap.allocationBase(Escapes), Escapes);
  (void)Plain;

  // Overflowing the byte budget evicts oldest-first back to the heap.
  for (int I = 0; I < 256; ++I) {
    size_t M = Stack.mark();
    Stack.allocate(64, /*Retire=*/true);
    Stack.release(M);
  }
  EXPECT_LE(Stack.quarantinedBytes(), Opts.QuarantineBytes);
  EXPECT_GE(Stack.retiredBlocks(), 257u);

  // Popping the outermost frame ends the detection window: everything
  // returns to the heap and the pool is empty.
  Stack.release(0);
  EXPECT_EQ(Stack.liveObjects(), 0u);
  EXPECT_EQ(Stack.quarantinedBlocks(), 0u);
  EXPECT_EQ(Stack.quarantinedBytes(), 0u);
}

TEST(GlobalPoolTest, RegistersAndLooksUp) {
  LowFatHeap Heap;
  GlobalPool Globals(Heap);
  void *G = Globals.allocate(256, "my_global");
  EXPECT_TRUE(Heap.isLowFat(G));
  EXPECT_EQ(Globals.lookup("my_global"), G);
  EXPECT_EQ(Globals.lookup("missing"), nullptr);
  EXPECT_EQ(Globals.size(), 1u);
}

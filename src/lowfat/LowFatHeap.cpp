//===- lowfat/LowFatHeap.cpp - Low-fat pointer heap allocator -------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "lowfat/LowFatHeap.h"

#include "obs/Trace.h"
#include "resilience/Fault.h"
#include "support/Compiler.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <sys/mman.h>

using namespace effective;
using namespace effective::lowfat;

/// Intrusive free-list link. Placed 16 bytes into the block so that the
/// freed object's META header survives until reallocation (Section 5:
/// "the low-fat allocator has also been modified to ensure that the meta
/// data will be preserved until the memory is reallocated").
struct LowFatHeap::FreeNode {
  FreeNode *Next;
};

/// Byte offset of the intrusive link inside a free block.
static constexpr size_t FreeLinkOffset = 16;

/// Frees batched per thread before one locked quarantine-FIFO flush.
static constexpr size_t QuarantineFlushCount = 16;

/// Bytes of fresh blocks a thread carves per span (rounded down to whole
/// blocks; one block for classes this large or larger). Several pages,
/// because threads sharing pages cost more than sharing cache lines.
static constexpr uint64_t SpanBytes = 16 << 10;

static uint64_t spanBytesFor(uint64_t Block) {
  return Block >= SpanBytes ? Block : SpanBytes / Block * Block;
}

static_assert(MinClassSize >= FreeLinkOffset + sizeof(void *),
              "smallest class must fit META header plus free-list link");

//===----------------------------------------------------------------------===//
// Thread caches: per-thread magazines + quarantine batches
//===----------------------------------------------------------------------===//

/// The per-(thread, heap) cache: one magazine per size class (bound to
/// one shard at a time), a spare chain of refill overflow, and the
/// batched quarantine buffer. A block of the heap's ThreadBlocks
/// registry: written only by its thread, except for the fields stats()
/// reads, which are atomics.
struct LowFatHeap::ThreadCache {
  /// The shard the magazines hold blocks of (~0u = unbound).
  std::atomic<unsigned> BoundShard{~0u};
  /// The bound shard's epoch as of binding; a mismatch with the live
  /// epoch means resetShard() recycled the arena slice and every cached
  /// block must be discarded, never replayed.
  std::atomic<uint64_t> ShardEpoch{0};
  /// The bound shard's statistics the cache counted since binding, all
  /// owner-written: magazine hits and refills, allocations and frees
  /// (ownerBump), the net block bytes they moved that are not yet
  /// folded into the shard's byte counter (modular: freeing another
  /// thread's block can take it below zero), and the peak of the
  /// shard's counter plus those bytes as the owner saw it. Folded into
  /// the shard's counters when the cache retires the shard; dropped
  /// with the cached blocks when the epoch went stale, since they
  /// belonged to the pre-reset tenant.
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Refills{0};
  std::atomic<uint64_t> Allocs{0};
  std::atomic<uint64_t> Frees{0};
  std::atomic<uint64_t> Bytes{0};
  std::atomic<uint64_t> Peak{0};
  /// The owning thread's token (ThreadBlocks), 0 while free.
  std::atomic<uint64_t> Owner{0};
  ThreadCache *Next = nullptr;
  /// The heap whose list holds the cache (null while pooled).
  LowFatHeap *Heap = nullptr;
  unsigned MagSize = 0;
  /// Blocks per class currently in the magazine arrays.
  uint16_t Counts[NumSizeClasses] = {};
  /// Refill overflow: the rest of a popped free list, consumed by later
  /// refills without touching shared state. Owned by BoundShard.
  FreeNode *Spare[NumSizeClasses] = {};
  /// Per class, the unissued rest [SpanNext, SpanEnd) of the span last
  /// carved from BoundShard's bump pointer. SpanNext == SpanEnd != 0
  /// once the class has carved since the spans were last dropped, so
  /// its next carve takes a whole span; 0 and 0 make the next carve the
  /// first, one block.
  uintptr_t SpanNext[NumSizeClasses] = {};
  uintptr_t SpanEnd[NumSizeClasses] = {};
  /// Magazine storage: NumSizeClasses x MagSize slots (null when
  /// magazines are disabled — the cache then only batches quarantine).
  std::unique_ptr<void *[]> Slots;

  struct PendingFree {
    void *Ptr;
    unsigned Class;
    unsigned Shard;
    uint64_t Epoch; ///< Shard epoch at free time (staleness filter).
  };
  std::vector<PendingFree> Pending;
  size_t PendingBytes = 0;

  /// Joins \p H's list, sizing the magazines for \p H (a pooled cache
  /// may come from a heap with another MagazineSize).
  void attach(LowFatHeap &H) {
    Heap = &H;
    if (MagSize != H.MagSize) {
      MagSize = H.MagSize;
      Slots = MagSize ? std::make_unique<void *[]>(
                            static_cast<size_t>(NumSizeClasses) * MagSize)
                      : nullptr;
    }
    Pending.reserve(QuarantineFlushCount);
  }

  /// ThreadBlocks hooks. An exiting thread's cache flushes back to its
  /// live heap and is left empty for the next thread. A dying heap's
  /// caches forget their blocks: the arena is about to be unmapped.
  void threadExit() { Heap->flushCache(*this); }
  void recycle() {
    BoundShard.store(~0u, std::memory_order_relaxed);
    ShardEpoch.store(0, std::memory_order_relaxed);
    clearCounts();
    Heap = nullptr;
    std::memset(Counts, 0, sizeof(Counts));
    std::memset(Spare, 0, sizeof(Spare));
    dropSpans();
    Pending.clear();
    PendingBytes = 0;
  }

  void dropSpans() {
    std::memset(SpanNext, 0, sizeof(SpanNext));
    std::memset(SpanEnd, 0, sizeof(SpanEnd));
  }

  void clearCounts() {
    for (std::atomic<uint64_t> *C : {&Hits, &Refills, &Allocs, &Frees,
                                     &Bytes, &Peak})
      C->store(0, std::memory_order_relaxed);
  }

  void **slots(unsigned ClassIndex) {
    return Slots.get() + static_cast<size_t>(ClassIndex) * MagSize;
  }
};

LowFatHeap::ThreadCache *LowFatHeap::threadCache() {
  if (ThreadCache *TC = Caches.recent(); EFFSAN_LIKELY(TC != nullptr))
    return TC;
  return &Caches.lookup([this](ThreadCache &TC) { TC.attach(*this); });
}

//===----------------------------------------------------------------------===//
// Construction / destruction
//===----------------------------------------------------------------------===//

LowFatHeap::LowFatHeap(const HeapOptions &Options) {
  assert(std::has_single_bit(Options.RegionSize) &&
         "region size must be a power of two");
  QuarantineLimit = Options.QuarantineBytes;
  Shards = Options.NumShards < 1 ? 1 : Options.NumShards;
  if (Shards > MaxHeapShards)
    Shards = MaxHeapShards;
  MagSize = Options.MagazineSize > MaxMagazineSize ? MaxMagazineSize
                                                   : Options.MagazineSize;
  WorkStealing = Options.EnableWorkStealing;

  // Reserve the arena; retry with smaller regions if the reservation is
  // refused. MAP_NORESERVE keeps untouched pages free of charge. With
  // more than one shard the region is capped at 2^31 bytes so the
  // shard-of-address division is an exact single high multiply.
  uint64_t TryRegion = Options.RegionSize;
  if (Shards > 1 && TryRegion > (1ull << 31))
    TryRegion = 1ull << 31;
  void *Arena = MAP_FAILED;
  size_t ArenaBytes = 0;
  while (TryRegion >= (1ull << 26)) {
    ArenaBytes = TryRegion * NumSizeClasses;
    Arena = ::mmap(nullptr, ArenaBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (Arena != MAP_FAILED)
      break;
    TryRegion >>= 1;
  }
  if (Arena == MAP_FAILED) {
    std::fprintf(stderr,
                 "FATAL: low-fat heap: cannot reserve arena (%zu bytes)\n",
                 ArenaBytes);
    std::abort();
  }
  RegionSize = TryRegion;
  RegionShift = static_cast<unsigned>(std::countr_zero(RegionSize));
  ArenaBase = reinterpret_cast<uintptr_t>(Arena);
  ArenaEnd = ArenaBase + ArenaBytes;

  Subs = std::make_unique<SubRegion[]>(
      static_cast<size_t>(NumSizeClasses) * Shards);
  Counters = std::make_unique<ShardCounters[]>(Shards);
  Quarantines = std::make_unique<ShardQuarantine[]>(Shards);
  ShardEpochs = std::make_unique<std::atomic<uint64_t>[]>(Shards);
  for (unsigned S = 0; S < Shards; ++S)
    ShardEpochs[S].store(1, std::memory_order_relaxed);

  for (unsigned I = 0; I < NumSizeClasses; ++I) {
    Region &R = Regions[I];
    R.Begin = ArenaBase + static_cast<uintptr_t>(I) * RegionSize;
    // Each shard's slice is the largest class-size multiple that fits;
    // slices are contiguous from the region base, so every block in any
    // slice sits at a class-aligned offset and base(p) stays a single
    // modulo over the whole region.
    R.SubCapacity = RegionSize / Shards / classSize(I) * classSize(I);
    R.UsableEnd = R.Begin + R.SubCapacity * Shards;
    R.SubMagic = R.SubCapacity ? UINT64_MAX / R.SubCapacity + 1 : 0;
    for (unsigned S = 0; S < Shards; ++S) {
      SubRegion &Sub = subRegion(I, S);
      Sub.Begin = R.Begin + static_cast<uintptr_t>(S) * R.SubCapacity;
      Sub.End = Sub.Begin + R.SubCapacity;
      Sub.Bump.store(Sub.Begin, std::memory_order_relaxed);
    }
  }
}

LowFatHeap::~LowFatHeap() {
  // Before unmapping: once the caches are back in the process pool no
  // thread-exit flush touches the heap (exits flush under the same lock,
  // and only caches that still carry their thread's token).
  Caches.retireAll();
  ::munmap(reinterpret_cast<void *>(ArenaBase), ArenaEnd - ArenaBase);
  for (auto &Entry : LegacyAllocs)
    std::free(Entry.first);
  delete[] HighWater.load(std::memory_order_relaxed);
}

LowFatHeap &LowFatHeap::global() {
  static LowFatHeap Heap;
  return Heap;
}

//===----------------------------------------------------------------------===//
// Statistics plumbing
//===----------------------------------------------------------------------===//

/// Raises \p Peak to \p Now; signed, so a sum below zero is no peak.
/// Load and store, not a CAS loop: exact when one thread writes the
/// peak, a statistical maximum otherwise.
static void raisePeak(std::atomic<uint64_t> &Peak, uint64_t Now) {
  if (static_cast<int64_t>(Now) >
      static_cast<int64_t>(Peak.load(std::memory_order_relaxed)))
    Peak.store(Now, std::memory_order_relaxed);
}

EFFSAN_ALWAYS_INLINE void LowFatHeap::countAlloc(ThreadCache &TC,
                                                 unsigned Shard,
                                                 uint64_t Block, bool Fold) {
  ownerBump(TC.Allocs);
  uint64_t Bytes = TC.Bytes.load(std::memory_order_relaxed) + Block;
  std::atomic<uint64_t> &Shared = Counters[Shard].BlockBytesInUse;
  uint64_t Now;
  if (Fold) {
    Now = Shared.fetch_add(Bytes, std::memory_order_relaxed) + Bytes;
    Bytes = 0;
  } else {
    Now = Shared.load(std::memory_order_relaxed) + Bytes;
  }
  TC.Bytes.store(Bytes, std::memory_order_relaxed);
  raisePeak(TC.Peak, Now);
}

EFFSAN_ALWAYS_INLINE void LowFatHeap::countFree(ThreadCache &TC,
                                                unsigned Shard,
                                                uint64_t Block, bool Fold) {
  ownerBump(TC.Frees);
  uint64_t Bytes = TC.Bytes.load(std::memory_order_relaxed) - Block;
  if (Fold) {
    Counters[Shard].BlockBytesInUse.fetch_add(Bytes,
                                              std::memory_order_relaxed);
    Bytes = 0;
  }
  TC.Bytes.store(Bytes, std::memory_order_relaxed);
}

void LowFatHeap::noteAlloc(unsigned Shard, size_t Block, bool Legacy) {
  ShardCounters &C = Counters[Shard];
  uint64_t Now = C.BlockBytesInUse.fetch_add(Block,
                                             std::memory_order_relaxed) +
                 Block;
  C.NumAllocs.fetch_add(1, std::memory_order_relaxed);
  if (Legacy)
    C.NumLegacyAllocs.fetch_add(1, std::memory_order_relaxed);
  // The calling thread's unfolded bytes on the shard belong to the
  // peak, which keeps it exact single-threaded.
  if (MagSize != 0) {
    ThreadCache *TC = threadCache();
    if (TC->BoundShard.load(std::memory_order_relaxed) == Shard &&
        TC->ShardEpoch.load(std::memory_order_relaxed) ==
            ShardEpochs[Shard].load(std::memory_order_relaxed))
      Now += TC->Bytes.load(std::memory_order_relaxed);
  }
  raisePeak(C.PeakBlockBytesInUse, Now);
}

void LowFatHeap::noteFree(unsigned Shard, size_t Block) {
  ShardCounters &C = Counters[Shard];
  C.BlockBytesInUse.fetch_sub(Block, std::memory_order_relaxed);
  C.NumFrees.fetch_add(1, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Lock-free sub-arena primitives
//===----------------------------------------------------------------------===//

std::pair<uintptr_t, uintptr_t> LowFatHeap::carve(SubRegion &Sub,
                                                  uint64_t Block,
                                                  uint64_t Want,
                                                  uintptr_t Clean) {
  uintptr_t Cur = Sub.Bump.load(std::memory_order_relaxed);
  while (Cur + Block <= Sub.End) {
    uint64_t Bytes =
        Cur < Clean ? Block : std::min(Want, (Sub.End - Cur) / Block * Block);
    // Release pairs with isLowFat()'s acquire: Bump never overshoots
    // End, so a reader can never see a beyond-slice bump value.
    if (Sub.Bump.compare_exchange_weak(Cur, Cur + Bytes,
                                       std::memory_order_release,
                                       std::memory_order_relaxed))
      return {Cur, Cur + Bytes};
  }
  return {0, 0};
}

void LowFatHeap::pushFreeChain(SubRegion &Sub, FreeNode *First,
                               FreeNode *Last) {
  FreeNode *Head = Sub.FreeList.load(std::memory_order_relaxed);
  do {
    Last->Next = Head;
    // Release publishes the chain's links (and the freeing thread's
    // writes into the blocks) to the consumer's acquire exchange. The
    // compare is on the head pointer only and the chain is exclusively
    // ours, so a concurrent pop-all/push cannot corrupt anything
    // (no-ABA: nobody pops single nodes).
  } while (!Sub.FreeList.compare_exchange_weak(Head, First,
                                               std::memory_order_release,
                                               std::memory_order_relaxed));
}

void LowFatHeap::pushFreeBlock(SubRegion &Sub, void *Ptr) {
  auto *Node = reinterpret_cast<FreeNode *>(static_cast<char *>(Ptr) +
                                            FreeLinkOffset);
  pushFreeChain(Sub, Node, Node);
}

//===----------------------------------------------------------------------===//
// Spans: thread-private runs of fresh blocks
//===----------------------------------------------------------------------===//

void *LowFatHeap::spanAlloc(ThreadCache &TC, unsigned ClassIndex,
                            unsigned Shard) {
  uint64_t Block = classSize(ClassIndex);
  uintptr_t &Next = TC.SpanNext[ClassIndex];
  uintptr_t &End = TC.SpanEnd[ClassIndex];
  bool Carve = Next == End;
  if (Carve) {
    // A class's first carve since the spans were dropped is one block,
    // so a class used once stays compact.
    const std::atomic<uintptr_t> *Marks =
        HighWater.load(std::memory_order_acquire);
    uintptr_t Clean =
        Marks ? Marks[ClassIndex * Shards + Shard].load(
                    std::memory_order_relaxed)
              : 0;
    auto [Begin, RunEnd] =
        carve(subRegion(ClassIndex, Shard), Block,
              End == 0 ? Block : spanBytesFor(Block), Clean);
    if (!Begin)
      return nullptr;
    Next = Begin;
    End = RunEnd;
  }
  void *Result = reinterpret_cast<void *>(Next);
  Next += Block;
  countAlloc(TC, Shard, Block, /*Fold=*/Carve);
  return Result;
}

std::atomic<uintptr_t> *LowFatHeap::highWaterMarks() {
  std::atomic<uintptr_t> *Marks = HighWater.load(std::memory_order_acquire);
  if (Marks)
    return Marks;
  // Shards reset concurrently under their own locks: one allocation
  // wins, the others free theirs.
  auto *Fresh =
      new std::atomic<uintptr_t>[static_cast<size_t>(NumSizeClasses) *
                                 Shards]();
  if (HighWater.compare_exchange_strong(Marks, Fresh,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire))
    return Fresh;
  delete[] Fresh;
  return Marks;
}

void LowFatHeap::returnSpans(ThreadCache &TC) {
  unsigned Bound = TC.BoundShard.load(std::memory_order_relaxed);
  for (unsigned C = 0; C < NumSizeClasses; ++C) {
    uintptr_t Next = TC.SpanNext[C], End = TC.SpanEnd[C];
    if (Next == End)
      continue;
    SubRegion &Sub = subRegion(C, Bound);
    // Bump == End means no carve followed the span, so the tail is
    // still the newest carved memory and goes back to the bump pointer
    // untouched.
    uintptr_t Expected = End;
    if (Sub.Bump.compare_exchange_strong(Expected, Next,
                                         std::memory_order_release,
                                         std::memory_order_relaxed))
      continue;
    // Otherwise the tail joins the free list as one chain, so the
    // class's next refill on this shard takes it before carving more.
    // The links sit past the META header, which stays zero.
    uint64_t Block = classSize(C);
    auto NodeAt = [](uintptr_t B) {
      return reinterpret_cast<FreeNode *>(B + FreeLinkOffset);
    };
    FreeNode *First = NodeAt(Next), *Last = First;
    for (uintptr_t B = Next + Block; B < End; B += Block) {
      Last->Next = NodeAt(B);
      Last = Last->Next;
    }
    pushFreeChain(Sub, First, Last);
  }
}

//===----------------------------------------------------------------------===//
// Magazine management
//===----------------------------------------------------------------------===//

/// Refills the magazine for \p ClassIndex from the thread's spare chain
/// or, when that is dry, by taking the bound sub-arena's entire free
/// list in one exchange (ABA-free pop-all). Returns true when at least
/// one block landed in the magazine.
bool LowFatHeap::refillMagazine(ThreadCache &TC, unsigned ClassIndex,
                                unsigned Shard) {
  if (EFFSAN_FAULT(HeapMagazineRefill))
    return false; // Induced refill failure: fall through to bump/exhaust.
  FreeNode *&Spare = TC.Spare[ClassIndex];
  if (!Spare) {
    Spare = subRegion(ClassIndex, Shard)
                .FreeList.exchange(nullptr, std::memory_order_acquire);
    if (!Spare)
      return false;
  }
  void **Slots = TC.slots(ClassIndex);
  uint16_t &N = TC.Counts[ClassIndex];
  uint16_t Before = N;
  while (N < MagSize && Spare) {
    Slots[N++] = reinterpret_cast<char *>(Spare) - FreeLinkOffset;
    Spare = Spare->Next;
  }
  ownerBump(TC.Refills);
  EFFSAN_OBS_EVENT(MagazineRefill, Shard, N - Before);
  return true;
}

/// Returns the older half of a full magazine to the bound sub-arena's
/// free list in a single chain push, keeping the newer half for reuse
/// hysteresis.
void LowFatHeap::flushMagazineHalf(ThreadCache &TC, unsigned ClassIndex) {
  void **Slots = TC.slots(ClassIndex);
  unsigned N = TC.Counts[ClassIndex];
  unsigned Flush = N - N / 2;
  unsigned Bound = TC.BoundShard.load(std::memory_order_relaxed);
  assert(Flush > 0 && Bound != ~0u);
  FreeNode *First = nullptr, *Prev = nullptr;
  for (unsigned I = 0; I < Flush; ++I) {
    auto *Node = reinterpret_cast<FreeNode *>(
        static_cast<char *>(Slots[I]) + FreeLinkOffset);
    if (Prev)
      Prev->Next = Node;
    else
      First = Node;
    Prev = Node;
  }
  pushFreeChain(subRegion(ClassIndex, Bound), First, Prev);
  std::memmove(Slots, Slots + Flush, (N - Flush) * sizeof(void *));
  TC.Counts[ClassIndex] = static_cast<uint16_t>(N - Flush);
  EFFSAN_OBS_EVENT(MagazineFlush, Bound, Flush);
}

/// Pushes every magazine block and spare chain back to the bound
/// shard's free lists. \pre the bound shard's epoch is still current.
void LowFatHeap::flushMagazines(ThreadCache &TC) {
  unsigned Bound = TC.BoundShard.load(std::memory_order_relaxed);
  for (unsigned C = 0; C < NumSizeClasses; ++C) {
    if (TC.Counts[C] > 0) {
      unsigned N = TC.Counts[C];
      void **Slots = TC.slots(C);
      FreeNode *First = nullptr, *Prev = nullptr;
      for (unsigned I = 0; I < N; ++I) {
        auto *Node = reinterpret_cast<FreeNode *>(
            static_cast<char *>(Slots[I]) + FreeLinkOffset);
        if (Prev)
          Prev->Next = Node;
        else
          First = Node;
        Prev = Node;
      }
      pushFreeChain(subRegion(C, Bound), First, Prev);
      TC.Counts[C] = 0;
    }
    if (TC.Spare[C]) {
      FreeNode *Tail = TC.Spare[C];
      while (Tail->Next)
        Tail = Tail->Next;
      pushFreeChain(subRegion(C, Bound), TC.Spare[C], Tail);
      TC.Spare[C] = nullptr;
    }
  }
}

/// Retires the cache's magazines: flush back to the bound shard if its
/// epoch is still current, drop otherwise. The epoch re-check and the
/// flush happen under the shard's quarantine lock, which resetShard()
/// also holds while recycling — so a thread that stopped using a shard
/// long ago (rebind to another shard, thread exit) can never interleave
/// its lazy flush with a reset and repopulate the recycled free lists
/// with pre-reset blocks. Active-use paths stay lock-free; this lock
/// sits only on rebind/exit.
void LowFatHeap::retireMagazines(ThreadCache &TC) {
  unsigned Bound = TC.BoundShard.load(std::memory_order_relaxed);
  if (Bound == ~0u)
    return;
  ShardQuarantine &Q = Quarantines[Bound];
  std::lock_guard<std::mutex> Guard(Q.Lock);
  if (TC.ShardEpoch.load(std::memory_order_relaxed) ==
      ShardEpochs[Bound].load(std::memory_order_relaxed)) {
    ShardCounters &C = Counters[Bound];
    auto Fold = [](std::atomic<uint64_t> &To, std::atomic<uint64_t> &From) {
      To.fetch_add(From.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    };
    Fold(C.MagazineHits, TC.Hits);
    Fold(C.MagazineRefills, TC.Refills);
    Fold(C.NumAllocs, TC.Allocs);
    Fold(C.NumFrees, TC.Frees);
    Fold(C.BlockBytesInUse, TC.Bytes);
    raisePeak(C.PeakBlockBytesInUse, TC.Peak.load(std::memory_order_relaxed));
    flushMagazines(TC);
    returnSpans(TC);
  } else {
    // Stale: the shard was reset; the addresses belong to a new
    // tenant now (or will). Forget them, and the counts with them: the
    // hits happened on the pre-reset tenant's watch, and the new
    // tenant's counters started from zero.
    std::memset(TC.Counts, 0, sizeof(TC.Counts));
    std::memset(TC.Spare, 0, sizeof(TC.Spare));
  }
  TC.dropSpans();
  TC.clearCounts();
}

/// Rebinds the cache to \p Shard after retiring the old shard's blocks.
void LowFatHeap::rebindCache(ThreadCache &TC, unsigned Shard) {
  retireMagazines(TC);
  TC.BoundShard.store(Shard, std::memory_order_relaxed);
  TC.ShardEpoch.store(ShardEpochs[Shard].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
}

void LowFatHeap::flushCache(ThreadCache &TC) {
  retireMagazines(TC);
  if (!TC.Pending.empty())
    flushPendingQuarantine(TC);
}

void LowFatHeap::flushThreadCache() { flushCache(*threadCache()); }

size_t LowFatHeap::numThreadCaches() const { return Caches.size(); }

//===----------------------------------------------------------------------===//
// Allocation
//===----------------------------------------------------------------------===//

void *LowFatHeap::allocateOnShard(size_t Size, unsigned Shard) {
  assert(Shard < Shards && "shard index out of range");
  if (Size == 0)
    Size = 1;
  if (Size > MaxClassSize || Size > RegionSize)
    return allocateLegacy(Size, Shard); // Oversized, not exhausted.

  unsigned ClassIndex = sizeToClass(Size);
  uint64_t Block = classSize(ClassIndex);

  ThreadCache *TC = nullptr;
  if (EFFSAN_LIKELY(MagSize != 0)) {
    TC = threadCache();
    if (EFFSAN_UNLIKELY(
            TC->BoundShard.load(std::memory_order_relaxed) != Shard ||
            TC->ShardEpoch.load(std::memory_order_relaxed) !=
                ShardEpochs[Shard].load(std::memory_order_relaxed)))
      rebindCache(*TC, Shard);
    uint16_t &N = TC->Counts[ClassIndex];
    if (EFFSAN_LIKELY(N > 0)) {
      // The steady state: a TLS array pop. No lock, no RMW atomic —
      // the hit and the allocation count in the cache, written only by
      // this thread.
      void *Result = TC->slots(ClassIndex)[--N];
      ownerBump(TC->Hits);
      countAlloc(*TC, Shard, Block, /*Fold=*/false);
      return Result;
    }
    if (refillMagazine(*TC, ClassIndex, Shard)) {
      void *Result = TC->slots(ClassIndex)[--TC->Counts[ClassIndex]];
      countAlloc(*TC, Shard, Block, /*Fold=*/true);
      return Result;
    }
  } else {
    // Magazines disabled: serve straight off the Treiber list. Pop-all
    // then push the remainder back — the stack stays ABA-free because
    // no path ever pops a single node it does not own.
    SubRegion &Sub = subRegion(ClassIndex, Shard);
    FreeNode *All = Sub.FreeList.exchange(nullptr,
                                          std::memory_order_acquire);
    if (All) {
      if (FreeNode *Rest = All->Next) {
        FreeNode *Tail = Rest;
        while (Tail->Next)
          Tail = Tail->Next;
        pushFreeChain(Sub, Rest, Tail);
      }
      noteAlloc(Shard, Block, /*Legacy=*/false);
      return reinterpret_cast<char *>(All) - FreeLinkOffset;
    }
  }

  // Fresh memory: the thread's span, or with magazines off one block
  // straight off the bump pointer. An induced slice exhaustion skips
  // both and takes the same steal-then-legacy fallback a genuinely dry
  // slice takes.
  if (EFFSAN_LIKELY(!EFFSAN_FAULT(HeapSliceExhausted))) {
    if (TC) {
      if (void *Result = spanAlloc(*TC, ClassIndex, Shard))
        return Result;
    } else if (void *Result = bumpAlloc(subRegion(ClassIndex, Shard), Block)) {
      noteAlloc(Shard, Block, /*Legacy=*/false);
      return Result;
    }
  }
  return allocateExhausted(Size, ClassIndex, Shard);
}

void *LowFatHeap::allocateExhausted(size_t Size, unsigned ClassIndex,
                                    unsigned Shard) {
  uint64_t Block = classSize(ClassIndex);
  if (WorkStealing && Shards > 1) {
    // Refill from a sibling's slice of the same class region. The
    // stolen block lives in the sibling's slice, so base(p)/size(p)
    // stay the same global arithmetic and a later free returns it to
    // the sibling (shardOf is address-derived). Stats attribute the
    // block to its owning (victim) shard for alloc/free symmetry; the
    // steal itself is counted against the requesting shard.
    //
    // Each victim is probed under its quarantine lock — the lock
    // resetShard holds while recycling — so a steal can never
    // interleave with a concurrent reset of the victim (per-shard
    // reset while sibling shards keep allocating is the pool's normal
    // tenant-recycling pattern): the steal completes entirely before
    // the recycle (the block is then a "borrowed block" under the
    // documented contract extension) or entirely after (it serves
    // from the victim's fresh slice like any post-reset allocation).
    // Steals are the rare dry-slice path, so the lock costs the fast
    // path nothing.
    for (unsigned I = 1; I < Shards; ++I) {
      unsigned Victim = (Shard + I) % Shards;
      SubRegion &Sub = subRegion(ClassIndex, Victim);
      std::lock_guard<std::mutex> Guard(Quarantines[Victim].Lock);
      FreeNode *All = Sub.FreeList.exchange(nullptr,
                                            std::memory_order_acquire);
      if (All) {
        if (FreeNode *Rest = All->Next) {
          FreeNode *Tail = Rest;
          while (Tail->Next)
            Tail = Tail->Next;
          pushFreeChain(Sub, Rest, Tail);
        }
        Counters[Shard].Steals.fetch_add(1, std::memory_order_relaxed);
        noteAlloc(Victim, Block, /*Legacy=*/false);
        EFFSAN_OBS_EVENT(Steal, Shard, Victim);
        return reinterpret_cast<char *>(All) - FreeLinkOffset;
      }
      if (void *Result = bumpAlloc(Sub, Block)) {
        Counters[Shard].Steals.fetch_add(1, std::memory_order_relaxed);
        noteAlloc(Victim, Block, /*Legacy=*/false);
        EFFSAN_OBS_EVENT(Steal, Shard, Victim);
        return Result;
      }
    }
  }
  Counters[Shard].ExhaustFallbacks.fetch_add(1, std::memory_order_relaxed);
  return allocateLegacy(Size, Shard);
}

void *LowFatHeap::allocateLegacy(size_t Size, unsigned Shard) {
  // Real OOM degrades gracefully: the null propagates up to the typed
  // allocation layer, which turns it into a diagnosable
  // resource-exhausted report instead of aborting the host process.
  void *Ptr = std::malloc(Size);
  if (EFFSAN_UNLIKELY(!Ptr))
    return nullptr;
  {
    std::lock_guard<std::mutex> Guard(LegacyLock);
    LegacyAllocs.emplace(
        Ptr, LegacyBlock{Size, Shard,
                         ShardEpochs[Shard].load(std::memory_order_relaxed)});
  }
  noteAlloc(Shard, Size, /*Legacy=*/true);
  return Ptr;
}

bool LowFatHeap::deallocateLegacy(void *Ptr) {
  LegacyBlock Block;
  {
    std::lock_guard<std::mutex> Guard(LegacyLock);
    auto It = LegacyAllocs.find(Ptr);
    if (It == LegacyAllocs.end())
      return false;
    Block = It->second;
    LegacyAllocs.erase(It);
  }
  std::free(Ptr);
  // resetShard() zeroed the statistics this block was counted in, so
  // the free of a block that outlived a reset counts nowhere.
  if (Block.Epoch ==
      ShardEpochs[Block.Shard].load(std::memory_order_relaxed))
    noteFree(Block.Shard, Block.Size);
  return true;
}

//===----------------------------------------------------------------------===//
// Deallocation and quarantine
//===----------------------------------------------------------------------===//

void LowFatHeap::deallocate(void *Ptr) {
  if (!Ptr)
    return;
  if (!isLowFat(Ptr)) {
    bool Known = deallocateLegacy(Ptr);
    assert(Known && "deallocate of pointer not owned by this heap");
    (void)Known;
    return;
  }
  assert(Ptr == allocationBase(Ptr) &&
         "deallocate of an interior pointer");
  unsigned ClassIndex = allocationClass(Ptr);
  unsigned Shard = shardOf(Ptr);
  uint64_t Block = classSize(ClassIndex);

  if (EFFSAN_UNLIKELY(QuarantineLimit != 0)) {
    noteFree(Shard, Block);
    quarantineBlock(Ptr, ClassIndex, Shard);
    return;
  }

  if (EFFSAN_LIKELY(MagSize != 0)) {
    ThreadCache *TC = threadCache();
    if (EFFSAN_LIKELY(
            TC->BoundShard.load(std::memory_order_relaxed) == Shard &&
            TC->ShardEpoch.load(std::memory_order_relaxed) ==
                ShardEpochs[Shard].load(std::memory_order_relaxed))) {
      // The steady state: a TLS array push (the block's memory is not
      // even touched, so the META header trivially survives), counted
      // in the cache. A full magazine flushes half to the shard, and
      // the byte count folds in with it.
      bool Full = TC->Counts[ClassIndex] == MagSize;
      if (EFFSAN_UNLIKELY(Full))
        flushMagazineHalf(*TC, ClassIndex);
      TC->slots(ClassIndex)[TC->Counts[ClassIndex]++] = Ptr;
      countFree(*TC, Shard, Block, /*Fold=*/Full);
      return;
    }
    // Cross-shard (or unbound) free: hand the block straight back to
    // its owning shard's lock-free list.
  }
  noteFree(Shard, Block);
  pushFreeBlock(subRegion(ClassIndex, Shard), Ptr);
}

void LowFatHeap::quarantineBlock(void *Ptr, unsigned ClassIndex,
                                 unsigned Shard) {
  uint64_t Block = classSize(ClassIndex);
  // Bytes are accounted when the block *enters* quarantine (even while
  // it is still in the thread-local batch), so stats and the eviction
  // budget see every parked block immediately.
  Counters[Shard].QuarantinedBytes.fetch_add(Block,
                                             std::memory_order_relaxed);
  ThreadCache *TC = threadCache();
  TC->Pending.push_back(
      {Ptr, ClassIndex, Shard,
       ShardEpochs[Shard].load(std::memory_order_relaxed)});
  TC->PendingBytes += Block;
  // Flush once per batch — one locked FIFO operation per
  // QuarantineFlushCount frees — or earlier when the batch alone
  // approaches the budget (so tiny budgets still evict promptly).
  if (TC->Pending.size() >= QuarantineFlushCount ||
      TC->PendingBytes * 2 >= QuarantineLimit)
    flushPendingQuarantine(*TC);
}

void LowFatHeap::flushPendingQuarantine(ThreadCache &TC) {
  auto &Pending = TC.Pending;
  if (!Pending.empty())
    EFFSAN_OBS_EVENT(QuarantineFlush, Pending.front().Shard, Pending.size());
  // An induced budget overrun evicts every parked block — the same FIFO
  // path a genuine breach takes, just down to an empty quarantine. The
  // use-after-free reuse delay shrinks; correctness is untouched.
  uint64_t Limit =
      EFFSAN_FAULT(HeapQuarantineOverrun) ? 0 : QuarantineLimit;
  size_t I = 0;
  while (I < Pending.size()) {
    unsigned Shard = Pending[I].Shard;
    ShardQuarantine &Q = Quarantines[Shard];
    std::atomic<uint64_t> &QBytes = Counters[Shard].QuarantinedBytes;
    std::lock_guard<std::mutex> Guard(Q.Lock);
    for (; I < Pending.size() && Pending[I].Shard == Shard; ++I) {
      if (Pending[I].Epoch !=
          ShardEpochs[Shard].load(std::memory_order_relaxed))
        continue; // resetShard() recycled it; the byte accounting was
                  // zeroed with the shard, so just forget the block.
      Q.Blocks.emplace_back(Pending[I].Ptr, Pending[I].Class);
    }
    // FIFO eviction down to the budget: oldest blocks return to the
    // lock-free free lists (all parked blocks belong to this shard).
    while (QBytes.load(std::memory_order_relaxed) > Limit &&
           !Q.Blocks.empty()) {
      auto [Oldest, OldClass] = Q.Blocks.front();
      Q.Blocks.pop_front();
      QBytes.fetch_sub(classSize(OldClass), std::memory_order_relaxed);
      pushFreeBlock(subRegion(OldClass, Shard), Oldest);
    }
  }
  Pending.clear();
  TC.PendingBytes = 0;
}

//===----------------------------------------------------------------------===//
// Metadata queries (isLowFat and allocationBase are inline in the header)
//===----------------------------------------------------------------------===//

size_t LowFatHeap::allocationSize(const void *Ptr) const {
  uintptr_t P = reinterpret_cast<uintptr_t>(Ptr);
  if (!isLowFat(Ptr))
    return SIZE_MAX;
  return classSize(regionIndexFor(P));
}

unsigned LowFatHeap::allocationClass(const void *Ptr) const {
  assert(isLowFat(Ptr) && "allocationClass on legacy pointer");
  return regionIndexFor(reinterpret_cast<uintptr_t>(Ptr));
}

unsigned LowFatHeap::shardOf(const void *Ptr) const {
  assert(isLowFat(Ptr) && "shardOf on legacy pointer");
  uintptr_t P = reinterpret_cast<uintptr_t>(Ptr);
  const Region &R = Regions[regionIndexFor(P)];
  return subIndexFor(R, P - R.Begin);
}

//===----------------------------------------------------------------------===//
// Shard recycling and statistics
//===----------------------------------------------------------------------===//

void LowFatHeap::resetShard(unsigned Shard) {
  assert(Shard < Shards && "shard index out of range");
  {
    // The quarantine lock serializes the recycle against lazy magazine
    // retirements (rebind-away / thread exit — see retireMagazines):
    // either a retirement flushes first and its blocks are cleared
    // here with the rest of the shard, or it runs after and observes
    // the advanced epoch and drops its blocks. Threads *actively*
    // allocating/freeing on the shard are excluded by this function's
    // precondition, as before.
    ShardQuarantine &Q = Quarantines[Shard];
    std::lock_guard<std::mutex> Guard(Q.Lock);
    // Advance the magazine epoch: any thread cache bound to this shard
    // (including the caller's) discards its blocks on next use instead
    // of replaying addresses into the recycled slice, and stale
    // quarantine batch entries are filtered at flush time.
    ShardEpochs[Shard].fetch_add(1, std::memory_order_release);
    // Drop the shard's quarantine; its entries point into the
    // sub-arenas that are about to be rewound.
    Q.Blocks.clear();
    std::atomic<uintptr_t> *Marks = highWaterMarks();
    for (unsigned I = 0; I < NumSizeClasses; ++I) {
      SubRegion &Sub = subRegion(I, Shard);
      Sub.FreeList.store(nullptr, std::memory_order_relaxed);
      // Everything below the old bump pointer may keep a stale header,
      // so no span is carved there again.
      std::atomic<uintptr_t> &Mark = Marks[I * Shards + Shard];
      uintptr_t Old = Sub.Bump.load(std::memory_order_relaxed);
      if (Old > Mark.load(std::memory_order_relaxed))
        Mark.store(Old, std::memory_order_relaxed);
      Sub.Bump.store(Sub.Begin, std::memory_order_release);
    }
  }
  ShardCounters &Out = Counters[Shard];
  EFFSAN_HEAP_STATS(EFFSAN_FIELD_CLEAR)
  EFFSAN_OBS_EVENT(ShardRecycle,
                   Shard, ShardEpochs[Shard].load(std::memory_order_relaxed));
}

HeapStats LowFatHeap::shardStats(unsigned Shard) const {
  assert(Shard < Shards && "shard index out of range");
  const ShardCounters &In = Counters[Shard];
  HeapStats Out;
  EFFSAN_HEAP_STATS(EFFSAN_FIELD_LOAD)
  // Add the counts of the caches bound to the shard's current epoch;
  // the rest were folded in above or belong to a recycled tenant. The
  // peak is the highest any of them saw.
  uint64_t Epoch = ShardEpochs[Shard].load(std::memory_order_relaxed);
  uint64_t Peak = Out.PeakBlockBytesInUse;
  for (const ThreadCache *TC = Caches.first(); TC; TC = TC->Next)
    if (TC->BoundShard.load(std::memory_order_relaxed) == Shard &&
        TC->ShardEpoch.load(std::memory_order_relaxed) == Epoch) {
      Out.MagazineHits += TC->Hits.load(std::memory_order_relaxed);
      Out.MagazineRefills += TC->Refills.load(std::memory_order_relaxed);
      Out.NumAllocs += TC->Allocs.load(std::memory_order_relaxed);
      Out.NumFrees += TC->Frees.load(std::memory_order_relaxed);
      Out.BlockBytesInUse += TC->Bytes.load(std::memory_order_relaxed);
      Peak = std::max(Peak, TC->Peak.load(std::memory_order_relaxed));
    }
  Out.BlockBytesInUse = clampBytes(Out.BlockBytesInUse);
  Out.PeakBlockBytesInUse = std::max(Peak, Out.BlockBytesInUse);
  return Out;
}

HeapStats LowFatHeap::stats() const {
  HeapStats Out;
  for (unsigned S = 0; S < Shards; ++S) {
    HeapStats In = shardStats(S);
    EFFSAN_HEAP_STATS(EFFSAN_FIELD_ADD)
  }
  return Out;
}

uint64_t LowFatHeap::classCarvedBytes(unsigned ClassIndex) const {
  assert(ClassIndex < NumSizeClasses && "class index out of range");
  uint64_t Total = 0;
  for (unsigned S = 0; S < Shards; ++S) {
    const SubRegion &Sub = subRegion(ClassIndex, S);
    Total += Sub.Bump.load(std::memory_order_relaxed) - Sub.Begin;
  }
  return Total;
}

//===- core/Runtime.cpp - The EffectiveSan runtime system -----------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"

#include "core/Layout.h"
#include "obs/Metrics.h"
#include "resilience/Fault.h"

#include <cassert>
#include <cstring>
#include <memory>

using namespace effective;

Runtime::Runtime(TypeContext &Ctx, const RuntimeOptions &Options)
    : Ctx(Ctx),
      OwnedHeap(std::make_unique<lowfat::LowFatHeap>(Options.Heap)),
      Heap(*OwnedHeap), Shard(0), Globals(Heap, Shard),
      Reporter(Options.Reporter),
      VoidPtrType(Ctx.getPointer(Ctx.getVoid())),
      Cache(Options.SiteCacheEntries),
      OwnedSites(Options.SharedSites
                     ? nullptr
                     : std::make_unique<SiteTableRegistry>()),
      Sites(Options.SharedSites ? *Options.SharedSites : *OwnedSites) {}

Runtime::Runtime(TypeContext &Ctx, lowfat::LowFatHeap &SharedHeap,
                 unsigned Shard, const RuntimeOptions &Options)
    : Ctx(Ctx), Heap(SharedHeap), Shard(Shard), Globals(Heap, Shard),
      Reporter(Options.Reporter),
      VoidPtrType(Ctx.getPointer(Ctx.getVoid())),
      Cache(Options.SiteCacheEntries),
      OwnedSites(Options.SharedSites
                     ? nullptr
                     : std::make_unique<SiteTableRegistry>()),
      Sites(Options.SharedSites ? *Options.SharedSites : *OwnedSites) {
  assert(Shard < Heap.numShards() && "shard index out of range");
}

Runtime &Runtime::global() {
  static Runtime RT(TypeContext::global());
  return RT;
}

//===----------------------------------------------------------------------===//
// Per-thread check counters
//===----------------------------------------------------------------------===//

CheckCounters::~CheckCounters() {
  // Free each pool's live and quarantined blocks into the runtime's
  // heap, which outlives this registry (see Runtime::Counters); the
  // blocks return to the process pool when Blocks is destroyed.
  for (CheckContext *C = Blocks.first(); C; C = C->Next)
    delete C->Stack.exchange(nullptr, std::memory_order_acquire);
}

CheckCounters::Snapshot CheckCounters::snapshot() const {
  Snapshot Sum;
  for (const CheckContext *C = Blocks.first(); C; C = C->Next) {
    const CheckContext &In = *C;
    Snapshot Out;
    EFFSAN_CHECK_COUNTERS(EFFSAN_FIELD_LOAD)
    Sum += Out;
  }
  return Sum;
}

void CheckCounters::reset() {
  for (CheckContext *C = Blocks.first(); C; C = C->Next) {
    CheckContext &Out = *C;
    EFFSAN_CHECK_COUNTERS(EFFSAN_FIELD_CLEAR)
  }
}

CheckCounters::StackTotals CheckCounters::stackTotals() const {
  StackTotals Sum;
  for (const CheckContext *C = Blocks.first(); C; C = C->Next)
    if (const lowfat::StackPool *Pool =
            C->Stack.load(std::memory_order_acquire)) {
      Sum.Allocs += Pool->totalAllocs();
      Sum.Frames += Pool->framesReleased();
      Sum.Retired += Pool->retiredBlocks();
    }
  return Sum;
}

void CheckCounters::abandonStacks() {
  for (CheckContext *C = Blocks.first(); C; C = C->Next)
    if (lowfat::StackPool *Pool =
            C->Stack.exchange(nullptr, std::memory_order_acquire)) {
      Pool->abandonAll();
      delete Pool;
    }
}

CheckContext &effective::unscopedContext() {
  Runtime *RT = defaultRuntimeSlot().load(std::memory_order_acquire);
  return (RT ? *RT : Runtime::global()).threadContext();
}

//===----------------------------------------------------------------------===//
// Typed allocation (Figure 6 lines 1-7)
//===----------------------------------------------------------------------===//

void *Runtime::allocate(size_t Size, const TypeInfo *Type) {
  return allocateOn(Shard, Size, Type);
}

/// Stores in \p Total the bytes a typed object of \p Size needs with its
/// META header. False when that wraps past SIZE_MAX: a size no arena can
/// serve, which the typed allocators refuse like an exhausted heap.
static bool blockSizeFor(size_t Size, size_t &Total) {
  return !__builtin_add_overflow(Size, sizeof(MetaHeader), &Total);
}

void *Runtime::allocateOn(unsigned OnShard, size_t Size,
                          const TypeInfo *Type) {
  size_t Total;
  void *Block = !blockSizeFor(Size, Total) || EFFSAN_FAULT(HeapExhausted)
                    ? nullptr
                    : Heap.allocateOnShard(Total, OnShard);
  if (EFFSAN_UNLIKELY(!Block)) {
    // Exhaustion (real OOM, an unservable size or an induced fault)
    // degrades to a diagnosable null: one resource-exhausted report per
    // requested type, and the caller receives the same null a failed
    // malloc hands a C program — never UB, never an abort of our own.
    Reporter.report(ErrorInfo{ErrorKind::ResourceExhausted, Type, nullptr,
                              0, nullptr,
                              "allocation failed: heap resources exhausted"});
    return nullptr;
  }
  if (EFFSAN_UNLIKELY(!Heap.isLowFat(Block))) {
    // Oversized request: the block is a legacy pointer; base(p) cannot
    // reach a META header, so the object is simply untyped (checked
    // with wide bounds), matching the paper's legacy-pointer story.
    return Block;
  }
  auto *Meta = static_cast<MetaHeader *>(Block);
  Meta->Type = Type;
  // META {null, 0} is left to blocks never handed out, which
  // deallocate() refuses; an untyped zero-byte object records one byte.
  Meta->Size = EFFSAN_UNLIKELY(!Type && !Size) ? 1 : Size;
  return Meta + 1;
}

void *Runtime::allocateZeroed(size_t Count, size_t Size,
                              const TypeInfo *Type) {
  size_t Total;
  if (EFFSAN_UNLIKELY(__builtin_mul_overflow(Count, Size, &Total)))
    Total = SIZE_MAX; // Unservable: allocate() reports it and returns null.
  void *Ptr = allocate(Total, Type);
  if (EFFSAN_UNLIKELY(!Ptr))
    return nullptr;
  std::memset(Ptr, 0, Total);
  return Ptr;
}

void *Runtime::reallocate(void *Ptr, size_t NewSize, const TypeInfo *Type) {
  if (!Ptr)
    return allocate(NewSize, Type);
  // Keep the block on the shard that owns it: a cross-shard realloc
  // (shard A's session resizing a block carved from shard B's slice)
  // must not migrate the object into A's slice.
  unsigned Owner = Heap.isLowFat(Ptr) ? Heap.shardOf(Ptr) : Shard;
  size_t OldSize = 0;
  if (const MetaHeader *Meta = metaOf(Ptr)) {
    if (Meta->Type && Meta->Type->isFree()) {
      Reporter.report(ErrorInfo{ErrorKind::UseAfterFree, nullptr,
                                Ctx.getFree(), 0, Ptr,
                                "realloc of freed object"});
      return allocateOn(Owner, NewSize, Type);
    }
    OldSize = Meta->Size;
  }
  void *Fresh = allocateOn(Owner, NewSize, Type);
  if (EFFSAN_UNLIKELY(!Fresh))
    return nullptr; // C realloc contract: the old block stays live.
  if (OldSize != 0)
    std::memcpy(Fresh, Ptr, OldSize < NewSize ? OldSize : NewSize);
  deallocate(Ptr);
  return Fresh;
}

void Runtime::deallocate(void *Ptr) {
  if (!Ptr)
    return;
  void *Base = Heap.allocationBase(Ptr);
  if (!Base) {
    // Legacy pointer: pass through to the underlying allocator.
    Heap.deallocate(Ptr);
    return;
  }
  auto *Meta = static_cast<MetaHeader *>(Base);
  if (Meta->Type && Meta->Type->isFree()) {
    Reporter.report(ErrorInfo{ErrorKind::DoubleFree, nullptr, Ctx.getFree(),
                              0, Ptr, "double free"});
    return;
  }
  if (EFFSAN_UNLIKELY(!Meta->Type && Meta->Size == 0)) {
    // A zero META header: the heap carved the block (into a thread's
    // span, or a span tail on a free list) but never handed it out.
    // Freeing it would let the heap issue the address twice.
    Reporter.report(ErrorInfo{ErrorKind::DoubleFree, nullptr, nullptr, 0,
                              Ptr, "free of a block never allocated"});
    return;
  }
  assert(Ptr == Meta + 1 && "free of an interior pointer");
  // Rebind to the FREE type (Section 3); the allocator preserves the
  // header until the block is reallocated.
  Meta->Type = Ctx.getFree();
  Heap.deallocate(Base);
}

//===----------------------------------------------------------------------===//
// Typed stack and globals
//===----------------------------------------------------------------------===//

void Runtime::reset() {
  // Rewind the shard's sub-arenas first; the registries that pointed
  // into them are then cleared without touching the recycled memory.
  Heap.resetShard(Shard);
  Globals.reset();
  Counters.reset();
  // Every thread's stack pool recorded slots in the rewound arena: drop
  // them unfreed. Each thread starts a fresh pool on its next frame.
  Counters.abandonStacks();
  Reporter.clear();
  // Every cached layout resolution named recycled addresses' META
  // state; drop them all rather than trusting revalidation across a
  // wholesale arena rewind.
  Cache.clear();
  // Hot-site counts name the previous tenant's sites; start fresh.
  Prof.reset();
}

void *Runtime::stackAllocate(CheckContext &CC, size_t Size,
                             const TypeInfo *Type, bool Escapes) {
  size_t Total;
  void *Block = blockSizeFor(Size, Total)
                    ? threadStack(CC).allocate(Total, Escapes)
                    : nullptr;
  if (EFFSAN_UNLIKELY(!Block)) {
    Reporter.report(ErrorInfo{ErrorKind::ResourceExhausted, Type, nullptr,
                              0, nullptr,
                              "stack slot allocation failed: heap "
                              "resources exhausted"});
    return nullptr;
  }
  if (EFFSAN_UNLIKELY(!Heap.isLowFat(Block)))
    return Block;
  auto *Meta = static_cast<MetaHeader *>(Block);
  Meta->Type = Type;
  Meta->Size = Size;
  return Meta + 1;
}

void Runtime::stackRelease(CheckContext &CC, size_t Mark) {
  lowfat::StackPool &Pool = threadStack(CC);
  // Rebind BEFORE retirement: quarantined (escaping) blocks keep their
  // addresses out of circulation with a STACK-FREE META in place, so a
  // dangling pointer into the popped frame faults as a stack
  // use-after-return for as long as the quarantine delays reuse.
  for (const lowfat::StackPool::Record &R : Pool.blocksSince(Mark)) {
    if (!Heap.isLowFat(R.Ptr))
      continue;
    auto *Meta = static_cast<MetaHeader *>(R.Ptr);
    Meta->Type = Ctx.getStackFree();
  }
  Pool.release(Mark);
}

void *Runtime::globalAllocate(size_t Size, const TypeInfo *Type,
                              std::string_view Name) {
  size_t Total;
  void *Block = blockSizeFor(Size, Total) ? Globals.allocate(Total, Name)
                                          : nullptr;
  if (EFFSAN_UNLIKELY(!Block)) {
    Reporter.report(ErrorInfo{ErrorKind::ResourceExhausted, Type, nullptr,
                              0, nullptr,
                              "global allocation failed: heap resources "
                              "exhausted"});
    return nullptr;
  }
  if (EFFSAN_UNLIKELY(!Heap.isLowFat(Block)))
    return Block;
  auto *Meta = static_cast<MetaHeader *>(Block);
  Meta->Type = Type;
  Meta->Size = Size;
  std::memset(Meta + 1, 0, Size); // Globals are zero-initialized.
  return Meta + 1;
}

//===----------------------------------------------------------------------===//
// Dynamic checks (Figure 6 lines 9-24)
//===----------------------------------------------------------------------===//

/// Publishes a layout resolution into \p E under its seqlock. A racing
/// filler simply loses (the entry is monomorphic; whoever wins is as
/// good as whoever loses), and a racing reader observes the odd version
/// or the re-check mismatch and takes the slow path.
///
/// The payload stores are release to pair with the reader's acquire
/// loads: a reader that observes any new payload value then observes
/// the odd/advanced version on its trailing re-read and rejects — on
/// weakly-ordered targets too, where relaxed payload stores could
/// otherwise become visible while the version still reads even.
static void fillSiteEntry(SiteCacheEntry &E, const TypeInfo *Alloc,
                          const TypeInfo *StaticType, uint64_t NormOffset,
                          int64_t RelLo, int64_t RelHi, uint64_t SizeofT,
                          uint64_t FamSize) {
  uint32_t V = E.Version.load(std::memory_order_relaxed);
  if (V & 1)
    return; // Another filler is mid-write.
  if (!E.Version.compare_exchange_strong(V, V + 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed))
    return;
  E.AllocType.store(Alloc, std::memory_order_release);
  E.StaticType.store(StaticType, std::memory_order_release);
  E.NormOffset.store(NormOffset, std::memory_order_release);
  E.RelLo.store(RelLo, std::memory_order_release);
  E.RelHi.store(RelHi, std::memory_order_release);
  E.SizeofT.store(SizeofT, std::memory_order_release);
  E.FamSize.store(FamSize, std::memory_order_release);
  E.FillTick.store(nextSiteFillTick(), std::memory_order_relaxed);
  E.Version.store(V + 2, std::memory_order_release);
}

/// Publishes a resolution into \p Set's fill victim: an empty way if
/// one exists, else the way with the oldest fill-tick stamp — so a
/// 2-type polymorphic site keeps both resolutions resident instead of
/// ping-ponging one slot, and a way left stale by a colliding site
/// ages out instead of squatting.
static void fillSiteSet(SiteCacheEntry *Set, const TypeInfo *Alloc,
                        const TypeInfo *StaticType, uint64_t NormOffset,
                        int64_t RelLo, int64_t RelHi, uint64_t SizeofT,
                        uint64_t FamSize) {
  fillSiteEntry(SiteCache::victimIn(Set), Alloc, StaticType, NormOffset,
                RelLo, RelHi, SizeofT, FamSize);
}

Bounds Runtime::typeCheckImpl(const void *Ptr, const TypeInfo *StaticType,
                              const MetaHeader *Meta, SiteCacheEntry *Fill,
                              SiteId Site) {
  assert(StaticType && "type check against null static type");
  const TypeInfo *Alloc = Meta->Type;
  if (EFFSAN_UNLIKELY(!Alloc))
    return Bounds::wide(); // Untyped low-fat block.

  uintptr_t ObjBase = reinterpret_cast<uintptr_t>(Meta + 1);
  uintptr_t P = reinterpret_cast<uintptr_t>(Ptr);
  Bounds AllocBounds{ObjBase, ObjBase + Meta->Size};

  // Deallocated memory: every access is a use-after-free (rule (h)).
  // Never cached — the FREE type also never equals a cached allocation
  // type, which is what makes free an implicit cache invalidation.
  // The STACK-FREE flavor classifies as a stack use-after-return: the
  // object died with its frame, not with a free() call.
  if (EFFSAN_UNLIKELY(Alloc->isFree())) {
    bool Stack = Alloc->isStackFree();
    Reporter.report(ErrorInfo{Stack ? ErrorKind::StackUseAfterReturn
                                    : ErrorKind::UseAfterFree,
                              StaticType, Alloc,
                              static_cast<int64_t>(P - ObjBase), Ptr,
                              Stack ? "use of stack object after frame return"
                                    : "use of freed object",
                              Site, Sites.resolve(Site)});
    return Bounds::wide();
  }

  // Step 2 (line 16): sub-object offset.
  if (EFFSAN_UNLIKELY(P < ObjBase || P > AllocBounds.Hi)) {
    Reporter.report(ErrorInfo{ErrorKind::BoundsError, StaticType, Alloc,
                              static_cast<int64_t>(P) -
                                  static_cast<int64_t>(ObjBase),
                              Ptr, "input pointer outside allocation",
                              Site, Sites.resolve(Site)});
    return Bounds::wide();
  }
  uint64_t K = P - ObjBase;

  // char/void coercion: casting to (char *)/(void *) resets the bounds
  // to the containing allocation (Section 6.1 discussion). The result
  // is offset-independent, so it caches under AnyNormOffset.
  if (StaticType->isCharLike() || StaticType->isVoid()) {
    if (Fill)
      fillSiteSet(Fill, Alloc, StaticType, AnyNormOffset, RelNegInf,
                    RelPosInf, 0, 0);
    return AllocBounds;
  }

  // Step 3 (lines 17-21): layout hash table probe.
  const LayoutTable &Table = Alloc->layout();
  uint64_t NK = Table.normalizeOffset(K, Meta->Size);
  const LayoutEntry *E = Table.lookup(StaticType, NK);
  if (!E && StaticType->isPointer()) {
    // (T*) <-> (void*) coercions: a static (void*) matches any pointer
    // member (AnyPointer index); any static pointer matches a (void*)
    // member.
    const auto *PT = cast<PointerType>(StaticType);
    const TypeInfo *Fallback =
        PT->pointee()->isVoid() ? Ctx.getAnyPointer() : VoidPtrType;
    E = Table.lookup(Fallback, NK);
  }
  if (!E) {
    // The paper's second lookup: coercion from (char[]) to (S[]).
    E = Table.lookup(Ctx.getChar(), NK);
  }
  if (E) {
    // Cache whichever probe succeeded — the entry's relative bounds are
    // the resolution itself, so a hit replays exactly this result.
    if (Fill)
      fillSiteSet(Fill, Alloc, StaticType, NK, E->RelLo, E->RelHi,
                    Table.sizeofT(), Table.famSize());
    return relativeBoundsToAbsolute(E->RelLo, E->RelHi, P, AllocBounds);
  }

  // Line 22: no match — type error; wide bounds afterwards (line 23).
  // Errors are never cached so every erring check keeps reporting
  // (bucketing/dedup happen in the reporter, not here).
  Reporter.report(ErrorInfo{ErrorKind::TypeError, StaticType, Alloc,
                            static_cast<int64_t>(K), Ptr, nullptr, Site,
                            Sites.resolve(Site)});
  return Bounds::wide();
}

Bounds Runtime::typeCheckSlow(CheckContext &CC, const void *Ptr,
                              const TypeInfo *StaticType, SiteId Site,
                              const MetaHeader *Meta) {
  ownerBump(CC.TypeCheckCacheMisses);
  if (EFFSAN_UNLIKELY(obs::profileActive()))
    Prof.noteMiss(Site);
  EFFSAN_OBS_EVENT(CheckSlowPath, Shard, Site);
  SiteCacheEntry *Fill =
      Cache.enabled() ? Cache.setFor(Site) : nullptr;
  return typeCheckImpl(Ptr, StaticType, Meta, Fill, Site);
}

Bounds Runtime::typeCheckTimed(CheckContext &CC, const void *Ptr,
                               const TypeInfo *StaticType, SiteId Site) {
  // Classify the sampled check by whether it stayed on the inline-cache
  // hit path: any miss or legacy resolution bumps one of these two
  // counters of the thread's own block.
  uint64_t SlowBefore =
      CC.TypeCheckCacheMisses.load(std::memory_order_relaxed) +
      CC.LegacyTypeChecks.load(std::memory_order_relaxed);
  uint64_t Start = obs::now();
  Bounds B = typeCheckBody(CC, Ptr, StaticType, Site);
  uint64_t Ticks = obs::now() - Start;
  uint64_t SlowAfter =
      CC.TypeCheckCacheMisses.load(std::memory_order_relaxed) +
      CC.LegacyTypeChecks.load(std::memory_order_relaxed);
  if (SlowAfter != SlowBefore)
    obs::checkSlowLatency().observe(Ticks);
  else
    obs::checkFastLatency().observe(Ticks);
  return B;
}

Bounds Runtime::typeCheckUncached(const void *Ptr,
                                  const TypeInfo *StaticType) {
  CheckContext &CC = threadContext();
  ownerBump(CC.TypeChecks);
  const MetaHeader *Meta = metaOf(Ptr);
  if (!Meta) {
    ownerBump(CC.LegacyTypeChecks);
    return Bounds::wide();
  }
  return typeCheckImpl(Ptr, StaticType, Meta, /*Fill=*/nullptr,
                       siteForType(StaticType));
}

Bounds Runtime::boundsGetFreed(const void *Ptr, const TypeInfo *Freed,
                               SiteId Site) {
  bool Stack = Freed->isStackFree();
  Reporter.report(ErrorInfo{Stack ? ErrorKind::StackUseAfterReturn
                                  : ErrorKind::UseAfterFree,
                            nullptr, Freed, 0, Ptr,
                            Stack ? "use of stack object after frame return"
                                  : "use of freed object",
                            Site, Sites.resolve(Site)});
  return Bounds::wide();
}

void Runtime::boundsCheckFail(CheckContext &CC, const void *Ptr, size_t,
                              Bounds B, SiteId Site) {
  Runtime &RT = *CC.RT;
  // Attribute the failure to the object the *bounds* came from, not to
  // whatever allocation the stray pointer happens to land in: B.Lo is
  // inside (a sub-object of) the checked object, so its META names the
  // object the pointer was derived from. Probing the out-of-bounds
  // pointer instead would read a neighboring block's (or a recycled
  // arena's stale) header — a nondeterministic misattribution. Wide
  // bounds carry no originating object; only then probe the pointer.
  const MetaHeader *Meta =
      B.isWide() ? RT.metaOf(Ptr)
                 : RT.metaOf(reinterpret_cast<const void *>(B.Lo));
  const TypeInfo *Alloc = Meta ? Meta->Type : nullptr;
  int64_t Offset = 0;
  if (Meta)
    Offset = static_cast<int64_t>(reinterpret_cast<uintptr_t>(Ptr)) -
             static_cast<int64_t>(reinterpret_cast<uintptr_t>(Meta + 1));
  const SiteInfo *Where = RT.Sites.resolve(Site);
  if (Alloc && Alloc->isFree()) {
    bool Stack = Alloc->isStackFree();
    RT.Reporter.report(
        ErrorInfo{Stack ? ErrorKind::StackUseAfterReturn
                        : ErrorKind::UseAfterFree,
                  nullptr, Alloc, Offset, Ptr,
                  Stack ? "access to stack object after frame return"
                        : "access to freed object",
                  Site, Where});
    return;
  }
  RT.Reporter.report(ErrorInfo{ErrorKind::BoundsError, nullptr, Alloc,
                               Offset, Ptr, "out-of-bounds access", Site,
                               Where});
}

//===- core/Runtime.h - The EffectiveSan runtime system ---------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic type check runtime of Section 5: typed allocation
/// (type_malloc / type_free, Figure 6 lines 1-7), the type_check
/// function (Figure 6 lines 9-24), bounds_get (the EffectiveSan-bounds
/// variant), and the inline bounds_check / bounds_narrow operations of
/// the Figure 3 instrumentation schema.
///
/// Paper-name mapping:
///   type_malloc    -> Runtime::allocate
///   type_free      -> Runtime::deallocate
///   type_check     -> Runtime::typeCheck
///   bounds_get     -> Runtime::boundsGet
///   bounds_check   -> Runtime::boundsCheck
///   bounds_narrow  -> Runtime::boundsNarrow
///
/// A C-style facade with the paper's names is provided by
/// core/Effective.h.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_CORE_RUNTIME_H
#define EFFECTIVE_CORE_RUNTIME_H

#include "core/Bounds.h"
#include "core/ErrorReporter.h"
#include "core/Layout.h"
#include "core/Meta.h"
#include "core/SiteCache.h"
#include "core/SiteTable.h"
#include "core/TypeContext.h"
#include "lowfat/GlobalPool.h"
#include "lowfat/LowFatHeap.h"
#include "lowfat/StackPool.h"
#include "obs/SiteProfiler.h"
#include "obs/Trace.h"
#include "support/Compiler.h"
#include "support/FieldTable.h"
#include "support/ThreadBlocks.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <memory>

namespace effective {

/// The CheckCounters field table, one row per counter in member order:
///   X(Field, AbiField, InAbi, MetricPos, MetricName, MetricLabels, Help)
/// AbiField is the effsan_counters member when InAbi is 1; that struct
/// cannot grow, so the cache counters (InAbi 0) are exported by the
/// effsan_type_check_cache_* accessors instead. MetricPos orders the
/// Prometheus series the service renders (effsan_checks_total lists
/// its kinds type, bounds, bounds_narrow, bounds_get, legacy_type).
#define EFFSAN_CHECK_COUNTERS(X)                                               \
  X(TypeChecks, type_checks, 1, 0, "effsan_checks_total", "kind=\"type\"",     \
    "Dynamic checks executed")                                                 \
  X(LegacyTypeChecks, legacy_type_checks, 1, 4, "effsan_checks_total",         \
    "kind=\"legacy_type\"", "Dynamic checks executed")                         \
  X(BoundsChecks, bounds_checks, 1, 1, "effsan_checks_total",                  \
    "kind=\"bounds\"", "Dynamic checks executed")                              \
  X(BoundsNarrows, bounds_narrows, 1, 2, "effsan_checks_total",                \
    "kind=\"bounds_narrow\"", "Dynamic checks executed")                       \
  X(BoundsGets, bounds_gets, 1, 3, "effsan_checks_total",                      \
    "kind=\"bounds_get\"", "Dynamic checks executed")                          \
  /* type_checks resolved by the site-indexed inline cache (fast path)         \
   * vs. the slow path (which includes checks on untyped/freed blocks          \
   * and type errors — anything past the META fetch that missed the            \
   * cache). Legacy (non-low-fat) checks hit neither bucket, so                \
   * Hits + Misses + LegacyTypeChecks == TypeChecks. */                        \
  X(TypeCheckCacheHits, type_check_cache_hits, 0, 5,                           \
    "effsan_check_cache_hits_total", "", "Type-check inline-cache hits")       \
  X(TypeCheckCacheMisses, type_check_cache_misses, 0, 6,                       \
    "effsan_check_cache_misses_total", "", "Type-check inline-cache misses")

class Runtime;

/// One thread's state for one runtime, written only by the thread that
/// owns the block: the check counters (the paper's Figure 7 "#Type" and
/// "#Bounds" columns plus the Section 6.1 legacy-pointer ratio) and the
/// thread's typed stack pool. The counters fill the first cache line
/// together with the runtime they belong to, so a check resolves the
/// runtime and bumps its counter on one line no other thread writes.
/// A block of the runtime's ThreadBlocks registry: an exited thread's
/// block is adopted, counts and pool included, by the runtime's next
/// new thread.
struct alignas(64) CheckContext {
  EFFSAN_CHECK_COUNTERS(EFFSAN_FIELD_ATOMIC)
  /// The runtime this block counts for (and reports through).
  Runtime *RT = nullptr;
  /// The owning thread's token, 0 while the block is free.
  std::atomic<uint64_t> Owner{0};
  /// Next block of the runtime's list; immutable while on the list.
  CheckContext *Next = nullptr;
  /// The thread's stack pool over the runtime's heap shard, created on
  /// its first stack operation (Runtime::stackMark and friends). It
  /// stays with the block: an adopting thread inherits it, and the
  /// runtime tears it down in reset() and on destruction. Atomic so a
  /// stats reader walking the list sees null or a whole pool.
  std::atomic<lowfat::StackPool *> Stack{nullptr};

  /// ThreadBlocks hooks: an exiting thread leaves its counts and pool
  /// to the adopting thread; a dying runtime has already deleted the
  /// pool.
  void threadExit() {}
  void recycle() {
    CheckContext &Out = *this;
    EFFSAN_CHECK_COUNTERS(EFFSAN_FIELD_CLEAR)
    RT = nullptr;
  }
};

static_assert(offsetof(CheckContext, RT) + sizeof(Runtime *) <= 64,
              "a check resolves its runtime and bumps on one cache line");

/// A runtime's per-thread blocks: one CheckContext per thread checking
/// or allocating stack objects through the runtime (see
/// support/ThreadBlocks.h). snapshot(), stackTotals() and reset() walk
/// the list, so counts from threads that have exited stay until
/// reset(). A destroyed runtime tears down the blocks' stack pools (its
/// heap still lives) before the blocks return to the process pool.
class CheckCounters {
public:
  /// Plain-value snapshot.
  struct Snapshot {
    EFFSAN_CHECK_COUNTERS(EFFSAN_FIELD_U64)

    /// Field-wise accumulation — how snapshot() merges the per-thread
    /// blocks, and how the session pool and the multi-threaded harness
    /// merge per-shard counters.
    Snapshot &operator+=(const Snapshot &In) {
      Snapshot &Out = *this;
      EFFSAN_CHECK_COUNTERS(EFFSAN_FIELD_ADD)
      return Out;
    }

    friend Snapshot operator+(Snapshot A, const Snapshot &B) {
      A += B;
      return A;
    }
  };

  CheckCounters() = default;
  ~CheckCounters();
  CheckCounters(const CheckCounters &) = delete;
  CheckCounters &operator=(const CheckCounters &) = delete;

  /// The sum over every thread's block.
  Snapshot snapshot() const;

  /// Zeroes every block. \pre No thread checks through the runtime
  /// concurrently (see Runtime::reset).
  void reset();

  /// Blocks on the list, held or free.
  size_t numBlocks() const { return Blocks.size(); }

  /// Typed stack events summed over every block's stack pool (the
  /// stack fields of the ABI's effsan_object_stats).
  struct StackTotals {
    uint64_t Allocs = 0;  ///< Stack slots allocated.
    uint64_t Frames = 0;  ///< Frames released.
    uint64_t Retired = 0; ///< Escaping slots whose frame was released.
  };
  StackTotals stackTotals() const;

  /// Drops every block's stack pool without freeing its blocks, for a
  /// runtime whose arena was rewound. \pre No thread holds a frame or
  /// uses the runtime concurrently (see Runtime::reset).
  void abandonStacks();

  /// The calling thread's block, if it is the one the thread found
  /// last.
  EFFSAN_ALWAYS_INLINE CheckContext *recent() const {
    return Blocks.recent();
  }

  /// The calling thread's block for \p RT (whose counters these are),
  /// looked up out of line.
  CheckContext &lookup(Runtime &RT) {
    return Blocks.lookup([&RT](CheckContext &C) { C.RT = &RT; });
  }

private:
  ThreadBlocks<CheckContext> Blocks;
};

/// \name Current-runtime binding.
/// The thread's check context slot: RuntimeScope / SanitizerScope bind
/// it to the thread's block of a runtime, so code holding no runtime
/// (CheckedPtr) reaches its runtime and its counters with one TLS load.
/// Null when no scope is bound; checks then count into and report
/// through the injected process default (setDefaultRuntime — how a
/// test or embedder swaps the fallback for a private instance), else
/// Runtime::global().
/// @{
inline CheckContext *&currentContextSlot() {
  thread_local CheckContext *Slot = nullptr;
  return Slot;
}

/// The injected process-wide fallback (null = Runtime::global()).
inline std::atomic<Runtime *> &defaultRuntimeSlot() {
  static std::atomic<Runtime *> Slot{nullptr};
  return Slot;
}

/// Injects \p RT as the process-wide fallback runtime for threads with
/// no scope binding; pass null to restore Runtime::global(). Returns
/// the previous injection.
inline Runtime *setDefaultRuntime(Runtime *RT) {
  return defaultRuntimeSlot().exchange(RT, std::memory_order_acq_rel);
}

/// The calling thread's block of the fallback runtime, for checks made
/// with no scope bound. Out of line so the inlined check carries only
/// the call.
EFFSAN_NOINLINE CheckContext &unscopedContext();

/// The thread's current check context: the bound one, else the
/// fallback runtime's.
EFFSAN_ALWAYS_INLINE CheckContext &currentContext() {
  if (CheckContext *C = currentContextSlot(); EFFSAN_LIKELY(C != nullptr))
    return *C;
  return unscopedContext();
}
/// @}

/// Construction options for a Runtime.
struct RuntimeOptions {
  ReporterOptions Reporter;
  lowfat::HeapOptions Heap;
  /// Entries in the site-indexed type-check inline cache (rounded up to
  /// a power of two; 0 disables the fast path entirely — every check
  /// takes the slow meta + layout-probe path).
  size_t SiteCacheEntries = 1024;
  /// When non-null, the runtime resolves error sites against this
  /// externally owned registry instead of a private one — how
  /// concurrent::SessionPool gives all shards one pool-wide site
  /// space, so the central drainer attributes any shard's errors. The
  /// registry must outlive the runtime.
  SiteTableRegistry *SharedSites = nullptr;
};

/// One EffectiveSan runtime instance: a low-fat heap plus type meta data
/// handling. Thread-safe (checks are pure reads of immutable meta data;
/// allocation and reporting are internally locked). Tests and benchmark
/// harnesses create private instances; Runtime::global() serves the
/// default process-wide instance.
class Runtime {
public:
  explicit Runtime(TypeContext &Ctx,
                   const RuntimeOptions &Options = RuntimeOptions());

  /// A runtime over shard \p Shard of an externally owned (shared,
  /// usually sharded) low-fat heap — the per-worker building block of
  /// concurrent::SessionPool. All allocations (heap, stack, globals)
  /// come from that shard's sub-arenas, while base(p)/size(p) remain
  /// valid for pointers allocated by sibling shards of the same heap.
  /// Options.Heap is ignored; the heap must outlive the runtime.
  Runtime(TypeContext &Ctx, lowfat::LowFatHeap &SharedHeap, unsigned Shard,
          const RuntimeOptions &Options = RuntimeOptions());

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  TypeContext &typeContext() { return Ctx; }
  lowfat::LowFatHeap &heap() { return Heap; }
  /// The heap shard this runtime allocates from (0 for private heaps).
  unsigned heapShard() const { return Shard; }
  ErrorReporter &reporter() { return Reporter; }
  CheckCounters &counters() { return Counters; }
  /// The calling thread's check context for this runtime: the block the
  /// thread used last when it is this runtime's, else the thread's
  /// block looked up (and created on first use) out of line. Hot loops
  /// resolve it once and pass it to the check entry points below.
  EFFSAN_ALWAYS_INLINE CheckContext &threadContext() {
    if (CheckContext *C = Counters.recent(); EFFSAN_LIKELY(C != nullptr))
      return *C;
    return Counters.lookup(*this);
  }
  /// The global-object registration pool (module loaders and the ABI's
  /// effsan_globals_register; reflection for tests).
  lowfat::GlobalPool &globals() { return Globals; }
  const lowfat::GlobalPool &globals() const { return Globals; }

  /// \name Typed allocation (Figure 6 lines 1-7).
  /// @{

  /// type_malloc: allocates \p Size bytes bound to dynamic type \p Type
  /// (null = untyped, checked with wide bounds). The dynamic type of the
  /// object is the complete Type[Size / sizeof(Type)].
  void *allocate(size_t Size, const TypeInfo *Type);

  /// type_calloc: zero-initialized array allocation.
  void *allocateZeroed(size_t Count, size_t Size, const TypeInfo *Type);

  /// type_realloc: grows/shrinks preserving contents and rebinding the
  /// dynamic type. When \p Ptr lives on a sibling shard of a shared
  /// heap (a cross-shard realloc through a pooled session), the fresh
  /// block is carved from the *owning* shard's slice, not this
  /// runtime's — shard affinity of a block survives realloc, so a
  /// tenant's footprint stays accountable to its own shard and a later
  /// resetShard() of this runtime cannot pull the rug from under a
  /// sibling's object.
  void *reallocate(void *Ptr, size_t NewSize, const TypeInfo *Type);

  /// type_free: rebinds the object to the FREE type and returns the
  /// block to the allocator; detects double free.
  void deallocate(void *Ptr);
  /// @}

  /// \name Typed stack and global allocation.
  /// Stand-ins for the instrumented low-fat stack/global allocators
  /// ([7,8]); see lowfat/StackPool.h for the simulation notes. Stack
  /// operations use the stack pool of \p CC, the calling thread's
  /// block of this runtime; the overloads without one resolve it per
  /// call, like the checks below.
  /// @{

  /// Allocates one typed stack slot with a full META header.
  /// \p Escapes marks an address-taken/escaping slot (instrumentation's
  /// escape analysis): its release is delayed through the thread's
  /// use-after-return quarantine (64 KiB) so dangling pointers into
  /// the popped frame fault as stack use-after-return.
  void *stackAllocate(CheckContext &CC, size_t Size, const TypeInfo *Type,
                      bool Escapes = false);
  void *stackAllocate(size_t Size, const TypeInfo *Type,
                      bool Escapes = false) {
    return stackAllocate(threadContext(), Size, Type, Escapes);
  }
  size_t stackMark(CheckContext &CC) { return threadStack(CC).mark(); }
  size_t stackMark() { return stackMark(threadContext()); }
  /// Rebinds all stack objects allocated after \p Mark to the
  /// STACK-FREE type and retires them (function epilogue): escaping
  /// slots park in the quarantine, the rest free immediately.
  void stackRelease(CheckContext &CC, size_t Mark);
  void stackRelease(size_t Mark) { stackRelease(threadContext(), Mark); }
  void *globalAllocate(size_t Size, const TypeInfo *Type,
                       std::string_view Name);
  /// @}

  /// \name Dynamic checks.
  /// Each check counts into a CheckContext, the calling thread's block
  /// of this runtime (threadContext()). The overloads without one
  /// resolve it per call.
  /// @{

  /// The paper's type_check (Figure 6 lines 9-24): verifies that \p Ptr
  /// addresses a (sub-)object of incomplete static type \p StaticType[]
  /// and returns that sub-object's bounds (narrowed to the allocation).
  /// On mismatch an error is reported and wide bounds are returned.
  ///
  /// \p Site is the check's call-site identity (a dense per-module id
  /// from the instrumentation pass, or siteForType() for API callers):
  /// the fast path probes the session's inline cache at that slot and,
  /// when the (allocation type, static type, normalized offset) key
  /// matches, rebuilds the bounds from the cached layout resolution
  /// without touching the layout hash table. Misses fall into the
  /// EFFSAN_NOINLINE slow path, which performs the full Figure 6 probe
  /// and refills the cache. Results are bit-identical either way.
  EFFSAN_ALWAYS_INLINE Bounds typeCheck(CheckContext &CC, const void *Ptr,
                                        const TypeInfo *StaticType,
                                        SiteId Site) {
    assert(CC.RT == this && "check context of another runtime");
    // The pre-increment count doubles as the latency sampler's
    // decimator: with metrics armed, every 1024th check of a thread
    // diverts through the timed (noinline) wrapper that feeds the
    // latency histograms. The decimator tests BEFORE the flag — the
    // mask test is on a value already in a register and is false 1023
    // times in 1024 whether or not metrics are armed, so arming changes
    // the executed instruction stream only on the sampled checks. With
    // observability compiled out the whole test folds to nothing.
    uint64_t NChecks = ownerBump(CC.TypeChecks);
    if (EFFSAN_UNLIKELY((NChecks & obs::CheckSampleMask) == 0 &&
                        obs::metricsActive()))
      return typeCheckTimed(CC, Ptr, StaticType, Site);
    return typeCheckBody(CC, Ptr, StaticType, Site);
  }

  Bounds typeCheck(const void *Ptr, const TypeInfo *StaticType,
                   SiteId Site) {
    return typeCheck(threadContext(), Ptr, StaticType, Site);
  }

  /// typeCheck minus the TypeChecks bump and the sampling decimator:
  /// the inline-cache probe and the slow-path dispatch. Private in
  /// spirit; public so the timed wrapper's definition stays out of
  /// line without friend gymnastics.
  EFFSAN_ALWAYS_INLINE Bounds typeCheckBody(CheckContext &CC,
                                            const void *Ptr,
                                            const TypeInfo *StaticType,
                                            SiteId Site) {
    const MetaHeader *Meta = metaOf(Ptr);
    if (EFFSAN_UNLIKELY(!Meta)) {
      ownerBump(CC.LegacyTypeChecks);
      return Bounds::wide();
    }
    const TypeInfo *Alloc = Meta->Type;
    if (EFFSAN_LIKELY(Cache.enabled())) {
      // 2-way set-associative probe: a polymorphic site (two types or
      // two offset resolutions through one check) keeps both
      // resolutions resident; the second way costs one extra key
      // compare only when the first rejects.
      SiteCacheEntry *Set = Cache.setFor(Site);
      for (unsigned W = 0; W < SiteCache::Ways; ++W) {
        SiteCacheEntry &E = Set[W];
        uint32_t V1 = E.Version.load(std::memory_order_acquire);
        // All key/payload loads are acquire so the final version
        // re-load below cannot be reordered above any of them
        // (fence-free seqlock reader).
        if (EFFSAN_LIKELY(
                !(V1 & 1) &&
                E.AllocType.load(std::memory_order_acquire) == Alloc &&
                E.StaticType.load(std::memory_order_acquire) ==
                    StaticType &&
                Alloc != nullptr)) {
          uintptr_t ObjBase = reinterpret_cast<uintptr_t>(Meta + 1);
          uintptr_t P = reinterpret_cast<uintptr_t>(Ptr);
          uint64_t AllocSize = Meta->Size;
          if (EFFSAN_LIKELY(P >= ObjBase && P - ObjBase <= AllocSize)) {
            // Fence-free seqlock read: the payload loads are acquire,
            // so the trailing version re-load cannot be hoisted above
            // them (and GCC's TSan, which rejects
            // atomic_thread_fence, stays happy). Acquire loads cost
            // nothing on x86/ARM64 loads.
            uint64_t NK = E.NormOffset.load(std::memory_order_acquire);
            uint64_t SzT = E.SizeofT.load(std::memory_order_acquire);
            uint64_t Fam = E.FamSize.load(std::memory_order_acquire);
            int64_t RelLo = E.RelLo.load(std::memory_order_acquire);
            int64_t RelHi = E.RelHi.load(std::memory_order_acquire);
            if (EFFSAN_LIKELY(
                    E.Version.load(std::memory_order_relaxed) == V1 &&
                    (NK == AnyNormOffset ||
                     LayoutTable::normalizeOffsetRaw(P - ObjBase,
                                                     AllocSize, SzT,
                                                     Fam) == NK))) {
              // The hit count doubles as the profiler's decimator
              // (see ProfileSampleMask). The mask tests before the
              // flag for the same reason as the latency sampler
              // above: 15 hits in 16 skip both the flag load and the
              // profiler whether or not profiling is armed.
              uint64_t NHits = ownerBump(CC.TypeCheckCacheHits);
              if (EFFSAN_UNLIKELY(
                      (NHits & obs::ProfileSampleMask) == 0 &&
                      obs::profileActive()))
                Prof.noteHit(Site);
              Bounds AllocBounds{ObjBase, ObjBase + AllocSize};
              return relativeBoundsToAbsolute(RelLo, RelHi, P,
                                              AllocBounds);
            }
          }
        }
      }
    }
    return typeCheckSlow(CC, Ptr, StaticType, Site, Meta);
  }

  /// type_check without an explicit site: probes the inline cache at
  /// the static type's pseudo-site. This is the path CheckedPtr and the
  /// session/C APIs take.
  Bounds typeCheck(const void *Ptr, const TypeInfo *StaticType) {
    return typeCheck(Ptr, StaticType, siteForType(StaticType));
  }

  /// The reference implementation: the full meta + layout-probe walk,
  /// never reading or filling the inline cache. Used by the
  /// differential tests and the cached-vs-uncached micro benchmark;
  /// counters advance as for a normal check minus the hit/miss pair.
  Bounds typeCheckUncached(const void *Ptr, const TypeInfo *StaticType);

  /// The EffectiveSan-bounds variant's bounds_get: returns the
  /// allocation bounds without verifying the type (Section 6.2).
  /// \p Site attributes any use-after-free it detects (the
  /// instrumentation-assigned id for interpreted checks, NoSite for
  /// unsited API paths). Inline: the count, base(p), the META load and
  /// the bounds; only a freed object's report leaves the line.
  EFFSAN_ALWAYS_INLINE Bounds boundsGet(CheckContext &CC, const void *Ptr,
                                        SiteId Site = NoSite) {
    assert(CC.RT == this && "check context of another runtime");
    ownerBump(CC.BoundsGets);
    const MetaHeader *Meta = metaOf(Ptr);
    if (!Meta || !Meta->Type)
      return Bounds::wide();
    if (EFFSAN_UNLIKELY(Meta->Type->isFree()))
      return boundsGetFreed(Ptr, Meta->Type, Site);
    return Bounds::forObject(Meta + 1, Meta->Size);
  }
  Bounds boundsGet(const void *Ptr, SiteId Site = NoSite) {
    return boundsGet(threadContext(), Ptr, Site);
  }

  /// The paper's bounds_check (Figure 3 rule (g)): verifies the \p Size
  /// byte access at \p Ptr lies within \p B; reports otherwise. \p Site
  /// is the check's identity — it rides the register-passed arguments
  /// for free and is only touched on the failing (noinline) path, so
  /// attribution costs the hot path nothing. Static, so the runtime
  /// pointer is read from \p CC only on that path.
  static EFFSAN_ALWAYS_INLINE void boundsCheck(CheckContext &CC,
                                               const void *Ptr, size_t Size,
                                               Bounds B,
                                               SiteId Site = NoSite) {
    ownerBump(CC.BoundsChecks);
    if (EFFSAN_UNLIKELY(!B.contains(Ptr, Size)))
      boundsCheckFail(CC, Ptr, Size, B, Site);
  }
  void boundsCheck(const void *Ptr, size_t Size, Bounds B,
                   SiteId Site = NoSite) {
    boundsCheck(threadContext(), Ptr, Size, B, Site);
  }
  /// The failing side of bounds_check: reports the \p Size byte access
  /// at \p Ptr outside \p B through \p CC's runtime. Out of line, so an
  /// inlined check that does not count (CheckedPtr's timed rows) is a
  /// compare and a branch to here.
  static EFFSAN_NOINLINE void boundsCheckFail(CheckContext &CC,
                                              const void *Ptr, size_t Size,
                                              Bounds B, SiteId Site);

  /// The paper's bounds_narrow (Figure 3 rule (e)): narrows \p B to the
  /// field at [\p Field, \p Field + \p Size).
  static EFFSAN_ALWAYS_INLINE Bounds boundsNarrow(CheckContext &CC, Bounds B,
                                                  const void *Field,
                                                  size_t Size) {
    ownerBump(CC.BoundsNarrows);
    return B.intersect(Bounds::forObject(Field, Size));
  }
  Bounds boundsNarrow(Bounds B, const void *Field, size_t Size) {
    return boundsNarrow(threadContext(), B, Field, Size);
  }
  /// @}

  /// \name Meta data introspection.
  /// @{

  /// The META header of the allocation containing \p Ptr; null for
  /// legacy pointers. This is base(p): the heap's inline lookup.
  EFFSAN_ALWAYS_INLINE const MetaHeader *metaOf(const void *Ptr) const {
    return static_cast<const MetaHeader *>(Heap.allocationBase(Ptr));
  }

  /// The dynamic (allocation) type of \p Ptr's object; null if unknown.
  const TypeInfo *dynamicTypeOf(const void *Ptr) const {
    const MetaHeader *Meta = metaOf(Ptr);
    return Meta ? Meta->Type : nullptr;
  }

  /// The allocation bounds of \p Ptr's object; wide for legacy.
  Bounds allocationBounds(const void *Ptr) const {
    const MetaHeader *Meta = metaOf(Ptr);
    if (!Meta)
      return Bounds::wide();
    return Bounds::forObject(Meta + 1, Meta->Size);
  }
  /// @}

  /// Recycles the runtime for a fresh tenant: rewinds its heap shard
  /// (for a private heap, the whole arena), clears counters, reported
  /// issues and the global registry. Every pointer the runtime ever
  /// served becomes invalid and its addresses will be reused.
  ///
  /// \pre No live pointers are dereferenced afterwards, no stack frames
  /// (stackMark/stackRelease) are outstanding on any thread, and nothing
  /// uses the runtime concurrently. Legacy (oversized) blocks are not
  /// recycled.
  void reset();

  /// The process-wide runtime over TypeContext::global().
  static Runtime &global();

  /// The session's hot check-site profiler (counts only while
  /// obs::ProfileFlag is set; see obs/SiteProfiler.h).
  obs::SiteProfiler &profiler() { return Prof; }
  const obs::SiteProfiler &profiler() const { return Prof; }

  /// The registry error sites are attributed against (private by
  /// default, pool-shared when RuntimeOptions::SharedSites was set).
  /// Module loaders register their SiteTable here and rebase the
  /// instruction sites by the returned base id.
  SiteTableRegistry &siteTables() { return Sites; }

private:
  /// The Figure 6 slow path: full layout probe (with the coercion
  /// fallbacks), error reporting, and cache refill. \p Meta is the
  /// non-null META header typeCheck already resolved.
  EFFSAN_NOINLINE Bounds typeCheckSlow(CheckContext &CC, const void *Ptr,
                                       const TypeInfo *StaticType,
                                       SiteId Site, const MetaHeader *Meta);
  /// The latency sampler's landing pad: runs typeCheckBody under an
  /// obs::now() timer and observes the fast- or slow-path histogram
  /// (classified by whether the check left the inline-cache fast
  /// path). Noinline so the sampling machinery never bloats the
  /// inlined check.
  EFFSAN_NOINLINE Bounds typeCheckTimed(CheckContext &CC, const void *Ptr,
                                        const TypeInfo *StaticType,
                                        SiteId Site);
  /// bounds_get on a freed (FREE or STACK-FREE) object: reports the
  /// use-after-free or use-after-return at \p Site and returns wide
  /// bounds. Out of line, so the inlined bounds_get carries only the
  /// call.
  EFFSAN_NOINLINE Bounds boundsGetFreed(const void *Ptr,
                                        const TypeInfo *Freed, SiteId Site);
  /// Shared core of typeCheckSlow/typeCheckUncached; publishes the
  /// successful layout resolution into \p Fill's cache set (when
  /// non-null, the first way of the site's set); attributes any error
  /// it reports to \p Site.
  Bounds typeCheckImpl(const void *Ptr, const TypeInfo *StaticType,
                       const MetaHeader *Meta, SiteCacheEntry *Fill,
                       SiteId Site);
  /// \p CC's stack pool, created over this runtime's heap shard on the
  /// thread's first stack operation.
  lowfat::StackPool &threadStack(CheckContext &CC) {
    assert(CC.RT == this && "check context of another runtime");
    lowfat::StackPool *Pool = CC.Stack.load(std::memory_order_relaxed);
    if (EFFSAN_UNLIKELY(!Pool)) {
      Pool = new lowfat::StackPool(Heap, Shard);
      CC.Stack.store(Pool, std::memory_order_release);
    }
    return *Pool;
  }

  /// allocate() targeting an explicit heap shard (realloc's owning-
  /// shard affinity; everything else allocates on this runtime's own
  /// Shard).
  void *allocateOn(unsigned OnShard, size_t Size, const TypeInfo *Type);

  TypeContext &Ctx;
  /// Null when the runtime borrows a shared heap (the shard ctor).
  std::unique_ptr<lowfat::LowFatHeap> OwnedHeap;
  lowfat::LowFatHeap &Heap;
  unsigned Shard;
  lowfat::GlobalPool Globals;
  ErrorReporter Reporter;
  /// Declared after the heap, so its destructor tears the threads'
  /// stack pools down while the heap they free into still lives.
  CheckCounters Counters;
  /// Cached (void *) type for the pointer-coercion fallback probe.
  const TypeInfo *VoidPtrType;
  /// The site-indexed type-check inline cache (see core/SiteCache.h).
  SiteCache Cache;
  /// Hot check-site hit/miss counters (observability layer; zero-size
  /// and never touched when EFFSAN_OBS_OFF).
  obs::SiteProfiler Prof;
  /// Site attribution: private registry unless the options injected a
  /// shared (pool-wide) one. Survives reset() — attribution metadata
  /// is immutable and names no heap addresses.
  std::unique_ptr<SiteTableRegistry> OwnedSites; ///< Null when shared.
  SiteTableRegistry &Sites;
};

} // namespace effective

#endif // EFFECTIVE_CORE_RUNTIME_H

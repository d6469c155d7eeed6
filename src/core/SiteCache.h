//===- core/SiteCache.h - Site-indexed type-check inline caches -*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-session inline cache behind the type_check fast path. Every
/// instrumented check carries a *site identity* (SiteId): the
/// instrumentation pass numbers the checks it emits densely per module,
/// and API entry points that have no compiler-assigned site derive a
/// pseudo-site from the static type (which is one of the cache key
/// components anyway, so the approximation only costs occasional
/// evictions, never correctness).
///
/// Each cache entry memoizes one slow-path type_check resolution:
///
///   key:    (allocation type, static type, normalized offset delta)
///   value:  the matching LayoutEntry's relative bounds, plus the
///           allocation type's sizeof/FAM element size so the offset
///           normalization runs without touching the layout table.
///
/// Hits recompute absolute bounds from the *live* META header, so a
/// cached entry can never resurrect stale allocation state:
///
///   * free rebinds the object to the FREE type, which can never equal
///     a cached allocation type (errors are not cached), so the next
///     check at that site misses and the slow path reports the
///     use-after-free;
///   * reallocation at the same address revalidates against the fresh
///     META type/size — identical types reproduce identical layout
///     bounds by interning, so even a "stale" hit is bit-identical to
///     the slow path;
///   * Runtime::reset() clears the cache wholesale (the arena rewinds).
///
/// Entries are seqlock-protected (all fields relaxed atomics, a version
/// word ordered acquire/release) so a session shared by several threads
/// stays race-free: a torn fill is detected by the version re-check and
/// the reader simply takes the slow path.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_CORE_SITECACHE_H
#define EFFECTIVE_CORE_SITECACHE_H

#include "support/Hashing.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>

namespace effective {

class TypeInfo;

/// A dense per-module check-site identity (assigned by the
/// instrumentation pass) or a type-derived pseudo-site (API paths).
using SiteId = uint32_t;

/// "No site assigned": uninstrumented hand-built IR. Check opcodes with
/// NoSite fall back to the type-derived pseudo-site.
inline constexpr SiteId NoSite = ~0u;

/// NormOffset sentinel for offset-independent resolutions (char/void
/// static types, whose result is always the allocation bounds).
inline constexpr uint64_t AnyNormOffset = ~uint64_t(0);

/// Tag bit distinguishing type-derived pseudo-sites from
/// instrumentation-assigned (and registry-rebased) site ids. The
/// SiteTableRegistry allocates real ids densely from zero and never
/// crosses this bit, so a pseudo-site can never resolve to another
/// module's source location by accident. The cache indexes by
/// Site & mask either way, so the tag costs nothing on the hot path.
inline constexpr SiteId PseudoSiteBit = SiteId(1) << 31;

/// Global fill-recency clock for SiteCacheEntry::FillTick: one shared
/// monotone counter across all caches (slow-path fills only, so the
/// RMW never touches a hot path). Wraps harmlessly — ticks are only
/// compared for relative age.
inline uint32_t nextSiteFillTick() {
  static std::atomic<uint32_t> Tick{0};
  return Tick.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// The pseudo-site for checks without a compiler-assigned site: types
/// are interned, so hashing the static type gives each distinct check
/// type its own (stable) slot — matching the cache key's static-type
/// component exactly. Tagged with PseudoSiteBit so source attribution
/// (core/SiteTable.h) rejects it.
inline SiteId siteForType(const TypeInfo *StaticType) {
  return static_cast<SiteId>(hashPointer(StaticType)) | PseudoSiteBit;
}

/// One monomorphic inline-cache entry. Cache-line sized so concurrent
/// sites never false-share.
struct alignas(64) SiteCacheEntry {
  /// Seqlock version: even = stable, odd = fill in progress, 0 = empty
  /// (empty entries also have null AllocType, which never matches).
  std::atomic<uint32_t> Version{0};
  /// Recency stamp: the value of the global fill tick when this entry
  /// was last filled (see nextSiteFillTick). Written by fillers only,
  /// read only by victim selection — never by the hit path.
  std::atomic<uint32_t> FillTick{0};
  std::atomic<const TypeInfo *> AllocType{nullptr};
  std::atomic<const TypeInfo *> StaticType{nullptr};
  /// Normalized offset delta the resolution is valid for, or
  /// AnyNormOffset for offset-independent (char/void) resolutions.
  std::atomic<uint64_t> NormOffset{0};
  /// The resolved layout-relative bounds (RelNegInf/RelPosInf encode
  /// "clamp to the allocation", as in LayoutEntry).
  std::atomic<int64_t> RelLo{0};
  std::atomic<int64_t> RelHi{0};
  /// sizeof(allocation type) and FAM element size, memoized so the hit
  /// path normalizes offsets without loading the layout table.
  std::atomic<uint64_t> SizeofT{0};
  std::atomic<uint64_t> FamSize{0};
};

/// A fixed-size, power-of-two, 2-way set-associative array of
/// inline-cache entries, indexed by SiteId & set mask. Polymorphic
/// sites (two static types, or two offset resolutions, flowing through
/// one check) keep both resolutions resident instead of ping-ponging a
/// direct-mapped slot at ~3.5x the hit cost; a third resolution evicts
/// the set's least-recently-filled way. Collisions stay benign: the
/// full key is compared on every probe, so a colliding site only
/// evicts.
class SiteCache {
public:
  /// Entries per set. The fast path probes the ways in order, so way 0
  /// is one compare away from the direct-mapped cost and way 1 costs
  /// only a second key compare on sets that need it.
  static constexpr unsigned Ways = 2;

  /// Hard cap on the entry count (2^20 entries = 64 MiB of cache): the
  /// count is a plain integer knob reachable from the C ABI, and a
  /// bogus huge value must degrade to a big-but-allocatable cache, not
  /// a std::bad_alloc escaping effsan_session_create (whose contract
  /// is "NULL only on out-of-memory") or std::bit_ceil UB.
  static constexpr size_t MaxEntries = size_t(1) << 20;

  /// Rounds \p RequestedEntries up to a power of two (clamped to
  /// [Ways, MaxEntries]); 0 disables the cache (every probe misses,
  /// every check takes the slow path).
  explicit SiteCache(size_t RequestedEntries) {
    if (RequestedEntries == 0) {
      NumEntries = 0;
      SetMask = 0;
      return;
    }
    NumEntries = std::bit_ceil(
        std::min(std::max(RequestedEntries, size_t(Ways)), MaxEntries));
    SetMask = NumEntries / Ways - 1;
    Spare &S = Spare::get();
    {
      std::lock_guard<std::mutex> Guard(S.Lock);
      if (S.Entries && S.NumEntries == NumEntries)
        Entries = std::move(S.Entries);
    }
    if (Entries)
      clear();
    else
      Entries = std::make_unique<SiteCacheEntry[]>(NumEntries);
  }

  /// Parks the buffer for the next session of the same size.
  ~SiteCache() {
    if (!Entries)
      return;
    Spare &S = Spare::get();
    std::lock_guard<std::mutex> Guard(S.Lock);
    if (!S.Entries) {
      S.Entries = std::move(Entries);
      S.NumEntries = NumEntries;
    }
  }

  SiteCache(const SiteCache &) = delete;
  SiteCache &operator=(const SiteCache &) = delete;

  bool enabled() const { return NumEntries != 0; }
  size_t numEntries() const { return NumEntries; }

  /// The first way of \p Site's set (ways are consecutive entries).
  /// \pre enabled().
  SiteCacheEntry *setFor(SiteId Site) {
    return &Entries[(Site & SetMask) * Ways];
  }

  /// The fill victim within \p Set: an empty way if there is one,
  /// otherwise the least-recently-*filled* way by the global fill-tick
  /// stamp. (Comparing seqlock versions instead would count fills per
  /// entry, not recency — a way churned hot in the past would squat on
  /// its slot forever while the other way ping-pongs.)
  static SiteCacheEntry &victimIn(SiteCacheEntry *Set) {
    if (Set[0].Version.load(std::memory_order_relaxed) == 0)
      return Set[0];
    if (Set[1].Version.load(std::memory_order_relaxed) == 0)
      return Set[1];
    uint32_t T0 = Set[0].FillTick.load(std::memory_order_relaxed);
    uint32_t T1 = Set[1].FillTick.load(std::memory_order_relaxed);
    // Wrap-tolerant "older" comparison; a mispick once per 2^31 fills
    // only costs one extra miss.
    return static_cast<int32_t>(T1 - T0) < 0 ? Set[1] : Set[0];
  }

  /// Drops every entry (Runtime::reset). Not safe against concurrent
  /// probes — callers hold the same "no concurrent use" contract as
  /// Runtime::reset itself.
  void clear() {
    for (size_t I = 0; I < NumEntries; ++I) {
      Entries[I].AllocType.store(nullptr, std::memory_order_relaxed);
      Entries[I].Version.store(0, std::memory_order_release);
    }
  }

private:
  /// The last closed session's buffer. Freed at every session close, a
  /// 64 KiB buffer leaves a hole that long-lived allocations made during
  /// the next session (layout tables built on first use) split, and the
  /// next buffer then extends the malloc heap: the heap crept by one
  /// buffer per such session. Never destroyed, so a session closing
  /// during static destruction still finds it.
  struct Spare {
    std::mutex Lock;
    std::unique_ptr<SiteCacheEntry[]> Entries;
    size_t NumEntries = 0;

    static Spare &get() {
      static Spare *S = new Spare;
      return *S;
    }
  };

  std::unique_ptr<SiteCacheEntry[]> Entries;
  size_t NumEntries = 0;
  size_t SetMask = 0;
};

} // namespace effective

#endif // EFFECTIVE_CORE_SITECACHE_H

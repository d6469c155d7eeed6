//===- core/Layout.h - The layout function and hash table -------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory layout function L (Figure 2 of the paper) and its layout
/// hash table implementation (Section 5, Example 6).
///
/// For an allocation type T the table maps (S, k) — an incomplete static
/// type S and a normalized byte offset k in [0, sizeof(T)] — to the
/// relative bounds of the widest matching (sub-)object at that offset:
///
///   T x S x k  ->  -delta .. sizeof(S[N]) - delta
///
/// Relative bounds use INT64_MIN/INT64_MAX as -inf/+inf; the runtime
/// narrows them to the allocation bounds (the table describes the
/// incomplete allocation type T[], whose top-level entry is unbounded).
///
/// The paper's tie-breaking rules are applied at build time: (1)
/// sub-objects with wider bounds are preferred, and (2) one-past-the-end
/// entries (Figure 2 rule (b)) are matched last.
///
/// Coercions (Section 5 "automatic coercions"):
///  * every pointer member is additionally indexed under the AnyPointer
///    sentinel so a static (void *) matches any pointer sub-object;
///  * the runtime probes key (void *) when an exact pointer lookup
///    fails, implementing (T*) -> (void*) member coercion;
///  * the runtime probes key (char) when everything else fails,
///    implementing the paper's (char[]) -> (S[]) second lookup.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_CORE_LAYOUT_H
#define EFFECTIVE_CORE_LAYOUT_H

#include "core/Bounds.h"
#include "core/TypeInfo.h"

#include <cstdint>
#include <vector>

namespace effective {

/// Relative-bounds sentinels.
inline constexpr int64_t RelNegInf = INT64_MIN;
inline constexpr int64_t RelPosInf = INT64_MAX;

/// One layout hash table entry: at normalized offset \c Offset within an
/// allocation of type T, a pointer whose static (incomplete) type is
/// \c Key addresses a sub-object spanning [p + RelLo, p + RelHi).
struct LayoutEntry {
  const TypeInfo *Key = nullptr;
  uint64_t Offset = 0;
  int64_t RelLo = 0;
  int64_t RelHi = 0;
  /// Entry describes a one-past-the-end position (rule (b)).
  bool IsEnd = false;

  int64_t width() const {
    if (RelLo == RelNegInf || RelHi == RelPosInf)
      return RelPosInf;
    return RelHi - RelLo;
  }
};

/// Converts a layout-relative bound pair into absolute bounds for the
/// pointer \p P, clamped to the allocation (Figure 6 line 20). The ONE
/// definition shared by the slow path and the inline-cache hit path —
/// like normalizeOffsetRaw, factored here so cached and uncached
/// checks can never diverge.
inline Bounds relativeBoundsToAbsolute(int64_t RelLo, int64_t RelHi,
                                       uintptr_t P, Bounds Alloc) {
  Bounds B;
  B.Lo = RelLo == RelNegInf
             ? Alloc.Lo
             : static_cast<uintptr_t>(static_cast<int64_t>(P) + RelLo);
  B.Hi = RelHi == RelPosInf
             ? Alloc.Hi
             : static_cast<uintptr_t>(static_cast<int64_t>(P) + RelHi);
  return B.intersect(Alloc);
}

/// Immutable open-addressed hash table of LayoutEntry, built once per
/// allocation type (lazily, see TypeInfo::layout()). Lookup is O(1) with
/// no locks, making the runtime's type_check constant-time (Section 5).
class LayoutTable {
public:
  /// Builds the table for allocation type \p T (Figure 2 rules (a)-(g)
  /// plus the paper's extensions). \p T must be a complete object type.
  static LayoutTable build(const TypeInfo *T);

  /// Probes for (\p Key, \p Offset); null if absent. \p Offset must be
  /// normalized (see normalizeOffset()).
  const LayoutEntry *lookup(const TypeInfo *Key, uint64_t Offset) const;

  /// Normalizes a raw byte offset \p K (pointer minus object base) into
  /// the table domain [0, sizeof(T)] (or the extended FAM domain):
  ///  * K <= sizeof(T): unchanged (end entries live at K == sizeof(T));
  ///  * FAM records:    K := (K - sizeof(T)) mod famSize + sizeof(T);
  ///  * otherwise:      K := K mod sizeof(T), except that the exact
  ///    end-of-allocation (\p K == \p AllocSize) maps to sizeof(T) so
  ///    that one-past-the-end keeps rule-(b) semantics.
  uint64_t normalizeOffset(uint64_t K, uint64_t AllocSize) const {
    return normalizeOffsetRaw(K, AllocSize, SizeofT, FamSize);
  }

  /// The table-free form of normalizeOffset, parameterized on the
  /// allocation type's sizeof and FAM element size. The type-check
  /// inline cache (core/SiteCache.h) memoizes those two values per
  /// entry and normalizes on its hit path through this single
  /// definition, so cached and uncached checks can never diverge.
  static uint64_t normalizeOffsetRaw(uint64_t K, uint64_t AllocSize,
                                     uint64_t SizeofT, uint64_t FamSize) {
    if (K <= SizeofT)
      return K;
    if (FamSize)
      return (K - SizeofT) % FamSize + SizeofT;
    uint64_t R = K % SizeofT;
    if (R == 0 && K == AllocSize)
      return SizeofT; // Exact one-past-the-end of the allocation.
    return R;
  }

  /// sizeof(allocation type) — the table domain bound.
  uint64_t sizeofT() const { return SizeofT; }

  /// Element size of a trailing flexible array member, 0 if none.
  uint64_t famSize() const { return FamSize; }

  /// All entries, for iteration in tests and debugging (sorted by
  /// offset, then by key identity).
  const std::vector<LayoutEntry> &entries() const { return Entries; }

  size_t numEntries() const { return Entries.size(); }

  /// Memory consumed by the table (meta-data overhead accounting).
  size_t memoryBytes() const;

private:
  LayoutTable() = default;

  void buildIndex();

  uint64_t SizeofT = 0;
  /// Element size of a trailing flexible array member, 0 if none.
  uint64_t FamSize = 0;
  std::vector<LayoutEntry> Entries;
  /// Open-addressed index into Entries (+1; 0 = empty), power-of-two.
  std::vector<uint32_t> Index;
  uint64_t IndexMask = 0;
};

} // namespace effective

#endif // EFFECTIVE_CORE_LAYOUT_H

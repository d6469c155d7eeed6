//===- lowfat/SizeClass.h - Low-fat allocation size classes -----*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Size classes for the low-fat allocator (Duck & Yap, CC'16 / NDSS'17).
/// The heap is partitioned into one region per size class; every object in
/// a region is placed at a multiple of the class size from the region
/// base, so \c base(p) is a single fast modulo and \c size(p) is a shift
/// plus table lookup — both O(1), as required by Section 5 of the paper.
///
/// Classes follow the original allocator's scheme of powers of two with
/// 1.5x midpoints (32, 48, 64, 96, 128, ...) to bound internal
/// fragmentation at 33%. The minimum class is 32 bytes so that a freed
/// block's 16-byte META header (which must survive until reallocation,
/// Section 5) never overlaps the intrusive free-list link.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_LOWFAT_SIZECLASS_H
#define EFFECTIVE_LOWFAT_SIZECLASS_H

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace effective {
namespace lowfat {

/// Number of size classes (32 B ... 64 MB, powers of two and midpoints).
inline constexpr unsigned NumSizeClasses = 43;

/// Smallest class size in bytes.
inline constexpr size_t MinClassSize = 32;

/// Largest class size in bytes; larger requests fall back to the system
/// allocator and yield legacy (non-fat) pointers.
inline constexpr size_t MaxClassSize = 64ull * 1024 * 1024;

/// Descriptor of one size class.
struct SizeClass {
  /// Block size in bytes.
  uint64_t Size;
  /// Lemire fast-modulo magic: UINT64_MAX / Size + 1.
  uint64_t Magic;
};

/// Table of all size classes, ascending by size.
extern const std::array<SizeClass, NumSizeClasses> SizeClasses;

/// Returns the index of the smallest class with Size >= \p Bytes.
/// \pre Bytes <= MaxClassSize. Inline: every allocation starts here.
inline unsigned sizeToClass(size_t Bytes) {
  assert(Bytes <= MaxClassSize && "request exceeds largest size class");
  if (Bytes <= MinClassSize)
    return 0;
  // Smallest E with 2^E >= Bytes.
  unsigned E = 64 - std::countl_zero(static_cast<uint64_t>(Bytes - 1));
  // The midpoint class 3*2^(E-2) lies between 2^(E-1) and 2^E; prefer it
  // when it is large enough (it belongs to exponent pair E-1).
  uint64_t Midpoint = 3ull << (E - 2);
  if (Bytes <= Midpoint)
    return 2 * (E - 1 - 5) + 1;
  return 2 * (E - 5);
}

/// Returns the block size of class \p Index.
inline uint64_t classSize(unsigned Index) { return SizeClasses[Index].Size; }

/// Computes Offset mod classSize(Index) without a division
/// (Lemire, "Faster remainders when the divisor is a constant", 2019).
inline uint64_t classModulo(unsigned Index, uint64_t Offset) {
  const SizeClass &C = SizeClasses[Index];
  uint64_t LowBits = C.Magic * Offset;
  return static_cast<uint64_t>(
      (static_cast<__uint128_t>(LowBits) * C.Size) >> 64);
}

} // namespace lowfat
} // namespace effective

#endif // EFFECTIVE_LOWFAT_SIZECLASS_H

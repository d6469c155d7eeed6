//===- core/Bounds.h - Bounds values for dynamic checks ---------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The BOUNDS values of the instrumentation schema (Figure 3): a pair of
/// addresses delimiting the memory a pointer may legally access. The
/// "wide" bounds [0, UINTPTR_MAX) are returned for legacy pointers and
/// after reported errors, matching Figure 6 of the paper.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_CORE_BOUNDS_H
#define EFFECTIVE_CORE_BOUNDS_H

#include <cstddef>
#include <cstdint>

namespace effective {

/// An address interval [Lo, Hi). All checked accesses must lie inside.
struct Bounds {
  uintptr_t Lo = 0;
  uintptr_t Hi = 0;

  /// The permissive bounds used for legacy pointers (Figure 6 lines
  /// 11-12) and after a logged error (line 23).
  static constexpr Bounds wide() { return Bounds{0, UINTPTR_MAX}; }

  /// Bounds admitting no access at all.
  static constexpr Bounds empty() { return Bounds{0, 0}; }

  /// Bounds of the object at [\p Base, \p Base + \p Size).
  static Bounds forObject(const void *Base, size_t Size) {
    uintptr_t B = reinterpret_cast<uintptr_t>(Base);
    return Bounds{B, B + Size};
  }

  bool isWide() const { return Lo == 0 && Hi == UINTPTR_MAX; }

  /// True if the \p Size byte access at \p Ptr lies fully inside: two
  /// compares against the width, exact even where `P + Size` would wrap
  /// past UINTPTR_MAX. Requires Lo <= Hi, which every Bounds the
  /// runtime builds satisfies (intersect never yields Lo > Hi); the C
  /// ABI screens the bounds its callers pass (api/effsan.cpp).
  bool contains(const void *Ptr, size_t Size) const {
    uintptr_t P = reinterpret_cast<uintptr_t>(Ptr);
    uintptr_t Width = Hi - Lo;
    return Size <= Width && P - Lo <= Width - Size;
  }

  /// Interval intersection — the paper's bounds_narrow operation.
  Bounds intersect(Bounds Other) const {
    Bounds R{Lo > Other.Lo ? Lo : Other.Lo, Hi < Other.Hi ? Hi : Other.Hi};
    if (R.Lo > R.Hi)
      return Bounds{R.Lo, R.Lo}; // Disjoint: empty at Lo.
    return R;
  }

  bool operator==(const Bounds &) const = default;
};

} // namespace effective

#endif // EFFECTIVE_CORE_BOUNDS_H

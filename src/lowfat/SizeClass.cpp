//===- lowfat/SizeClass.cpp - Low-fat allocation size classes -------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "lowfat/SizeClass.h"

using namespace effective;
using namespace effective::lowfat;

static constexpr SizeClass makeClass(uint64_t Size) {
  return SizeClass{Size, ~0ull / Size + 1};
}

/// Builds the class table: for exponent e in [5, 25] the classes 2^e and
/// 3*2^(e-1) (its 1.5x midpoint), then the final 2^26. Evaluated at
/// compile time, so no static constructor is emitted.
static constexpr std::array<SizeClass, NumSizeClasses> buildTable() {
  std::array<SizeClass, NumSizeClasses> Table{};
  unsigned Out = 0;
  for (unsigned E = 5; E <= 25; ++E) {
    Table[Out++] = makeClass(1ull << E);
    Table[Out++] = makeClass(3ull << (E - 1));
  }
  Table[Out++] = makeClass(1ull << 26);
  return Table;
}

constexpr std::array<SizeClass, NumSizeClasses>
    effective::lowfat::SizeClasses = buildTable();

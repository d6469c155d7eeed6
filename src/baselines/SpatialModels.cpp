//===- baselines/SpatialModels.cpp - Bounds-checking tool models ----------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Models of the spatial-safety tools compared in Figure 1:
///
///  * AddressSanitizer — poisoned redzones + byte shadow + quarantine
///    (detects adjacent overflows and use-after-free until reuse; misses
///    redzone-skipping accesses and sub-object overflows);
///  * LowFat — allocation bounds rounded to the low-fat size class;
///  * BaggyBounds — allocation bounds rounded to a power of two
///    (coarser padding than LowFat);
///  * Intel MPX / SoftBound — precise per-pointer bounds with static
///    sub-object narrowing (detect sub-object overflows; no type or
///    temporal checking).
///
//===----------------------------------------------------------------------===//

#include "baselines/ModelFactories.h"

#include "lowfat/SizeClass.h"
#include "support/Compiler.h"

#include <bit>
#include <cstdlib>
#include <deque>
#include <unordered_map>

using namespace effective;
using namespace effective::baselines;

namespace {

//===----------------------------------------------------------------------===//
// AddressSanitizer
//===----------------------------------------------------------------------===//

class AsanModel final : public SanitizerModel {
  static constexpr size_t RedzoneBytes = 16;
  /// Small quarantine so reuse-after-free scenarios exercise the
  /// documented miss (real ASan has a bounded quarantine too).
  static constexpr size_t QuarantineBlocks = 1;

  enum ShadowState : uint8_t { Valid = 1, Redzone = 2, Freed = 3 };

public:
  ~AsanModel() override {
    for (auto &Entry : Blocks)
      std::free(Entry.second.Raw);
  }

  const char *name() const override { return "AddressSanitizer"; }

  Allocation allocate(size_t Size, const TypeInfo *Type) override {
    (void)Type; // ASan tracks no types.
    char *User;
    auto It = FreeBySize.find(Size);
    if (It != FreeBySize.end() && !It->second.empty()) {
      User = It->second.back();
      It->second.pop_back();
    } else {
      char *Raw = static_cast<char *>(std::malloc(Size + 2 * RedzoneBytes));
      User = Raw + RedzoneBytes;
      poison(Raw, RedzoneBytes, Redzone);
      poison(User + Size, RedzoneBytes, Redzone);
      Blocks.emplace(User, BlockInfo{Raw, Size});
    }
    poison(User, Size, Valid);
    return Allocation{User, ++NextToken};
  }

  void deallocate(void *Ptr) override {
    auto It = Blocks.find(static_cast<char *>(Ptr));
    if (It == Blocks.end())
      return;
    if (shadowAt(Ptr) == Freed) {
      flagError(); // Double free: the block is already poisoned.
      return;
    }
    poison(static_cast<char *>(Ptr), It->second.Size, Freed);
    Quarantine.push_back(static_cast<char *>(Ptr));
    while (Quarantine.size() > QuarantineBlocks) {
      char *Evicted = Quarantine.front();
      Quarantine.pop_front();
      FreeBySize[Blocks[Evicted].Size].push_back(Evicted);
    }
  }

  void access(const AccessInfo &Info) override {
    const char *P = static_cast<const char *>(Info.Ptr);
    for (size_t I = 0; I < Info.Size; ++I) {
      uint8_t State = shadowAt(P + I);
      if (State == Redzone || State == Freed) {
        flagError();
        return;
      }
    }
  }

  void cast(const CastInfo &) override {} // Not instrumented.

private:
  struct BlockInfo {
    char *Raw;
    size_t Size;
  };

  uint8_t shadowAt(const void *P) const {
    auto It = Shadow.find(reinterpret_cast<uintptr_t>(P));
    // Unknown memory (another tool's heap, stack) is unchecked.
    return It == Shadow.end() ? static_cast<uint8_t>(Valid) : It->second;
  }

  void poison(char *P, size_t Len, uint8_t State) {
    for (size_t I = 0; I < Len; ++I)
      Shadow[reinterpret_cast<uintptr_t>(P + I)] = State;
  }

  std::unordered_map<uintptr_t, uint8_t> Shadow;
  std::unordered_map<char *, BlockInfo> Blocks;
  std::unordered_map<size_t, std::vector<char *>> FreeBySize;
  std::deque<char *> Quarantine;
  uint64_t NextToken = 0;
};

//===----------------------------------------------------------------------===//
// Allocation-bounds tools: LowFat, BaggyBounds, MPX, SoftBound
//===----------------------------------------------------------------------===//

/// How a tool pads the allocation bounds it enforces.
enum class BoundsRounding {
  /// Low-fat size classes (powers of two with 1.5x midpoints).
  SizeClass,
  /// BaggyBounds: next power of two.
  PowerOfTwo,
  /// MPX/SoftBound: exact requested size.
  Exact,
};

/// A per-pointer / per-allocation bounds checker. With Narrowing, field
/// provenance narrows the enforced range to the selected sub-object
/// (MPX/SoftBound); without, only allocation bounds apply.
class BoundsModel final : public SanitizerModel {
public:
  BoundsModel(const char *Name, BoundsRounding Rounding, bool Narrowing)
      : Name(Name), Rounding(Rounding), Narrowing(Narrowing) {}

  ~BoundsModel() override {
    for (auto &Entry : Sizes)
      std::free(Entry.first);
  }

  const char *name() const override { return Name; }

  Allocation allocate(size_t Size, const TypeInfo *Type) override {
    (void)Type;
    void *P = std::malloc(paddedSize(Size));
    Sizes[P] = Size;
    return Allocation{P, ++NextToken};
  }

  void deallocate(void *) override {
    // Bounds metadata persists after free (these tools are not
    // temporal); the memory itself is kept so scenarios stay valid.
  }

  void access(const AccessInfo &Info) override {
    const char *Lo;
    size_t Extent;
    if (Narrowing && Info.SubObjectPtr) {
      Lo = static_cast<const char *>(Info.SubObjectPtr);
      Extent = Info.SubObjectSize;
    } else {
      auto It = Sizes.find(const_cast<void *>(Info.AllocPtr));
      if (It == Sizes.end())
        return; // Unknown pointer: unchecked.
      Lo = static_cast<const char *>(Info.AllocPtr);
      Extent = paddedSize(It->second);
    }
    const char *P = static_cast<const char *>(Info.Ptr);
    if (P < Lo || P + Info.Size > Lo + Extent)
      flagError();
  }

  void cast(const CastInfo &) override {} // Not instrumented.

private:
  size_t paddedSize(size_t Size) const {
    switch (Rounding) {
    case BoundsRounding::SizeClass:
      if (Size <= lowfat::MaxClassSize)
        return lowfat::classSize(lowfat::sizeToClass(Size));
      return Size;
    case BoundsRounding::PowerOfTwo:
      return std::bit_ceil(Size);
    case BoundsRounding::Exact:
      return Size;
    }
    EFFSAN_UNREACHABLE("unknown rounding mode");
  }

  const char *Name;
  BoundsRounding Rounding;
  bool Narrowing;
  std::unordered_map<void *, size_t> Sizes;
  uint64_t NextToken = 0;
};

} // namespace

std::unique_ptr<SanitizerModel>
effective::baselines::createSpatialModel(ModelKind Kind, TypeContext &Ctx) {
  (void)Ctx;
  switch (Kind) {
  case ModelKind::AddressSanitizer:
    return std::make_unique<AsanModel>();
  case ModelKind::LowFat:
    return std::make_unique<BoundsModel>("LowFat",
                                         BoundsRounding::SizeClass,
                                         /*Narrowing=*/false);
  case ModelKind::BaggyBounds:
    return std::make_unique<BoundsModel>("BaggyBounds",
                                         BoundsRounding::PowerOfTwo,
                                         /*Narrowing=*/false);
  case ModelKind::IntelMpx:
    return std::make_unique<BoundsModel>("Intel MPX", BoundsRounding::Exact,
                                         /*Narrowing=*/true);
  case ModelKind::SoftBound:
    return std::make_unique<BoundsModel>("SoftBound", BoundsRounding::Exact,
                                         /*Narrowing=*/true);
  default:
    EFFSAN_UNREACHABLE("not a spatial model kind");
  }
}

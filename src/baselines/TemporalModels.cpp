//===- baselines/TemporalModels.cpp - Temporal-safety tool models ---------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Models of CETS (identifier-based lock-and-key temporal checking) and
/// the combined SoftBound+CETS configuration of Figure 1.
///
//===----------------------------------------------------------------------===//

#include "baselines/ModelFactories.h"

#include "support/Compiler.h"

#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

using namespace effective;
using namespace effective::baselines;

namespace {

/// CETS: every allocation gets a unique identifier ("key"); every
/// pointer inherits the key of its allocation; dereference checks the
/// key is still live. Detects use-after-free, reuse-after-free (any
/// type) and double free; no spatial or type checking.
class CetsModel : public SanitizerModel {
public:
  const char *name() const override { return "CETS"; }

  ~CetsModel() override {
    for (void *P : Owned)
      std::free(P);
  }

  Allocation allocate(size_t Size, const TypeInfo *Type) override {
    (void)Type;
    void *P = std::malloc(Size);
    Owned.insert(P);
    uint64_t Key = ++NextKey;
    LiveKeys.insert(Key);
    CurrentKey[P] = Key;
    return Allocation{P, Key};
  }

  void deallocate(void *Ptr) override {
    auto It = CurrentKey.find(Ptr);
    if (It == CurrentKey.end() || !LiveKeys.count(It->second)) {
      flagError(); // Free through a dangling pointer / double free.
      return;
    }
    LiveKeys.erase(It->second);
    CurrentKey.erase(It);
    // Memory intentionally retained so scenarios can probe reuse; the
    // model reuses the address for the next same-size request.
    FreeList.push_back(Ptr);
  }

  void access(const AccessInfo &Info) override {
    if (!LiveKeys.count(Info.Token))
      flagError();
  }

  void cast(const CastInfo &) override {} // Not instrumented.

protected:
  std::unordered_set<uint64_t> LiveKeys;
  std::unordered_map<void *, uint64_t> CurrentKey;
  std::unordered_set<void *> Owned;
  std::vector<void *> FreeList;
  uint64_t NextKey = 0;
};

/// SoftBound+CETS: per-pointer exact bounds (with narrowing) plus
/// lock-and-key — the full memory-safety configuration of Figure 1
/// (spatial + temporal, but no type checking).
class SoftBoundCetsModel final : public CetsModel {
public:
  const char *name() const override { return "SoftBound+CETS"; }

  Allocation allocate(size_t Size, const TypeInfo *Type) override {
    Allocation A = CetsModel::allocate(Size, Type);
    Sizes[A.Ptr] = Size;
    return A;
  }

  void access(const AccessInfo &Info) override {
    CetsModel::access(Info); // Temporal.
    const char *Lo;
    size_t Extent;
    if (Info.SubObjectPtr) {
      Lo = static_cast<const char *>(Info.SubObjectPtr);
      Extent = Info.SubObjectSize;
    } else {
      auto It = Sizes.find(const_cast<void *>(Info.AllocPtr));
      if (It == Sizes.end())
        return;
      Lo = static_cast<const char *>(Info.AllocPtr);
      Extent = It->second;
    }
    const char *P = static_cast<const char *>(Info.Ptr);
    if (P < Lo || P + Info.Size > Lo + Extent)
      flagError();
  }

private:
  std::unordered_map<void *, size_t> Sizes;
};

} // namespace

std::unique_ptr<SanitizerModel>
effective::baselines::createTemporalModel(ModelKind Kind,
                                          TypeContext &Ctx) {
  (void)Ctx;
  switch (Kind) {
  case ModelKind::Cets:
    return std::make_unique<CetsModel>();
  case ModelKind::SoftBoundCets:
    return std::make_unique<SoftBoundCetsModel>();
  default:
    EFFSAN_UNREACHABLE("not a temporal model kind");
  }
}

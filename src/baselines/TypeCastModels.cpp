//===- baselines/TypeCastModels.cpp - Type-confusion tool models ----------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Models of the type-confusion sanitizers of Figure 1. All of them
/// instrument *explicit cast operations only* — the key limitation
/// Section 2.1 contrasts with EffectiveSan's pointer-use checking — and
/// differ in which casts they cover:
///
///  * CaVer / TypeSan — C++ static_cast downcasts between class types;
///  * UBSan           — downcasts of polymorphic classes (RTTI-based);
///  * HexType         — class downcasts plus reinterpret_cast and
///                      C-style casts between class types;
///  * libcrunch       — explicit pointer casts in C programs (any
///                      target type, not just classes).
///
/// Cast validity is judged against per-object allocation types (these
/// tools all keep such metadata) using the layout machinery, restricted
/// to the incomplete-type semantics the paper describes: no bounds are
/// derived, and offsets are always normalized modulo sizeof, so these
/// models can never flag bounds or temporal errors.
///
//===----------------------------------------------------------------------===//

#include "baselines/ModelFactories.h"

#include "core/Layout.h"
#include "support/Compiler.h"

#include <cstdlib>
#include <unordered_map>

using namespace effective;
using namespace effective::baselines;

namespace {

/// Returns true if \p T is a C++ class-like type (a record).
static bool isClassType(const TypeInfo *T) { return T && T->isRecord(); }

/// Returns true if \p T is a polymorphic class (leading vtable pointer,
/// possibly via a base chain).
static bool isPolymorphic(const TypeInfo *T) {
  const auto *R = dyn_cast_if_present<RecordType>(T);
  if (!R || R->fields().empty())
    return false;
  const FieldInfo &First = R->fields().front();
  if (First.Offset != 0)
    return false;
  if (First.Name == "__vptr")
    return true;
  return First.IsBase && isPolymorphic(First.Type);
}

/// Which casts a flavor instruments.
struct CastCoverage {
  bool Downcasts = false;       // C++ static_cast class downcasts.
  bool Reinterpret = false;     // reinterpret_cast / C casts of classes.
  bool CCasts = false;          // any explicit C cast, any type.
  bool PolymorphicOnly = false; // UBSan: RTTI requires a vtable.
};

class TypeCastModel final : public SanitizerModel {
public:
  TypeCastModel(const char *Name, CastCoverage Coverage, TypeContext &Ctx)
      : Name(Name), Coverage(Coverage), Ctx(Ctx) {}

  ~TypeCastModel() override {
    for (auto &Entry : AllocTypes)
      std::free(Entry.first);
  }

  const char *name() const override { return Name; }

  Allocation allocate(size_t Size, const TypeInfo *Type) override {
    void *P = std::malloc(Size);
    AllocTypes[P] = Type;
    return Allocation{P, ++NextToken};
  }

  void deallocate(void *) override {
    // These tools keep their type metadata until reallocation; freeing
    // is not instrumented.
  }

  void access(const AccessInfo &) override {} // Not instrumented.

  void cast(const CastInfo &Info) override {
    if (!shouldCheck(Info))
      return;
    auto It = AllocTypes.find(const_cast<void *>(Info.AllocPtr));
    if (It == AllocTypes.end() || !It->second)
      return; // Untracked object.
    const TypeInfo *Alloc = It->second;
    if (Alloc->size() == 0)
      return;
    // Incomplete-type check: does a sub-object of the target type exist
    // at this offset? (No bounds are derived — Section 2.1.)
    uint64_t Offset = static_cast<uint64_t>(
        static_cast<const char *>(Info.Ptr) -
        static_cast<const char *>(Info.AllocPtr));
    Offset %= Alloc->size();
    if (!Alloc->layout().lookup(Info.ToType, Offset))
      flagError();
  }

private:
  bool shouldCheck(const CastInfo &Info) const {
    if (Info.Kind == CastKind::Implicit)
      return false; // No tool sees implicit casts.
    if (Coverage.CCasts)
      return true;
    if (!isClassType(Info.ToType))
      return false;
    if (Coverage.PolymorphicOnly && !isPolymorphic(Info.ToType))
      return false;
    switch (Info.Kind) {
    case CastKind::StaticDowncast:
      return Coverage.Downcasts;
    case CastKind::ReinterpretCast:
    case CastKind::CCast:
      return Coverage.Reinterpret;
    case CastKind::Implicit:
      return false;
    }
    return false;
  }

  const char *Name;
  CastCoverage Coverage;
  TypeContext &Ctx;
  std::unordered_map<void *, const TypeInfo *> AllocTypes;
  uint64_t NextToken = 0;
};

} // namespace

std::unique_ptr<SanitizerModel>
effective::baselines::createTypeCastModel(ModelKind Kind,
                                          TypeContext &Ctx) {
  switch (Kind) {
  case ModelKind::CaVer:
    return std::make_unique<TypeCastModel>(
        "CaVer", CastCoverage{.Downcasts = true}, Ctx);
  case ModelKind::TypeSan:
    return std::make_unique<TypeCastModel>(
        "TypeSan", CastCoverage{.Downcasts = true}, Ctx);
  case ModelKind::UBSan:
    return std::make_unique<TypeCastModel>(
        "UBSan", CastCoverage{.Downcasts = true, .PolymorphicOnly = true},
        Ctx);
  case ModelKind::HexType:
    return std::make_unique<TypeCastModel>(
        "HexType", CastCoverage{.Downcasts = true, .Reinterpret = true},
        Ctx);
  case ModelKind::Libcrunch:
    return std::make_unique<TypeCastModel>(
        "libcrunch", CastCoverage{.Downcasts = true, .CCasts = true}, Ctx);
  default:
    EFFSAN_UNREACHABLE("not a type-cast model kind");
  }
}

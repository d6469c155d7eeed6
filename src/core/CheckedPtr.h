//===- core/CheckedPtr.h - Figure 3 schema as a library ---------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic type check instrumentation schema (Figure 3) in library
/// form, used by natively-compiled workloads and examples. A
/// CheckedPtr<T, Policy> carries the BOUNDS value the compiler pass
/// would keep in a register:
///
///   * input events — construction from a raw pointer (function
///     parameter, call return, pointer loaded from memory) and casts —
///     run type_check against the static type T (rules (a)-(d));
///   * pointer arithmetic propagates bounds (rule (f));
///   * field access narrows bounds (rule (e));
///   * dereference and escape run bounds_check (rule (g)).
///
/// The Policy parameter selects the paper's evaluation variants at
/// compile time: FullPolicy (EffectiveSan), BoundsPolicy
/// (EffectiveSan-bounds), TypePolicy (EffectiveSan-type) and NonePolicy
/// (uninstrumented; compiles to bare pointer operations). Each variant
/// comes in two rows: the default counts every bounds check and narrow
/// into the thread's check context; `VariantPolicy<V, false>` (the rows
/// Figure 8 times) counts neither, so a bounds check is a compare and a
/// branch, as in the paper's uncounted builds.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_CORE_CHECKEDPTR_H
#define EFFECTIVE_CORE_CHECKEDPTR_H

#include "api/CheckPolicy.h"
#include "core/Reflect.h"
#include "core/Runtime.h"

#include <cstddef>
#include <type_traits>

namespace effective {

/// \name Current-runtime binding.
/// CheckedPtr operations count into and report through the thread's
/// current check context (core/Runtime.h): the one a RuntimeScope /
/// SanitizerScope bound, else the fallback runtime's.
/// @{
inline Runtime &currentRuntime() {
  if (CheckContext *C = currentContextSlot())
    return *C->RT;
  if (Runtime *RT = defaultRuntimeSlot().load(std::memory_order_acquire))
    return *RT;
  return Runtime::global();
}

/// RAII binder for the current runtime: publishes the thread's block of
/// \p RT in the context slot.
class RuntimeScope {
public:
  explicit RuntimeScope(Runtime &RT) : Saved(currentContextSlot()) {
    currentContextSlot() = &RT.threadContext();
  }
  ~RuntimeScope() { currentContextSlot() = Saved; }

  RuntimeScope(const RuntimeScope &) = delete;
  RuntimeScope &operator=(const RuntimeScope &) = delete;

private:
  CheckContext *Saved;
};
/// @}

/// \name Instrumentation policies (the Figure 8 variants).
/// A policy is one VariantTable row (api/CheckPolicy.h) lifted to
/// compile-time constants, so every `if constexpr` below folds away,
/// plus whether the row counts its bounds checks and narrows. Type
/// checks and bounds_get count in every row: the site cache's samplers
/// decimate on those counts.
/// @{
template <Variant V, bool CountsBounds = true> struct VariantPolicy {
  static constexpr bool CheckInputs = traitsOf(V).CheckInputs;
  static constexpr bool CheckCasts = traitsOf(V).CheckCasts;
  static constexpr bool CheckBounds = traitsOf(V).CheckBounds;
  static constexpr bool StoresBounds = traitsOf(V).StoresBounds;
  static constexpr bool NarrowFields = traitsOf(V).NarrowFields;
  /// bounds_check and bounds_narrow bump the thread's counters (and so
  /// first load its check context).
  static constexpr bool Counts = CountsBounds;
  static constexpr const char *name() { return variantName(V); }
};

using FullPolicy = VariantPolicy<Variant::Full>;
using BoundsPolicy = VariantPolicy<Variant::Bounds>;
using TypePolicy = VariantPolicy<Variant::Type>;
using NonePolicy = VariantPolicy<Variant::None>;
/// @}

namespace detail {
/// Empty stand-in for Bounds under policies that do not track them.
struct NoBounds {
  static constexpr NoBounds wide() { return NoBounds(); }
};
} // namespace detail

/// A checked pointer: raw pointer plus (policy-dependent) bounds.
template <typename T, typename Policy = FullPolicy> class CheckedPtr {
  using BoundsT =
      std::conditional_t<Policy::StoresBounds, Bounds, detail::NoBounds>;

public:
  CheckedPtr() : Raw(nullptr), B(BoundsT::wide()) {}
  /*implicit*/ CheckedPtr(std::nullptr_t) : CheckedPtr() {}

  /// Session-aware construction: the input event run against an
  /// explicit runtime (a Sanitizer converts to its Runtime, so
  /// CheckedPtr<T>(Ptr, Session) binds the pointer to that session
  /// regardless of any thread-local scope).
  CheckedPtr(T *Ptr, Runtime &RT) { *this = input(Ptr, RT); }

  /// Input event (Figure 3 rules (a)-(c)) against an explicit runtime:
  /// a raw pointer entering checked code — function parameter, call
  /// return, or pointer loaded from memory. Runs type_check (full) /
  /// bounds_get (bounds-only).
  static CheckedPtr input(T *Ptr, Runtime &RT) {
    if constexpr (Policy::CheckInputs)
      return input(Ptr, RT.threadContext());
    else
      return withBounds(Ptr, BoundsT::wide());
  }

  /// Input event counted into \p CC and checked against its runtime.
  static CheckedPtr input(T *Ptr, CheckContext &CC) {
    CheckedPtr P;
    P.Raw = Ptr;
    if constexpr (Policy::CheckInputs && Policy::CheckCasts) {
      if (Ptr)
        P.B = typeCheck(CC, Ptr);
    } else if constexpr (Policy::CheckInputs) {
      if (Ptr)
        P.B = CC.RT->boundsGet(CC, Ptr);
    }
    return P;
  }

  /// Input event against the thread's current runtime.
  static CheckedPtr input(T *Ptr) {
    if constexpr (Policy::CheckInputs)
      return input(Ptr, currentContext());
    else
      return withBounds(Ptr, BoundsT::wide());
  }

  /// Cast event (Figure 3 rule (d)): (T *)q for a source pointer of a
  /// different static type. Under TypePolicy this is the only
  /// instrumented operation, matching EffectiveSan-type.
  template <typename U>
  static CheckedPtr fromCast(const CheckedPtr<U, Policy> &Src) {
    return fromCast(reinterpret_cast<T *>(Src.raw()));
  }

  /// Cast event from a raw pointer against an explicit runtime.
  static CheckedPtr fromCast(T *Ptr, Runtime &RT) {
    if constexpr (Policy::CheckCasts || Policy::CheckInputs)
      return fromCast(Ptr, RT.threadContext());
    else
      return withBounds(Ptr, BoundsT::wide());
  }

  /// Cast event counted into \p CC and checked against its runtime.
  static CheckedPtr fromCast(T *Ptr, CheckContext &CC) {
    CheckedPtr P;
    P.Raw = Ptr;
    if constexpr (Policy::CheckCasts) {
      Bounds Checked = Bounds::wide();
      if (Ptr)
        Checked = typeCheck(CC, Ptr);
      if constexpr (Policy::StoresBounds)
        P.B = Checked;
    } else if constexpr (Policy::CheckInputs) {
      if (Ptr)
        P.B = CC.RT->boundsGet(CC, Ptr);
    }
    return P;
  }

  /// Cast event against the thread's current runtime.
  static CheckedPtr fromCast(T *Ptr) {
    if constexpr (Policy::CheckCasts || Policy::CheckInputs)
      return fromCast(Ptr, currentContext());
    else
      return withBounds(Ptr, BoundsT::wide());
  }

  /// Wraps a pointer with explicitly known bounds (used by field
  /// narrowing and the allocator helpers).
  static CheckedPtr withBounds(T *Ptr, BoundsT Known) {
    CheckedPtr P;
    P.Raw = Ptr;
    P.B = Known;
    return P;
  }

  /// \name Dereference (rule (g): bounds_check before use).
  /// Always inlined, as a compiler pass inlines the check it inserts:
  /// left to the inliner's size heuristics, a recursive kernel can end
  /// up calling a dereference per access.
  /// @{
  EFFSAN_ALWAYS_INLINE T &operator*() const {
    check(Raw, sizeof(T));
    return *Raw;
  }

  EFFSAN_ALWAYS_INLINE T *operator->() const {
    check(Raw, sizeof(T));
    return Raw;
  }

  EFFSAN_ALWAYS_INLINE T &operator[](ptrdiff_t Index) const {
    T *P = Raw + Index;
    check(P, sizeof(T));
    return *P;
  }

  /// Reads through the pointer with an explicit access size (sub-word
  /// accesses).
  EFFSAN_ALWAYS_INLINE T &at(ptrdiff_t Index, size_t AccessSize) const {
    T *P = Raw + Index;
    check(P, AccessSize);
    return *P;
  }
  /// @}

  /// \name Pointer arithmetic (rule (f): bounds propagate unchanged).
  /// @{
  CheckedPtr operator+(ptrdiff_t N) const {
    return withBounds(Raw + N, B);
  }
  CheckedPtr operator-(ptrdiff_t N) const {
    return withBounds(Raw - N, B);
  }
  ptrdiff_t operator-(const CheckedPtr &O) const { return Raw - O.Raw; }
  CheckedPtr &operator+=(ptrdiff_t N) {
    Raw += N;
    return *this;
  }
  CheckedPtr &operator-=(ptrdiff_t N) {
    Raw -= N;
    return *this;
  }
  CheckedPtr &operator++() {
    ++Raw;
    return *this;
  }
  CheckedPtr &operator--() {
    --Raw;
    return *this;
  }
  /// @}

  /// Field access (rule (e): bounds_narrow to the selected member).
  /// For array members the result points at the first element with the
  /// whole array as bounds.
  template <typename M, typename U = T>
    requires std::is_class_v<U>
  auto field(M U::*Member) const {
    M *F = &(Raw->*Member);
    if constexpr (std::is_array_v<M>) {
      using Elem = std::remove_extent_t<M>;
      Elem *First = &(*F)[0];
      return CheckedPtr<Elem, Policy>::withBounds(First,
                                                  narrowed(F, sizeof(M)));
    } else {
      return CheckedPtr<M, Policy>::withBounds(F, narrowed(F, sizeof(M)));
    }
  }

  /// The raw pointer without any check (pointer comparisons, frees).
  T *raw() const { return Raw; }

  /// Escape event (rule (g)): the pointer is stored to memory or passed
  /// to uninstrumented code; its value must be in bounds.
  T *escape() const {
    check(Raw, 0);
    return Raw;
  }

  /// The tracked bounds (wide when the policy does not track bounds).
  Bounds bounds() const {
    if constexpr (Policy::StoresBounds)
      return B;
    else
      return Bounds::wide();
  }

  explicit operator bool() const { return Raw != nullptr; }
  bool operator==(const CheckedPtr &O) const { return Raw == O.Raw; }
  bool operator!=(const CheckedPtr &O) const { return Raw != O.Raw; }
  bool operator==(std::nullptr_t) const { return Raw == nullptr; }

private:
  template <typename, typename> friend class CheckedPtr;

  /// type_check of \p Ptr against T at T's pseudo-site.
  static Bounds typeCheck(CheckContext &CC, T *Ptr) {
    const TypeInfo *Type =
        staticTypeOf<std::remove_cv_t<T>>(CC.RT->typeContext());
    return CC.RT->typeCheck(CC, Ptr, Type, siteForType(Type));
  }

  /// bounds_check. A counting row bumps the thread's counter line
  /// through the current context (one TLS load) before it compares; a
  /// non-counting row compares and branches, and loads the context only
  /// on the failing path, to report through its runtime.
  EFFSAN_ALWAYS_INLINE void check(const void *P, size_t Size) const {
    if constexpr (Policy::CheckBounds && Policy::Counts)
      Runtime::boundsCheck(currentContext(), P, Size, B);
    else if constexpr (Policy::CheckBounds)
      if (EFFSAN_UNLIKELY(!B.contains(P, Size)))
        Runtime::boundsCheckFail(currentContext(), P, Size, B, NoSite);
  }

  /// bounds_narrow: counted through the current context in a counting
  /// row, a plain intersection otherwise.
  BoundsT narrowed(const void *Field, size_t Size) const {
    if constexpr (Policy::NarrowFields && Policy::Counts)
      return Runtime::boundsNarrow(currentContext(), B, Field, Size);
    else if constexpr (Policy::NarrowFields)
      return B.intersect(Bounds::forObject(Field, Size));
    else if constexpr (Policy::StoresBounds)
      return B; // Rule (f)-style propagation: allocation bounds only.
    else
      return BoundsT::wide();
  }

  T *Raw;
  [[no_unique_address]] BoundsT B;
};

/// Allocates Count objects of type T from \p RT bound to the reflected
/// dynamic type (the paper's type_malloc with the inferred allocation
/// type), returning a checked pointer with the allocation bounds.
template <typename T, typename Policy>
CheckedPtr<T, Policy> allocateChecked(Runtime &RT, size_t Count = 1) {
  const TypeInfo *Type = staticTypeOf<std::remove_cv_t<T>>(RT.typeContext());
  void *Mem = RT.allocate(Count * sizeof(T), Type);
  if constexpr (Policy::StoresBounds)
    return CheckedPtr<T, Policy>::withBounds(
        static_cast<T *>(Mem), Bounds::forObject(Mem, Count * sizeof(T)));
  else
    return CheckedPtr<T, Policy>::withBounds(static_cast<T *>(Mem),
                                             detail::NoBounds());
}

/// Frees a checked allocation (the paper's type_free).
template <typename T, typename Policy>
void deallocateChecked(Runtime &RT, CheckedPtr<T, Policy> Ptr) {
  RT.deallocate(Ptr.raw());
}

} // namespace effective

#endif // EFFECTIVE_CORE_CHECKEDPTR_H

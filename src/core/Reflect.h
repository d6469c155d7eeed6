//===- core/Reflect.h - Native C++ type reflection --------------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Maps native C++ types to interned TypeInfo. In the paper this job is
/// done by the modified clang front end, which attaches DWARF-derived
/// type annotations to the IR; for natively-compiled workloads we derive
/// the same information with template specializations plus a reflection
/// macro for record types:
///
/// \code
///   struct Account { int Number[8]; float Balance; };
///   EFFECTIVE_REFLECT(Account, Number, Balance);
///   ...
///   const TypeInfo *T = staticTypeOf<Account>(TypeContext::global());
/// \endcode
///
/// TypeOf<T>::get resolves under the context's locks; staticTypeOf<T>
/// memoizes its answer per thread, so a check path pays the lock once
/// per thread and type rather than on every check.
///
/// Function types map to the "generic function" type, matching the
/// paper's treatment of virtual function tables as arrays of generic
/// functions.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_CORE_REFLECT_H
#define EFFECTIVE_CORE_REFLECT_H

#include "core/TypeContext.h"
#include "support/Compiler.h"

#include <cstddef>
#include <vector>

namespace effective {

/// Primary template; specialized for every reflectable type. Using an
/// unreflected record type is a compile-time error.
template <typename T> struct TypeOf;

#define EFFSAN_REFLECT_PRIMITIVE(TYPE, GETTER)                               \
  template <> struct TypeOf<TYPE> {                                          \
    static const TypeInfo *get(TypeContext &Ctx) { return Ctx.GETTER(); }    \
  }

EFFSAN_REFLECT_PRIMITIVE(void, getVoid);
EFFSAN_REFLECT_PRIMITIVE(bool, getBool);
EFFSAN_REFLECT_PRIMITIVE(char, getChar);
EFFSAN_REFLECT_PRIMITIVE(signed char, getSChar);
EFFSAN_REFLECT_PRIMITIVE(unsigned char, getUChar);
EFFSAN_REFLECT_PRIMITIVE(short, getShort);
EFFSAN_REFLECT_PRIMITIVE(unsigned short, getUShort);
EFFSAN_REFLECT_PRIMITIVE(int, getInt);
EFFSAN_REFLECT_PRIMITIVE(unsigned int, getUInt);
EFFSAN_REFLECT_PRIMITIVE(long, getLong);
EFFSAN_REFLECT_PRIMITIVE(unsigned long, getULong);
EFFSAN_REFLECT_PRIMITIVE(long long, getLongLong);
EFFSAN_REFLECT_PRIMITIVE(unsigned long long, getULongLong);
EFFSAN_REFLECT_PRIMITIVE(float, getFloat);
EFFSAN_REFLECT_PRIMITIVE(double, getDouble);
EFFSAN_REFLECT_PRIMITIVE(long double, getLongDouble);

#undef EFFSAN_REFLECT_PRIMITIVE

// Qualifiers do not affect the dynamic type ([16] 6.5.0 p7).
template <typename T> struct TypeOf<const T> : TypeOf<T> {};
template <typename T> struct TypeOf<volatile T> : TypeOf<T> {};
template <typename T> struct TypeOf<const volatile T> : TypeOf<T> {};

template <typename T> struct TypeOf<T *> {
  static const TypeInfo *get(TypeContext &Ctx) {
    return Ctx.getPointer(TypeOf<T>::get(Ctx));
  }
};

template <typename T, size_t N> struct TypeOf<T[N]> {
  static const TypeInfo *get(TypeContext &Ctx) {
    return Ctx.getArray(TypeOf<T>::get(Ctx), N);
  }
};

// All function types collapse to the generic function type (the paper
// treats virtual function tables as arrays of generic functions).
template <typename R, typename... A> struct TypeOf<R(A...)> {
  static const TypeInfo *get(TypeContext &Ctx) {
    return Ctx.getGenericFunction();
  }
};

/// The static type of a check or typed allocation: the library form of
/// the constant &TYPE the paper's instrumentation passes to type_check
/// (Figure 3). A thread's first use of T on \p Ctx resolves through
/// TypeOf<T>::get, taking the context's locks and following its
/// concurrent-build protocol; every later use reads a thread-local memo
/// and takes no lock. The memo is keyed by the context's stamp, not its
/// address, so a context built where a dead one lived never receives
/// the dead one's types.
template <typename T> const TypeInfo *staticTypeOf(TypeContext &Ctx) {
  struct Memo {
    uint64_t Stamp;
    const TypeInfo *Type;
  };
  static thread_local constinit Memo M = {0, nullptr};
  if (EFFSAN_LIKELY(M.Stamp == Ctx.stamp()))
    return M.Type;
  const TypeInfo *Type = TypeOf<T>::get(Ctx);
  M = {Ctx.stamp(), Type};
  return Type;
}

/// Helper used by the reflection macros to assemble and define a record.
class ReflectBuilder {
public:
  ReflectBuilder(TypeContext &Ctx, TypeKind Kind, std::string_view Tag)
      : Ctx(Ctx), Record(Ctx.createRecord(Kind, Tag)) {}

  RecordType *record() { return Record; }

  void addField(std::string_view Name, const TypeInfo *Type,
                uint64_t Offset, bool IsBase = false) {
    Fields.push_back(FieldInfo{Name, Type, Offset, IsBase});
  }

  /// Adds the hidden virtual-table pointer of a polymorphic class as a
  /// pointer-to-generic-function member at offset 0.
  void addVTablePointer() {
    addField("__vptr", Ctx.getPointer(Ctx.getGenericFunction()), 0);
  }

  const TypeInfo *finish(uint64_t Size, uint32_t Align,
                         const TypeInfo *FamElement = nullptr) {
    Ctx.defineRecord(Record, Fields, Size, Align, FamElement);
    return Record;
  }

private:
  TypeContext &Ctx;
  RecordType *Record;
  std::vector<FieldInfo> Fields;
};

} // namespace effective

//===----------------------------------------------------------------------===//
// Preprocessor FOR_EACH machinery (up to 24 fields).
//===----------------------------------------------------------------------===//

#define EFFSAN_PP_NARG(...)                                                  \
  EFFSAN_PP_NARG_(__VA_ARGS__, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14,  \
                  13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0)
#define EFFSAN_PP_NARG_(_1, _2, _3, _4, _5, _6, _7, _8, _9, _10, _11, _12,  \
                        _13, _14, _15, _16, _17, _18, _19, _20, _21, _22,   \
                        _23, _24, N, ...)                                    \
  N
#define EFFSAN_PP_CAT(A, B) EFFSAN_PP_CAT_(A, B)
#define EFFSAN_PP_CAT_(A, B) A##B

#define EFFSAN_PP_FE_1(M, T, X) M(T, X)
#define EFFSAN_PP_FE_2(M, T, X, ...) M(T, X) EFFSAN_PP_FE_1(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_3(M, T, X, ...) M(T, X) EFFSAN_PP_FE_2(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_4(M, T, X, ...) M(T, X) EFFSAN_PP_FE_3(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_5(M, T, X, ...) M(T, X) EFFSAN_PP_FE_4(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_6(M, T, X, ...) M(T, X) EFFSAN_PP_FE_5(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_7(M, T, X, ...) M(T, X) EFFSAN_PP_FE_6(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_8(M, T, X, ...) M(T, X) EFFSAN_PP_FE_7(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_9(M, T, X, ...) M(T, X) EFFSAN_PP_FE_8(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_10(M, T, X, ...) M(T, X) EFFSAN_PP_FE_9(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_11(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_10(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_12(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_11(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_13(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_12(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_14(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_13(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_15(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_14(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_16(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_15(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_17(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_16(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_18(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_17(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_19(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_18(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_20(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_19(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_21(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_20(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_22(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_21(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_23(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_22(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_24(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_23(M, T, __VA_ARGS__)

#define EFFSAN_PP_FOR_EACH(M, T, ...)                                        \
  EFFSAN_PP_CAT(EFFSAN_PP_FE_, EFFSAN_PP_NARG(__VA_ARGS__))                  \
  (M, T, __VA_ARGS__)

/// Emits one FieldInfo for a named member. offsetof on a polymorphic
/// (non-standard-layout) class is conditionally supported; GCC and
/// Clang give the real offset, so the warning is silenced here.
#define EFFSAN_REFLECT_FIELD(TYPE, FIELD)                                    \
  _Pragma("GCC diagnostic push")                                             \
  _Pragma("GCC diagnostic ignored \"-Winvalid-offsetof\"")                   \
  Builder.addField(#FIELD,                                                   \
                   ::effective::TypeOf<decltype(TYPE::FIELD)>::get(Ctx),     \
                   offsetof(TYPE, FIELD));                                   \
  _Pragma("GCC diagnostic pop")

/* Concurrency: the fast path accepts only *complete* cached records;
 * a build is serialized by the context's recursive reflect guard, so
 * two threads reflecting TYPE first-use-concurrently agree on ONE
 * record (the loser of the race finds the winner's complete record on
 * its double-check), and no thread can observe a record whose fields
 * are still being written. The early setCached (before the fields) is
 * what lets a self-referential TYPE find its own in-progress record
 * through the plain getCached on the re-entrant path. Check-path
 * callers reach this only on a thread's first use of TYPE; after that
 * staticTypeOf's per-thread memo answers without a lock. */
#define EFFSAN_REFLECT_BODY(TYPE, KIND, PRELUDE, ...)                        \
  template <> struct effective::TypeOf<TYPE> {                               \
    static const ::effective::TypeInfo *get(::effective::TypeContext &Ctx) { \
      static char CacheTag;                                                  \
      if (const auto *Cached = Ctx.getCachedComplete(&CacheTag))             \
        return Cached;                                                       \
      auto ReflectGuard = Ctx.reflectGuard();                                \
      if (const auto *Cached = Ctx.getCached(&CacheTag))                     \
        return Cached;                                                       \
      ::effective::ReflectBuilder Builder(Ctx, KIND, #TYPE);                 \
      Ctx.setCached(&CacheTag, Builder.record());                            \
      PRELUDE                                                                \
      EFFSAN_PP_FOR_EACH(EFFSAN_REFLECT_FIELD, TYPE, __VA_ARGS__)            \
      return Builder.finish(sizeof(TYPE), alignof(TYPE));                    \
    }                                                                        \
  }

/// Reflects a plain struct: EFFECTIVE_REFLECT(S, f1, f2, ...). Must be
/// used at global namespace scope.
#define EFFECTIVE_REFLECT(TYPE, ...)                                         \
  EFFSAN_REFLECT_BODY(TYPE, ::effective::TypeKind::Struct, , __VA_ARGS__)

/// Reflects a union.
#define EFFECTIVE_REFLECT_UNION(TYPE, ...)                                   \
  EFFSAN_REFLECT_BODY(TYPE, ::effective::TypeKind::Union, , __VA_ARGS__)

/// Reflects a polymorphic class (hidden vtable pointer at offset 0).
#define EFFECTIVE_REFLECT_POLY(TYPE, ...)                                    \
  EFFSAN_REFLECT_BODY(TYPE, ::effective::TypeKind::Struct,                   \
                      Builder.addVTablePointer();, __VA_ARGS__)

/// Reflects a class with one (possibly polymorphic) base class; the base
/// becomes an implicit embedded member at its real offset (Section 3).
#define EFFECTIVE_REFLECT_DERIVED(TYPE, BASE, ...)                           \
  EFFSAN_REFLECT_BODY(                                                       \
      TYPE, ::effective::TypeKind::Struct,                                   \
      Builder.addField(                                                      \
          #BASE, ::effective::TypeOf<BASE>::get(Ctx),                        \
          (uint64_t)(reinterpret_cast<char *>(static_cast<BASE *>(          \
                         reinterpret_cast<TYPE *>(sizeof(TYPE)))) -          \
                     reinterpret_cast<char *>(sizeof(TYPE))),                \
          /*IsBase=*/true);,                                                 \
      __VA_ARGS__)

#endif // EFFECTIVE_CORE_REFLECT_H

//===- core/TypeContext.h - Type interning context --------------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TypeContext owns and interns all TypeInfo objects. Interning gives
/// the property the runtime relies on: pointer equality of TypeInfo is
/// dynamic type equality, the same guarantee the paper obtains by
/// emitting type meta data as weak symbols ("defined once per type").
///
/// Thread-safe: all factory methods may be called concurrently (the
/// EffectiveSan runtime reflects types from any thread).
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_CORE_TYPECONTEXT_H
#define EFFECTIVE_CORE_TYPECONTEXT_H

#include "core/TypeInfo.h"
#include "support/Arena.h"
#include "support/UniqueStamp.h"

#include <mutex>
#include <unordered_map>
#include <vector>

namespace effective {

/// Factory and owner of interned TypeInfo objects.
class TypeContext {
public:
  TypeContext();
  ~TypeContext();

  TypeContext(const TypeContext &) = delete;
  TypeContext &operator=(const TypeContext &) = delete;

  /// \name Primitive types (singletons per context).
  /// @{
  const TypeInfo *getVoid() const { return Primitives[0]; }
  const TypeInfo *getBool() const { return prim(TypeKind::Bool); }
  const TypeInfo *getChar() const { return prim(TypeKind::Char); }
  const TypeInfo *getSChar() const { return prim(TypeKind::SChar); }
  const TypeInfo *getUChar() const { return prim(TypeKind::UChar); }
  const TypeInfo *getShort() const { return prim(TypeKind::Short); }
  const TypeInfo *getUShort() const { return prim(TypeKind::UShort); }
  const TypeInfo *getInt() const { return prim(TypeKind::Int); }
  const TypeInfo *getUInt() const { return prim(TypeKind::UInt); }
  const TypeInfo *getLong() const { return prim(TypeKind::Long); }
  const TypeInfo *getULong() const { return prim(TypeKind::ULong); }
  const TypeInfo *getLongLong() const { return prim(TypeKind::LongLong); }
  const TypeInfo *getULongLong() const { return prim(TypeKind::ULongLong); }
  const TypeInfo *getFloat() const { return prim(TypeKind::Float); }
  const TypeInfo *getDouble() const { return prim(TypeKind::Double); }
  const TypeInfo *getLongDouble() const {
    return prim(TypeKind::LongDouble);
  }
  /// The dynamic type of deallocated memory (Section 3).
  const TypeInfo *getFree() const { return prim(TypeKind::Free); }
  /// The dynamic type of a stack object whose frame has returned (the
  /// stack flavor of FREE; see TypeKind::StackFree).
  const TypeInfo *getStackFree() const {
    return prim(TypeKind::StackFree);
  }
  /// Internal sentinel for the (T*)/(void*) coercion; see LayoutTable.
  const TypeInfo *getAnyPointer() const {
    return prim(TypeKind::AnyPointer);
  }
  /// @}

  /// Interns T* for pointee \p Pointee.
  const PointerType *getPointer(const TypeInfo *Pointee);

  /// Interns the complete array type \p Element[\p Count].
  const ArrayType *getArray(const TypeInfo *Element, uint64_t Count);

  /// Interns a function type.
  const FunctionType *getFunction(const TypeInfo *Return,
                                  std::span<const TypeInfo *const> Params);

  /// The "generic function" type standing in for virtual-table entries.
  const FunctionType *getGenericFunction();

  /// Creates a fresh, incomplete record with tag \p Tag (may be empty).
  /// Each call creates a distinct dynamic type.
  RecordType *createRecord(TypeKind StructOrUnion, std::string_view Tag);

  /// Completes \p Record with its members and layout. \p FamElement is
  /// the element type of a trailing flexible array member, or null.
  /// Field name strings are interned; must be called exactly once.
  void defineRecord(RecordType *Record, std::span<const FieldInfo> Fields,
                    uint64_t Size, uint32_t Align,
                    const TypeInfo *FamElement = nullptr);

  /// \name Reflection cache.
  /// Native reflection (core/Reflect.h) memoizes one TypeInfo per C++
  /// type per context, keyed by a unique static tag address. Callers on
  /// the check path (CheckedPtr's type checks and typed allocations) do
  /// not come here after a thread's first use of a type: they go
  /// through staticTypeOf, whose per-thread memo, keyed by stamp(),
  /// answers without taking this context's lock.
  ///
  /// Thread safety protocol: record builds are serialized by
  /// reflectGuard() (recursive, so a record whose field type is itself
  /// a reflected record re-enters safely, and a self-referential type
  /// finds its own in-progress record through getCached). The fast
  /// path uses getCachedComplete, which refuses a record
  /// still under construction — such a caller then blocks on the guard
  /// until the builder finishes, so no thread can ever allocate or
  /// check against a half-defined record.
  /// @{
  const TypeInfo *getCached(const void *Key) const;
  /// As getCached, but returns null for a record that is not yet
  /// complete (mid-build on another thread).
  const TypeInfo *getCachedComplete(const void *Key) const;
  void setCached(const void *Key, const TypeInfo *Type);
  /// Serializes reflection builds on this context.
  std::unique_lock<std::recursive_mutex> reflectGuard() {
    return std::unique_lock<std::recursive_mutex>(ReflectBuildLock);
  }
  /// @}

  /// Process-unique and never zero: tells this context from a dead one
  /// built at the same address (see staticTypeOf in core/Reflect.h).
  uint64_t stamp() const { return Stamp; }

  /// Interns a string into the context arena.
  std::string_view internString(std::string_view S);

  /// Number of types created (for tests/statistics).
  size_t numTypes() const;

  /// The process-wide context used by the default runtime and native
  /// reflection.
  static TypeContext &global();

private:
  const TypeInfo *prim(TypeKind Kind) const {
    return Primitives[static_cast<unsigned>(Kind)];
  }

  const uint64_t Stamp = nextUniqueStamp();
  mutable std::mutex Lock;
  /// Serializes whole reflection builds (see reflectGuard). Recursive:
  /// reflecting a record reflects its field types first.
  std::recursive_mutex ReflectBuildLock;
  Arena A;
  const TypeInfo *Primitives[static_cast<unsigned>(TypeKind::AnyPointer) +
                             1] = {};
  std::unordered_map<const TypeInfo *, const PointerType *> PointerTypes;
  std::unordered_map<uint64_t, std::vector<const ArrayType *>> ArrayTypes;
  std::unordered_map<uint64_t, std::vector<const FunctionType *>>
      FunctionTypes;
  const FunctionType *GenericFunction = nullptr;
  std::unordered_map<const void *, const TypeInfo *> ReflectCache;
  std::vector<TypeInfo *> AllTypes;
};

/// Helper that computes C-style record layout (offset/alignment/padding)
/// for frontends that do not know offsets a priori (MiniC). Native
/// reflection uses real offsetof() values instead.
class RecordBuilder {
public:
  /// \p Tag may be empty for anonymous records.
  RecordBuilder(TypeContext &Ctx, TypeKind StructOrUnion,
                std::string_view Tag);

  /// Appends a member; computes its offset per C layout rules (union
  /// members are all at offset zero). \p Name is copied.
  RecordBuilder &addField(std::string_view Name, const TypeInfo *Type,
                          bool IsBase = false);

  /// Appends a trailing flexible array member of element type \p Elem
  /// (represented as Elem[1], per the paper). Must be last.
  RecordBuilder &addFlexibleArray(std::string_view Name,
                                  const TypeInfo *Elem);

  /// Completes and returns the record.
  RecordType *finish();

  /// The record being built (incomplete until finish()).
  RecordType *record() const { return Record; }

private:
  TypeContext &Ctx;
  RecordType *Record;
  std::vector<FieldInfo> Fields;
  uint64_t Offset = 0;
  uint32_t MaxAlign = 1;
  const TypeInfo *FamElement = nullptr;
  bool IsUnion;
  bool Finished = false;
};

} // namespace effective

#endif // EFFECTIVE_CORE_TYPECONTEXT_H

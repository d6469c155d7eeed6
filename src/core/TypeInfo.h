//===- core/TypeInfo.h - Dynamic type representation ------------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic type representation of Section 3 of the EffectiveSan paper:
/// a qualifier-free version of the C/C++ "effective type". Types are
/// interned by TypeContext, so pointer equality of \c TypeInfo is type
/// equality — mirroring the paper's "type meta data defined once per
/// type" (weak-symbol) scheme.
///
/// The special FREE type (Figure 2 rule (h)) marks deallocated memory and
/// is distinct from every C/C++ type, reducing use-after-free detection
/// to type checking.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_CORE_TYPEINFO_H
#define EFFECTIVE_CORE_TYPEINFO_H

#include "support/Casting.h"

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace effective {

class LayoutTable;
class TypeContext;

/// Discriminator for the TypeInfo hierarchy. Primitive kinds come first
/// so classof() predicates are simple range checks.
enum class TypeKind : uint8_t {
  // Primitive types.
  Void,
  Bool,
  Char,
  SChar,
  UChar,
  Short,
  UShort,
  Int,
  UInt,
  Long,
  ULong,
  LongLong,
  ULongLong,
  Float,
  Double,
  LongDouble,
  // The dynamic type of deallocated memory (Section 3).
  Free,
  // The dynamic type of a stack object whose frame has returned. A
  // distinct FREE flavor: any access through it is a temporal error
  // like Free, but the runtime can classify it as a stack
  // use-after-return instead of a heap use-after-free.
  StackFree,
  // A sentinel used internally by the layout table to implement the
  // (T*) <-> (void*) coercion; never the type of a real object.
  AnyPointer,
  // Derived types.
  Pointer,
  Array,
  Function,
  Struct,
  Union,
};

/// Returns a human-readable spelling of \p Kind (primitives only).
std::string_view primitiveKindName(TypeKind Kind);

/// Base of the dynamic type hierarchy. Immutable after construction
/// (records: after completion); instances are interned and owned by a
/// TypeContext.
class TypeInfo {
public:
  TypeKind kind() const { return Kind; }

  /// sizeof(T) in bytes. Zero only for void, function types and
  /// incomplete records.
  uint64_t size() const { return Size; }

  /// alignof(T) in bytes.
  uint32_t align() const { return Align; }

  /// For primitives the spelling, for records the tag (may be empty for
  /// anonymous records), empty otherwise.
  std::string_view name() const { return Name; }

  bool isVoid() const { return Kind == TypeKind::Void; }
  /// True for both FREE flavors — every temporal check tests this, so
  /// retired stack objects trip the same machinery as freed heap ones.
  bool isFree() const {
    return Kind == TypeKind::Free || Kind == TypeKind::StackFree;
  }
  /// True only for the stack-frame-returned flavor of FREE.
  bool isStackFree() const { return Kind == TypeKind::StackFree; }
  bool isCharLike() const {
    return Kind == TypeKind::Char || Kind == TypeKind::SChar ||
           Kind == TypeKind::UChar;
  }
  bool isInteger() const {
    return Kind >= TypeKind::Bool && Kind <= TypeKind::ULongLong;
  }
  bool isFloating() const {
    return Kind >= TypeKind::Float && Kind <= TypeKind::LongDouble;
  }
  bool isPointer() const { return Kind == TypeKind::Pointer; }
  bool isRecord() const {
    return Kind == TypeKind::Struct || Kind == TypeKind::Union;
  }

  /// Renders the full type spelling, e.g. "struct T", "int[3]",
  /// "char *", "void (int, float)".
  std::string str() const;

  /// The layout hash table for this type as an allocation type (Section
  /// 5). Built lazily on first use; thread-safe; immutable afterwards.
  const LayoutTable &layout() const;

  /// The TypeContext that owns (and interned) this type.
  const TypeContext &context() const { return *Context; }

protected:
  TypeInfo(TypeKind Kind, uint64_t Size, uint32_t Align,
           std::string_view Name)
      : Size(Size), Align(Align), Kind(Kind), Name(Name) {}

  // Mutable by TypeContext when completing records.
  uint64_t Size;
  uint32_t Align;

private:
  friend class TypeContext;

  TypeKind Kind;
  std::string_view Name;
  const TypeContext *Context = nullptr;
  mutable std::atomic<const LayoutTable *> Layout{nullptr};
};

/// A fundamental type (void, bool, char, ..., long double), the FREE
/// type, or the AnyPointer sentinel.
class PrimitiveType : public TypeInfo {
public:
  static bool classof(const TypeInfo *T) {
    return T->kind() <= TypeKind::AnyPointer;
  }

private:
  friend class TypeContext;
  PrimitiveType(TypeKind Kind, uint64_t Size, uint32_t Align)
      : TypeInfo(Kind, Size, Align, primitiveKindName(Kind)) {}
};

/// T* — a pointer to a pointee type.
class PointerType : public TypeInfo {
public:
  const TypeInfo *pointee() const { return Pointee; }

  static bool classof(const TypeInfo *T) {
    return T->kind() == TypeKind::Pointer;
  }

private:
  friend class TypeContext;
  PointerType(const TypeInfo *Pointee)
      : TypeInfo(TypeKind::Pointer, sizeof(void *), alignof(void *), {}),
        Pointee(Pointee) {}

  const TypeInfo *Pointee;
};

/// T[N] — a complete array type. Dynamic (allocation) types are always
/// complete (Section 3); the "incomplete" static type T[] used by checks
/// is represented by the element type itself.
class ArrayType : public TypeInfo {
public:
  const TypeInfo *element() const { return Element; }
  uint64_t count() const { return Count; }

  /// Strips all array levels: int[3][2] -> int.
  const TypeInfo *scalarElement() const;

  static bool classof(const TypeInfo *T) {
    return T->kind() == TypeKind::Array;
  }

private:
  friend class TypeContext;
  ArrayType(const TypeInfo *Element, uint64_t Count)
      : TypeInfo(TypeKind::Array, Element->size() * Count, Element->align(),
                 {}),
        Element(Element), Count(Count) {}

  const TypeInfo *Element;
  uint64_t Count;
};

/// A function type. Function types are never object types; they only
/// occur as pointees. The "generic" function type stands in for entries
/// of virtual function tables (the paper treats vtables as arrays of
/// generic functions).
class FunctionType : public TypeInfo {
public:
  const TypeInfo *returnType() const { return Return; }
  std::span<const TypeInfo *const> params() const { return Params; }
  bool isGeneric() const { return Generic; }

  static bool classof(const TypeInfo *T) {
    return T->kind() == TypeKind::Function;
  }

private:
  friend class TypeContext;
  FunctionType(const TypeInfo *Return, std::span<const TypeInfo *const> Ps,
               bool Generic)
      : TypeInfo(TypeKind::Function, 0, 1, {}), Return(Return), Params(Ps),
        Generic(Generic) {}

  const TypeInfo *Return;
  std::span<const TypeInfo *const> Params;
  bool Generic;
};

/// One member of a record. Base classes are represented as embedded
/// members (Section 3: "we consider any base class to be an implicit
/// embedded member").
struct FieldInfo {
  std::string_view Name;
  const TypeInfo *Type = nullptr;
  uint64_t Offset = 0;
  bool IsBase = false;
};

/// struct/union/class. Created incomplete by TypeContext::createRecord()
/// and completed exactly once via TypeContext::defineRecord(). Two
/// records are the same dynamic type iff they are the same object;
/// frontends decide whether a re-declared tag refers to an existing
/// record (same layout) or is a genuinely different type (the paper's
/// gcc "incompatible definitions for the same tag" errors).
class RecordType : public TypeInfo {
public:
  std::span<const FieldInfo> fields() const { return Fields; }
  bool isUnion() const { return kind() == TypeKind::Union; }
  bool isComplete() const { return Complete; }

  /// Element type of a trailing flexible array member, or null. The FAM
  /// itself appears in fields() as a one-element array, per the paper's
  /// "treated as equivalent to U member[1]" convention.
  const TypeInfo *famElement() const { return FamElement; }

  static bool classof(const TypeInfo *T) {
    return T->kind() == TypeKind::Struct || T->kind() == TypeKind::Union;
  }

private:
  friend class TypeContext;
  RecordType(TypeKind Kind, std::string_view Tag)
      : TypeInfo(Kind, 0, 1, Tag) {}

  std::span<const FieldInfo> Fields;
  const TypeInfo *FamElement = nullptr;
  bool Complete = false;
};

} // namespace effective

#endif // EFFECTIVE_CORE_TYPEINFO_H

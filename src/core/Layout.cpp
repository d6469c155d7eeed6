//===- core/Layout.cpp - The layout function and hash table ---------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Layout.h"

#include "core/TypeContext.h"
#include "support/Compiler.h"
#include "support/Hashing.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <map>

using namespace effective;

namespace {

/// Accumulates entries with the paper's tie-breaking: for a given
/// (key, offset) cell, non-end entries beat end entries, then wider
/// bounds beat narrower bounds.
class TableBuilder {
public:
  explicit TableBuilder(const TypeContext &Ctx) : Ctx(Ctx) {}

  void add(const TypeInfo *Key, uint64_t Offset, int64_t RelLo,
           int64_t RelHi, bool IsEnd) {
    assert(Key && "layout entry with null key");
    LayoutEntry Fresh{Key, Offset, RelLo, RelHi, IsEnd};
    auto [It, Inserted] = Cells.try_emplace({Key, Offset}, Fresh);
    if (Inserted)
      return;
    LayoutEntry &Old = It->second;
    if (Old.IsEnd != IsEnd) {
      if (Old.IsEnd)
        Old = Fresh;
      return;
    }
    if (Fresh.width() > Old.width())
      Old = Fresh;
  }

  /// Emits the (sub-)objects of one complete object of type \p T placed
  /// at offset \p Base; implements Figure 2 rules (a)-(g).
  void addObject(const TypeInfo *T, uint64_t Base);

  std::vector<LayoutEntry> take() {
    std::vector<LayoutEntry> Result;
    Result.reserve(Cells.size());
    for (auto &Cell : Cells)
      Result.push_back(Cell.second);
    return Result;
  }

private:
  void addScalar(const TypeInfo *T, uint64_t Base);
  void addArray(const ArrayType *T, uint64_t Base);
  void addRecord(const RecordType *T, uint64_t Base);
  void addFamField(const RecordType *R, const FieldInfo &Fam);

  struct CellKey {
    const TypeInfo *Key;
    uint64_t Offset;
    bool operator<(const CellKey &O) const {
      if (Offset != O.Offset)
        return Offset < O.Offset;
      return Key < O.Key;
    }
  };

  const TypeContext &Ctx;
  std::map<CellKey, LayoutEntry> Cells;
};

/// The key-reduction chain for array matching (rules (c)/(d)): a pointer
/// into an array of S matches the incomplete types S, and — when S is
/// itself an array — every further element reduction, all with the full
/// array's bounds ("sub-objects with wider bounds are preferred").
static void forEachReduction(const TypeInfo *S, auto Fn) {
  Fn(S);
  while (const auto *A = dyn_cast<ArrayType>(S)) {
    S = A->element();
    Fn(S);
  }
}

void TableBuilder::addScalar(const TypeInfo *T, uint64_t Base) {
  int64_t Size = static_cast<int64_t>(T->size());
  // Rule (a): base entry.
  add(T, Base, 0, Size, /*IsEnd=*/false);
  // Rule (b): one-past-the-end entry.
  add(T, Base + T->size(), -Size, 0, /*IsEnd=*/true);
  // Pointer members are additionally indexed under AnyPointer so a
  // static (void *) matches them (Section 5 coercions).
  if (T->isPointer()) {
    const TypeInfo *Any = Ctx.getAnyPointer();
    add(Any, Base, 0, Size, /*IsEnd=*/false);
    add(Any, Base + T->size(), -Size, 0, /*IsEnd=*/true);
  }
}

void TableBuilder::addArray(const ArrayType *T, uint64_t Base) {
  const TypeInfo *Elem = T->element();
  uint64_t ElemSize = Elem->size();
  uint64_t Count = T->count();
  int64_t ArraySize = static_cast<int64_t>(T->size());
  // The array itself is a sub-object: a pointer of static type T (from
  // a pointer-to-array) must match at the array's base and end.
  add(T, Base, 0, ArraySize, /*IsEnd=*/false);
  add(T, Base + T->size(), -ArraySize, 0, /*IsEnd=*/true);
  // Rules (c)/(d): every element boundary is also a pointer to the
  // containing array, keyed by each element reduction; the final
  // boundary is the array's one-past-the-end.
  for (uint64_t I = 0; I <= Count; ++I) {
    uint64_t Off = Base + I * ElemSize;
    int64_t Lo = static_cast<int64_t>(Base) - static_cast<int64_t>(Off);
    int64_t Hi = Lo + ArraySize;
    bool IsEnd = I == Count;
    forEachReduction(Elem, [&](const TypeInfo *Key) {
      add(Key, Off, Lo, Hi, IsEnd);
    });
  }
  // Recurse into each element's interior.
  for (uint64_t I = 0; I < Count; ++I)
    addObject(Elem, Base + I * ElemSize);
}

void TableBuilder::addFamField(const RecordType *R, const FieldInfo &Fam) {
  // A flexible array member U member[] is represented as U member[1]
  // (paper Section 5). Its array bounds extend to the allocation end,
  // and interior pointers may sit in any element, so the array-boundary
  // entries are unbounded in both directions and get narrowed to the
  // allocation at runtime. The normalized domain additionally covers one
  // element past sizeof(R): [sizeof(R), sizeof(R) + sizeof(U)).
  const auto *FamArray = cast<ArrayType>(Fam.Type);
  const TypeInfo *Elem = FamArray->element();
  uint64_t ElemSize = Elem->size();
  uint64_t Boundaries[2] = {Fam.Offset, R->size()};
  for (uint64_t Off : Boundaries) {
    forEachReduction(Elem, [&](const TypeInfo *Key) {
      add(Key, Off, RelNegInf, RelPosInf, /*IsEnd=*/false);
    });
  }
  // Interior of the first element and of the normalized "tail" element.
  addObject(Elem, Fam.Offset);
  if (R->size() + ElemSize > R->size()) // Guard overflow pedantically.
    addObject(Elem, R->size());
  // Inner boundaries inside the tail element for multi-boundary elements
  // are produced by the recursion above.
  (void)ElemSize;
}

void TableBuilder::addRecord(const RecordType *T, uint64_t Base) {
  assert(T->isComplete() && "layout of incomplete record");
  int64_t Size = static_cast<int64_t>(T->size());
  add(T, Base, 0, Size, /*IsEnd=*/false);
  add(T, Base + T->size(), -Size, 0, /*IsEnd=*/true);
  // Rules (e)-(g): members (and base classes) at their offsets; union
  // members all sit at offset zero, which the FieldInfo offsets already
  // reflect.
  std::span<const FieldInfo> Fields = T->fields();
  for (size_t I = 0; I < Fields.size(); ++I) {
    const FieldInfo &F = Fields[I];
    bool IsFam = T->famElement() && I + 1 == Fields.size();
    if (IsFam && Base == 0) {
      addFamField(T, F);
      continue;
    }
    addObject(F.Type, Base + F.Offset);
  }
}

void TableBuilder::addObject(const TypeInfo *T, uint64_t Base) {
  switch (T->kind()) {
  case TypeKind::Array:
    addArray(cast<ArrayType>(T), Base);
    return;
  case TypeKind::Struct:
  case TypeKind::Union:
    addRecord(cast<RecordType>(T), Base);
    return;
  default:
    addScalar(T, Base);
    return;
  }
}

} // namespace

LayoutTable LayoutTable::build(const TypeInfo *T) {
  assert(T && T->size() > 0 && "layout of an incomplete type");
  LayoutTable Table;
  Table.SizeofT = T->size();
  if (const auto *R = dyn_cast<RecordType>(T))
    if (R->famElement())
      Table.FamSize = R->famElement()->size();

  TableBuilder Builder(T->context());
  // The allocation type is the incomplete T[] (its element count is the
  // runtime allocation size), so the top-level entries are unbounded and
  // exist at both ends of the table domain — offset sizeof(T) doubles as
  // the base of "element 1" for multi-element allocations.
  for (uint64_t Off : {uint64_t(0), T->size()}) {
    forEachReduction(T, [&](const TypeInfo *Key) {
      Builder.add(Key, Off, RelNegInf, RelPosInf, /*IsEnd=*/false);
    });
  }
  Builder.addObject(T, 0);
  Table.Entries = Builder.take();

  // Re-emit every offset-0 interior entry at offset sizeof(T): for a
  // multi-element allocation that position is the base of element 1 and
  // must carry the same sub-object structure. (Safe for single-element
  // allocations too: runtime narrowing to the allocation bounds leaves
  // an empty range, so any access still faults the bounds check.)
  if (!Table.FamSize) {
    std::vector<LayoutEntry> Extra;
    for (const LayoutEntry &E : Table.Entries)
      if (E.Offset == 0 && !E.IsEnd)
        Extra.push_back(LayoutEntry{E.Key, T->size(), E.RelLo, E.RelHi,
                                    false});
    for (const LayoutEntry &E : Extra) {
      auto It = std::find_if(
          Table.Entries.begin(), Table.Entries.end(),
          [&](const LayoutEntry &O) {
            return O.Key == E.Key && O.Offset == E.Offset;
          });
      if (It == Table.Entries.end())
        Table.Entries.push_back(E);
      else if (It->IsEnd || It->width() < E.width())
        *It = E;
    }
  }

  std::sort(Table.Entries.begin(), Table.Entries.end(),
            [](const LayoutEntry &A, const LayoutEntry &B) {
              if (A.Offset != B.Offset)
                return A.Offset < B.Offset;
              return A.Key < B.Key;
            });
  Table.buildIndex();
  return Table;
}

void LayoutTable::buildIndex() {
  size_t Buckets = std::bit_ceil(Entries.size() * 2 + 1);
  Index.assign(Buckets, 0);
  IndexMask = Buckets - 1;
  for (size_t I = 0; I < Entries.size(); ++I) {
    uint64_t H = hashCombine(hashPointer(Entries[I].Key),
                             Entries[I].Offset);
    size_t Slot = H & IndexMask;
    while (Index[Slot] != 0)
      Slot = (Slot + 1) & IndexMask;
    Index[Slot] = static_cast<uint32_t>(I + 1);
  }
}

const LayoutEntry *LayoutTable::lookup(const TypeInfo *Key,
                                       uint64_t Offset) const {
  uint64_t H = hashCombine(hashPointer(Key), Offset);
  size_t Slot = H & IndexMask;
  while (uint32_t Id = Index[Slot]) {
    const LayoutEntry &E = Entries[Id - 1];
    if (E.Key == Key && E.Offset == Offset)
      return &E;
    Slot = (Slot + 1) & IndexMask;
  }
  return nullptr;
}

size_t LayoutTable::memoryBytes() const {
  return sizeof(*this) + Entries.capacity() * sizeof(LayoutEntry) +
         Index.capacity() * sizeof(uint32_t);
}

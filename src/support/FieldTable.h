//===- support/FieldTable.h - X-macro field-table expanders -----*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Row expanders for the X-macro field tables that declare each counter
/// record once (CheckCounters, lowfat::HeapStats, service::ServiceStats).
/// Every table lists the member name first, so each expander takes
/// (Field, ...) and ignores the table's other columns. The copy
/// expanders read `In` and write `Out`, which the expanding code names.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_SUPPORT_FIELDTABLE_H
#define EFFECTIVE_SUPPORT_FIELDTABLE_H

/// Flag dispatch for table columns: EFFSAN_IF(1, Code) expands to Code,
/// EFFSAN_IF(0, Code) to nothing. The flag must be a literal 0 or 1.
#define EFFSAN_IF(Flag, ...) EFFSAN_IF_##Flag(__VA_ARGS__)
#define EFFSAN_IF_0(...)
#define EFFSAN_IF_1(...) __VA_ARGS__

#define EFFSAN_FIELD_U64(Field, ...) uint64_t Field = 0;
#define EFFSAN_FIELD_ATOMIC(Field, ...) std::atomic<uint64_t> Field{0};
#define EFFSAN_FIELD_ADD(Field, ...) Out.Field += In.Field;
#define EFFSAN_FIELD_LOAD(Field, ...)                                          \
  Out.Field = In.Field.load(std::memory_order_relaxed);
#define EFFSAN_FIELD_CLEAR(Field, ...)                                         \
  Out.Field.store(0, std::memory_order_relaxed);

#endif // EFFECTIVE_SUPPORT_FIELDTABLE_H

//===- api/effsan.cpp - Stable C ABI implementation -----------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "api/effsan.h"

#include "api/Sanitizer.h"
#include "api/effsan_internal.h"

#include <cstring>
#include <new>

using namespace effective;

struct effsan_struct_builder {
  effsan_session *Owner;
  RecordBuilder Builder;
  bool IsUnion;

  effsan_struct_builder(effsan_session *Owner, TypeKind Kind,
                        const char *Tag)
      : Owner(Owner),
        Builder(Owner->S->types(), Kind,
                Tag ? std::string_view(Tag) : std::string_view()),
        IsUnion(Kind == TypeKind::Union) {}
};

namespace {

const TypeInfo *unwrap(effsan_type Type) {
  return reinterpret_cast<const TypeInfo *>(Type);
}

effsan_type wrap(const TypeInfo *Type) {
  return reinterpret_cast<effsan_type>(Type);
}

Bounds unwrap(effsan_bounds B) { return Bounds{B.lo, B.hi}; }

effsan_bounds wrap(Bounds B) { return effsan_bounds{B.Lo, B.Hi}; }

/// bounds_check on caller-supplied bounds. Bounds with lo > hi admit no
/// access, but Bounds::contains answers only for Lo <= Hi, so under the
/// policies that check bounds such a check takes the failing path
/// directly (counted, as every check is).
void boundsCheck(effsan_session *session, const void *ptr, size_t size,
                 effsan_bounds bounds, SiteId site) {
  Bounds B = unwrap(bounds);
  Sanitizer &S = *session->S;
  if (EFFSAN_UNLIKELY(B.Lo > B.Hi) &&
      (S.policy() == CheckPolicy::Full ||
       S.policy() == CheckPolicy::BoundsOnly)) {
    CheckContext &CC = S.runtime().threadContext();
    ownerBump(CC.BoundsChecks);
    Runtime::boundsCheckFail(CC, ptr, size, B, site);
    return;
  }
  S.boundsCheck(ptr, size, B, site);
}

} // namespace

extern "C" {

uint32_t effsan_abi_version(void) { return EFFSAN_ABI_VERSION; }

//===----------------------------------------------------------------------===//
// Sessions
//===----------------------------------------------------------------------===//

void effsan_options_init(effsan_options *options) {
  if (!options)
    return;
  std::memset(options, 0, sizeof(*options));
  options->struct_size = sizeof(effsan_options);
  options->policy = EFFSAN_POLICY_FULL;
  options->log_errors = 1;
  options->log_stream = stderr;
  options->max_reports_per_location = 1;
  options->site_cache_entries = 1024;
  options->magazine_size = 16;
  options->defer_error_rendering = 0;
  options->engine = EFFSAN_ENGINE_BYTECODE;
}

effsan_session *effsan_session_create(const effsan_options *options) {
  // Tail-extension tolerance: read only the prefix the caller declared.
  effsan_options Defaults =
      effsan_detail::readPrefix(options, effsan_options_init);

  SessionOptions SessionOpts;
  SessionOpts.Policy = effsan_detail::policyFromValue(Defaults.policy);
  SessionOpts.Reporter = effsan_detail::reporterOptions(Defaults);
  SessionOpts.Reporter.AbortAfter = Defaults.abort_after;
  SessionOpts.Reporter.DeferMessageRendering =
      Defaults.defer_error_rendering != 0;
  SessionOpts.SiteCacheEntries =
      static_cast<size_t>(Defaults.site_cache_entries);
  SessionOpts.Heap.MagazineSize =
      static_cast<unsigned>(Defaults.magazine_size);

  uint32_t Engine = Defaults.engine == EFFSAN_ENGINE_TREE
                        ? EFFSAN_ENGINE_TREE
                        : EFFSAN_ENGINE_BYTECODE;
  return new (std::nothrow) effsan_session(SessionOpts, Engine);
}

void effsan_session_destroy(effsan_session *session) {
  // Pool shard views are owned by their pool; destroying one here
  // would tear the pool apart under the caller, so it is a no-op.
  if (session && !session->Owned)
    return;
  delete session;
}

void effsan_session_reset(effsan_session *session) {
  session->S->reset();
}

uint32_t effsan_session_policy(const effsan_session *session) {
  return effsan_detail::policyValue(session->S->policy());
}

void effsan_session_set_policy(effsan_session *session, uint32_t policy) {
  session->S->setPolicy(effsan_detail::policyFromValue(policy));
}

uint32_t effsan_session_engine(const effsan_session *session) {
  return session->Engine;
}

//===----------------------------------------------------------------------===//
// Type construction
//===----------------------------------------------------------------------===//

effsan_type effsan_type_primitive(effsan_session *session,
                                  effsan_prim kind) {
  TypeContext &Ctx = session->S->types();
  switch (kind) {
  case EFFSAN_PRIM_VOID:
    return wrap(Ctx.getVoid());
  case EFFSAN_PRIM_BOOL:
    return wrap(Ctx.getBool());
  case EFFSAN_PRIM_CHAR:
    return wrap(Ctx.getChar());
  case EFFSAN_PRIM_SCHAR:
    return wrap(Ctx.getSChar());
  case EFFSAN_PRIM_UCHAR:
    return wrap(Ctx.getUChar());
  case EFFSAN_PRIM_SHORT:
    return wrap(Ctx.getShort());
  case EFFSAN_PRIM_USHORT:
    return wrap(Ctx.getUShort());
  case EFFSAN_PRIM_INT:
    return wrap(Ctx.getInt());
  case EFFSAN_PRIM_UINT:
    return wrap(Ctx.getUInt());
  case EFFSAN_PRIM_LONG:
    return wrap(Ctx.getLong());
  case EFFSAN_PRIM_ULONG:
    return wrap(Ctx.getULong());
  case EFFSAN_PRIM_LONGLONG:
    return wrap(Ctx.getLongLong());
  case EFFSAN_PRIM_ULONGLONG:
    return wrap(Ctx.getULongLong());
  case EFFSAN_PRIM_FLOAT:
    return wrap(Ctx.getFloat());
  case EFFSAN_PRIM_DOUBLE:
    return wrap(Ctx.getDouble());
  case EFFSAN_PRIM_LONGDOUBLE:
    return wrap(Ctx.getLongDouble());
  }
  return nullptr;
}

effsan_type effsan_type_pointer(effsan_session *session,
                                effsan_type pointee) {
  if (!pointee)
    return nullptr;
  return wrap(session->S->types().getPointer(unwrap(pointee)));
}

effsan_type effsan_type_array(effsan_session *session, effsan_type element,
                              uint64_t count) {
  if (!element)
    return nullptr;
  return wrap(session->S->types().getArray(unwrap(element), count));
}

effsan_struct_builder *effsan_struct_begin(effsan_session *session,
                                           const char *tag) {
  return new (std::nothrow)
      effsan_struct_builder(session, TypeKind::Struct, tag);
}

effsan_struct_builder *effsan_union_begin(effsan_session *session,
                                          const char *tag) {
  return new (std::nothrow)
      effsan_struct_builder(session, TypeKind::Union, tag);
}

void effsan_struct_field(effsan_struct_builder *builder, const char *name,
                         effsan_type type) {
  if (!builder || !type)
    return;
  builder->Builder.addField(name ? std::string_view(name)
                                 : std::string_view(),
                            unwrap(type));
}

void effsan_struct_flexible_array(effsan_struct_builder *builder,
                                  const char *name, effsan_type element) {
  // A FAM needs a preceding size; C has no flexible-array unions.
  if (!builder || !element || builder->IsUnion)
    return;
  builder->Builder.addFlexibleArray(name ? std::string_view(name)
                                         : std::string_view(),
                                    unwrap(element));
}

effsan_type effsan_struct_end(effsan_struct_builder *builder) {
  if (!builder)
    return nullptr;
  effsan_type Result = wrap(builder->Builder.finish());
  delete builder;
  return Result;
}

const char *effsan_type_name(effsan_type type, char *buffer, size_t size) {
  if (!buffer || size == 0)
    return buffer;
  if (!type) {
    buffer[0] = '\0';
    return buffer;
  }
  std::string Name = unwrap(type)->str();
  std::snprintf(buffer, size, "%s", Name.c_str());
  return buffer;
}

uint64_t effsan_type_size(effsan_type type) {
  return type ? unwrap(type)->size() : 0;
}

effsan_type effsan_type_of(effsan_session *session, const void *ptr) {
  return wrap(session->S->dynamicTypeOf(ptr));
}

//===----------------------------------------------------------------------===//
// Typed allocation
//===----------------------------------------------------------------------===//

void *effsan_malloc(effsan_session *session, size_t size, effsan_type type) {
  return session->S->malloc(size, unwrap(type));
}

void *effsan_calloc(effsan_session *session, size_t count, size_t size,
                    effsan_type type) {
  return session->S->calloc(count, size, unwrap(type));
}

void *effsan_realloc(effsan_session *session, void *ptr, size_t size,
                     effsan_type type) {
  return session->S->realloc(ptr, size, unwrap(type));
}

void effsan_free(effsan_session *session, void *ptr) {
  session->S->free(ptr);
}

//===----------------------------------------------------------------------===//
// Typed stack & global objects (since 1.8)
//===----------------------------------------------------------------------===//

effsan_stack_mark effsan_stack_enter(effsan_session *session) {
  return session->S->runtime().stackMark();
}

void effsan_stack_leave(effsan_session *session, effsan_stack_mark mark) {
  session->S->runtime().stackRelease(static_cast<size_t>(mark));
}

void *effsan_stack_alloc_typed(effsan_session *session, size_t size,
                               effsan_type type, int escapes) {
  return session->S->runtime().stackAllocate(size, unwrap(type),
                                             escapes != 0);
}

uint32_t effsan_globals_register(effsan_session *session,
                                 const effsan_global_def *defs,
                                 uint32_t count, void **addresses_out) {
  if (!defs || !addresses_out || count == 0)
    return 0;
  Runtime &RT = session->S->runtime();
  for (uint32_t I = 0; I < count; ++I) {
    const effsan_global_def &D = defs[I];
    addresses_out[I] = RT.globalAllocate(
        D.size, unwrap(D.type),
        D.name ? std::string_view(D.name) : std::string_view());
  }
  return count;
}

//===----------------------------------------------------------------------===//
// Dynamic checks
//===----------------------------------------------------------------------===//

effsan_bounds effsan_type_check(effsan_session *session, const void *ptr,
                                effsan_type static_type) {
  if (!static_type)
    return wrap(session->S->boundsGet(ptr));
  return wrap(session->S->typeCheck(ptr, unwrap(static_type)));
}

effsan_bounds effsan_bounds_get(effsan_session *session, const void *ptr) {
  return wrap(session->S->boundsGet(ptr));
}

void effsan_bounds_check(effsan_session *session, const void *ptr,
                         size_t size, effsan_bounds bounds) {
  boundsCheck(session, ptr, size, bounds, NoSite);
}

effsan_bounds effsan_bounds_narrow(effsan_session *session,
                                   effsan_bounds bounds, const void *field,
                                   size_t size) {
  return wrap(session->S->boundsNarrow(unwrap(bounds), field, size));
}

//===----------------------------------------------------------------------===//
// Counters and error reporting
//===----------------------------------------------------------------------===//

void effsan_get_counters(const effsan_session *session,
                         effsan_counters *out) {
  if (!out)
    return;
  Sanitizer &S = *session->S;
  effsan_detail::fillCounters(S.counters().snapshot(), S.reporter(), *out);
}

uint64_t effsan_type_check_cache_hits(const effsan_session *session) {
  auto *S = const_cast<effsan_session *>(session);
  return S->S->counters().snapshot().TypeCheckCacheHits;
}

uint64_t effsan_type_check_cache_misses(const effsan_session *session) {
  auto *S = const_cast<effsan_session *>(session);
  return S->S->counters().snapshot().TypeCheckCacheMisses;
}

void effsan_get_heap_stats(const effsan_session *session,
                           effsan_heap_stats *out) {
  auto *S = const_cast<effsan_session *>(session);
  Runtime &RT = S->S->runtime();
  // Per-shard view: for pooled sessions this is the shard's slice of
  // the shared arena; for private sessions shard 0 IS the whole heap.
  effsan_detail::fillHeapStats(RT.heap().shardStats(RT.heapShard()), out);
}

void effsan_get_object_stats(const effsan_session *session,
                             effsan_object_stats *out) {
  Runtime &RT = session->S->runtime();
  auto Full = effsan_detail::zeroed<effsan_object_stats>();
  CheckCounters::StackTotals Stack = RT.counters().stackTotals();
  Full.stack_allocs = Stack.Allocs;
  Full.stack_frames = Stack.Frames;
  Full.stack_retired = Stack.Retired;
  // The pool's byte tally counts whole blocks; the ABI stat is payload
  // bytes, so strip the per-global META header the runtime prepends.
  size_t NumGlobals = RT.globals().size();
  Full.global_objects = NumGlobals;
  Full.global_bytes =
      RT.globals().totalBytes() - NumGlobals * sizeof(MetaHeader);
  effsan_detail::writePrefix(Full, out);
}

void effsan_set_error_callback(effsan_session *session,
                               effsan_error_callback callback,
                               void *user_data) {
  session->Sinks.set(session->S->reporter(), callback, user_data);
}

void effsan_set_error_callback_v2(effsan_session *session,
                                  effsan_error_callback_v2 callback,
                                  void *user_data) {
  session->Sinks.set(session->S->reporter(), callback, user_data);
}

//===----------------------------------------------------------------------===//
// Site attribution (since 1.3)
//===----------------------------------------------------------------------===//

uint32_t effsan_site_table_register(effsan_session *session,
                                    const char *file,
                                    const effsan_site_info *sites,
                                    uint32_t count) {
  if (!sites || count == 0)
    return EFFSAN_NO_SITE;
  SiteTable Table;
  Table.File = file ? file : "<unknown>";
  Table.Entries.reserve(count);
  for (uint32_t I = 0; I < count; ++I) {
    const effsan_site_info &In = sites[I];
    SiteTable::Entry E;
    E.Kind = effsan_detail::checkKindFromValue(In.kind);
    E.Loc = SourceLoc{In.line, In.column};
    E.Function = In.function ? In.function : "";
    E.StaticType = reinterpret_cast<const TypeInfo *>(In.static_type);
    Table.Entries.push_back(std::move(E));
  }
  return session->S->registerSiteTable(Table);
}

uint64_t effsan_site_error_events(const effsan_session *session,
                                  uint32_t site) {
  auto *S = const_cast<effsan_session *>(session);
  return S->S->errorEventsAtSite(site);
}

effsan_bounds effsan_type_check_at(effsan_session *session,
                                   const void *ptr,
                                   effsan_type static_type,
                                   uint32_t site) {
  if (!static_type)
    return wrap(session->S->boundsGet(ptr, site));
  if (site == EFFSAN_NO_SITE)
    return wrap(session->S->typeCheck(ptr, unwrap(static_type)));
  return wrap(session->S->typeCheck(ptr, unwrap(static_type), site));
}

effsan_bounds effsan_bounds_get_at(effsan_session *session,
                                   const void *ptr, uint32_t site) {
  return wrap(session->S->boundsGet(ptr, site));
}

void effsan_bounds_check_at(effsan_session *session, const void *ptr,
                            size_t size, effsan_bounds bounds,
                            uint32_t site) {
  boundsCheck(session, ptr, size, bounds, site);
}

// The effsan_pool_* entry points live in concurrent/effsan_pool.cpp,
// next to the SessionPool they wrap.

} // extern "C"

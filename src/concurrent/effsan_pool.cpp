//===- concurrent/effsan_pool.cpp - C ABI pool entry points ---------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The effsan_pool_* functions of the stable C ABI (api/effsan.h,
/// since 1.1), implemented here so the core archive stays free of the
/// concurrent layer: only consumers that use pools link it.
///
//===----------------------------------------------------------------------===//

#include "api/effsan.h"
#include "api/effsan_internal.h"
#include "concurrent/SessionPool.h"
#include "obs/SiteProfiler.h"

#include <cstring>
#include <memory>
#include <new>
#include <vector>

using namespace effective;

/// The opaque pool handle: the SessionPool plus one stable
/// effsan_session wrapper per shard (checkout hands these out) and the
/// C callbacks on the central reporter. They normally fire on the
/// drain thread (see the threading contract on
/// effsan_pool_set_error_callback); site attribution survives the ring
/// because the SiteInfo a shard resolved at report time points into
/// the pool-wide registry, which outlives every queued event.
struct effsan_pool {
  concurrent::SessionPool Pool;
  std::vector<std::unique_ptr<effsan_session>> Sessions;
  effsan_detail::ErrorSinks Sinks;

  effsan_pool(const concurrent::PoolOptions &Options, uint32_t Engine)
      : Pool(Options) {
    for (unsigned I = 0; I < Pool.numShards(); ++I)
      Sessions.push_back(
          std::make_unique<effsan_session>(Pool.shard(I), Engine));
  }
};

extern "C" {

void effsan_pool_options_init(effsan_pool_options *options) {
  if (!options)
    return;
  std::memset(options, 0, sizeof(*options));
  options->struct_size = sizeof(effsan_pool_options);
  options->shards = 0; // Auto: one per hardware thread.
  options->policy = EFFSAN_POLICY_FULL;
  options->log_errors = 1;
  options->log_stream = stderr;
  options->max_reports_per_location = 1;
  options->site_cache_entries = 1024;
  options->magazine_size = 16;
  options->enable_work_stealing = 0;
  options->defer_error_rendering = 0;
  options->engine = EFFSAN_ENGINE_BYTECODE;
}

effsan_pool *effsan_pool_create(const effsan_pool_options *options) {
  // Tail-extension tolerance: read only the prefix the caller declared.
  effsan_pool_options Defaults =
      effsan_detail::readPrefix(options, effsan_pool_options_init);

  concurrent::PoolOptions PoolOpts;
  PoolOpts.Shards = Defaults.shards;
  PoolOpts.Policy = effsan_detail::policyFromValue(Defaults.policy);
  PoolOpts.Reporter = effsan_detail::reporterOptions(Defaults);
  PoolOpts.Reporter.DeferMessageRendering =
      Defaults.defer_error_rendering != 0;
  PoolOpts.ErrorRingCapacity =
      static_cast<size_t>(Defaults.error_ring_capacity);
  PoolOpts.SiteCacheEntries =
      static_cast<size_t>(Defaults.site_cache_entries);
  PoolOpts.Heap.MagazineSize =
      static_cast<unsigned>(Defaults.magazine_size);
  PoolOpts.Heap.EnableWorkStealing = Defaults.enable_work_stealing != 0;

  uint32_t Engine = Defaults.engine == EFFSAN_ENGINE_TREE
                        ? EFFSAN_ENGINE_TREE
                        : EFFSAN_ENGINE_BYTECODE;
  return new (std::nothrow) effsan_pool(PoolOpts, Engine);
}

void effsan_pool_destroy(effsan_pool *pool) { delete pool; }

uint32_t effsan_pool_num_shards(const effsan_pool *pool) {
  return pool->Pool.numShards();
}

effsan_session *effsan_pool_checkout(effsan_pool *pool) {
  return pool->Sessions[pool->Pool.checkoutIndex()].get();
}

effsan_session *effsan_pool_shard(effsan_pool *pool, uint32_t index) {
  if (index >= pool->Pool.numShards())
    return nullptr;
  return pool->Sessions[index].get();
}

uint64_t effsan_pool_drain(effsan_pool *pool) {
  return pool->Pool.drain();
}

void effsan_pool_get_counters(effsan_pool *pool, effsan_counters *out) {
  if (!out)
    return;
  pool->Pool.drain();
  effsan_detail::fillCounters(pool->Pool.counters(), pool->Pool.reporter(),
                              *out);
}

void effsan_pool_set_error_callback(effsan_pool *pool,
                                    effsan_error_callback callback,
                                    void *user_data) {
  pool->Sinks.set(pool->Pool.reporter(), callback, user_data);
}

void effsan_pool_set_error_callback_v2(effsan_pool *pool,
                                       effsan_error_callback_v2 callback,
                                       void *user_data) {
  pool->Sinks.set(pool->Pool.reporter(), callback, user_data);
}

uint64_t effsan_pool_site_error_events(effsan_pool *pool, uint32_t site) {
  pool->Pool.drain();
  return pool->Pool.reporter().numEventsAtSite(site);
}

void effsan_pool_get_heap_stats(effsan_pool *pool,
                                effsan_heap_stats *out) {
  effsan_detail::fillHeapStats(pool->Pool.heap().stats(), out);
}

uint32_t effsan_pool_hot_sites(effsan_pool *pool, effsan_obs_site *out,
                               uint32_t capacity) {
  if (!pool || !out || capacity == 0)
    return 0;
  // Drain first so error_events joined below include queued events.
  pool->Pool.drain();
  std::vector<obs::SiteProfile> Top = pool->Pool.mergedHotSites(capacity);
  ErrorReporter &Central = pool->Pool.reporter();
  uint32_t N = 0;
  for (const obs::SiteProfile &P : Top) {
    effsan_obs_site &Slot = out[N++];
    Slot.site = P.Site;
    Slot.line = 0;
    Slot.column = 0;
    Slot.reserved_ = 0;
    Slot.hits = P.Hits;
    Slot.misses = P.Misses;
    Slot.error_events = Central.numEventsAtSite(P.Site);
    Slot.file = "";
    Slot.function = nullptr;
    if (const SiteInfo *W = pool->Pool.siteTables().resolve(P.Site)) {
      Slot.line = W->Line;
      Slot.column = W->Column;
      Slot.file = W->File;
      Slot.function = W->Function[0] != '\0' ? W->Function : nullptr;
    }
  }
  return N;
}

} // extern "C"

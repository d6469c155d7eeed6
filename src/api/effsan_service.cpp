//===- api/effsan_service.cpp - C ABI service entry points ----------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The effsan_service_* functions of the stable C ABI (api/effsan.h,
/// since 1.5): thin translation from the C handle world onto
/// service::Supervisor. Lives in the service archive so only consumers
/// that run service mode link the drain thread.
///
//===----------------------------------------------------------------------===//

#include "api/effsan.h"
#include "api/effsan_internal.h"
#include "service/Supervisor.h"

#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

using namespace effective;

/// The opaque service handle: the Supervisor, one stable effsan_session
/// wrapper per shard (checkout hands these out), the C callbacks, and
/// the C-side lease ledger. C has no RAII, so effsan_service_checkout
/// parks the granted Supervisor::Lease here per shard and
/// effsan_service_release retires one; a shard never serves two tenants
/// at once, so any parked lease on the shard belongs to the releasing
/// tenant (each lease releases under its own captured id either way).
struct effsan_service {
  service::Supervisor Sup;
  std::vector<std::unique_ptr<effsan_session>> Sessions;
  std::mutex LeaseLock;
  std::vector<std::vector<service::Supervisor::Lease>> Held;
  /// C callbacks on the central reporter (normally fired by the drain
  /// thread; ring-full fallbacks fire them on the erring worker).
  effsan_detail::ErrorSinks Sinks;

  explicit effsan_service(const service::ServiceOptions &Options)
      : Sup(Options), Held(Sup.numShards()) {
    for (unsigned I = 0; I < Sup.numShards(); ++I)
      Sessions.push_back(
          std::make_unique<effsan_session>(Sup.pool().shard(I)));
  }
};

namespace {

service::TenantQuota quotaFromC(const effsan_tenant_quota *quota) {
  effsan_tenant_quota Full =
      effsan_detail::readPrefix(quota, effsan_tenant_quota_init);
  service::TenantQuota Q;
  Q.MaxAllocBytes = Full.max_alloc_bytes;
  Q.MaxErrorEvents = Full.max_error_events;
  Q.MaxChecks = Full.max_checks;
  return Q;
}

unsigned shardOfTenant(effsan_tenant tenant) {
  return static_cast<unsigned>(tenant & 0xffffffffu);
}

} // namespace

extern "C" {

void effsan_service_options_init(effsan_service_options *options) {
  if (!options)
    return;
  std::memset(options, 0, sizeof(*options));
  options->struct_size = sizeof(effsan_service_options);
  options->shards = 0; // Auto: one per hardware thread.
  options->policy = EFFSAN_POLICY_FULL;
  options->log_errors = 1;
  options->log_stream = stderr;
  options->max_reports_per_location = 1;
  options->site_cache_entries = 1024;
  options->drain_interval_usec = 2000;
  options->enable_governor = 1;
  service::GovernorOptions G;
  options->check_rate_high = G.CheckRateHigh;
  options->alloc_rate_high = G.AllocRateHigh;
  options->ring_occupancy_high = G.RingOccupancyHigh;
  options->restore_fraction = G.RestoreFraction;
  options->degrade_ticks = G.DegradeTicks;
  options->restore_ticks = G.RestoreTicks;
}

effsan_service *
effsan_service_create(const effsan_service_options *options) {
  // Tail-extension tolerance: read only the prefix the caller declared.
  effsan_service_options Defaults =
      effsan_detail::readPrefix(options, effsan_service_options_init);

  service::ServiceOptions Opts;
  Opts.Shards = Defaults.shards;
  Opts.Policy = effsan_detail::policyFromValue(Defaults.policy);
  Opts.Reporter = effsan_detail::reporterOptions(Defaults);
  Opts.ErrorRingCapacity =
      static_cast<size_t>(Defaults.error_ring_capacity);
  Opts.SiteCacheEntries = static_cast<size_t>(Defaults.site_cache_entries);
  Opts.DrainIntervalMicros = Defaults.drain_interval_usec;
  Opts.AbortAfter = Defaults.abort_after;
  Opts.EnableGovernor = Defaults.enable_governor != 0;
  if (Defaults.check_rate_high)
    Opts.Governor.CheckRateHigh = Defaults.check_rate_high;
  if (Defaults.alloc_rate_high)
    Opts.Governor.AllocRateHigh = Defaults.alloc_rate_high;
  if (Defaults.ring_occupancy_high > 0)
    Opts.Governor.RingOccupancyHigh = Defaults.ring_occupancy_high;
  if (Defaults.restore_fraction > 0)
    Opts.Governor.RestoreFraction = Defaults.restore_fraction;
  if (Defaults.degrade_ticks)
    Opts.Governor.DegradeTicks = Defaults.degrade_ticks;
  if (Defaults.restore_ticks)
    Opts.Governor.RestoreTicks = Defaults.restore_ticks;
  Opts.Governor.EwmaTicks = Defaults.governor_ewma_ticks;
  if (Defaults.ring_retry_attempts)
    Opts.RingRetryAttempts = Defaults.ring_retry_attempts;
  Opts.DropOnRingFull = Defaults.drop_on_ring_full != 0;
  Opts.EnableWatchdog = Defaults.disable_watchdog == 0;
  Opts.WatchdogIntervalMicros = Defaults.watchdog_interval_usec;
  if (Defaults.max_drain_restarts)
    Opts.MaxDrainRestarts = Defaults.max_drain_restarts;

  return new (std::nothrow) effsan_service(Opts);
}

void effsan_service_destroy(effsan_service *service) { delete service; }

uint32_t effsan_service_num_shards(const effsan_service *service) {
  return service->Sup.numShards();
}

void effsan_tenant_quota_init(effsan_tenant_quota *quota) {
  if (!quota)
    return;
  std::memset(quota, 0, sizeof(*quota));
  quota->struct_size = sizeof(effsan_tenant_quota);
}

effsan_tenant effsan_service_tenant_open(effsan_service *service,
                                         const char *name,
                                         const effsan_tenant_quota *quota) {
  return service->Sup.openTenant(name ? name : "", quotaFromC(quota));
}

int effsan_service_tenant_close(effsan_service *service,
                                effsan_tenant tenant) {
  return service->Sup.closeTenant(tenant) ? 1 : 0;
}

effsan_session *effsan_service_checkout(effsan_service *service,
                                        effsan_tenant tenant) {
  service::Supervisor::Lease L = service->Sup.lease(tenant);
  if (!L)
    return nullptr;
  unsigned Shard = shardOfTenant(tenant);
  {
    std::lock_guard<std::mutex> Guard(service->LeaseLock);
    service->Held[Shard].push_back(std::move(L));
  }
  return service->Sessions[Shard].get();
}

effsan_session *
effsan_service_checkout_hint(effsan_service *service, effsan_tenant tenant,
                             uint64_t *retry_after_usec) {
  uint64_t Hint = 0;
  service::Supervisor::Lease L = service->Sup.lease(tenant, Hint);
  if (retry_after_usec)
    *retry_after_usec = Hint;
  if (!L)
    return nullptr;
  unsigned Shard = shardOfTenant(tenant);
  {
    std::lock_guard<std::mutex> Guard(service->LeaseLock);
    service->Held[Shard].push_back(std::move(L));
  }
  return service->Sessions[Shard].get();
}

int effsan_service_release(effsan_service *service, effsan_tenant tenant) {
  unsigned Shard = shardOfTenant(tenant);
  if (tenant == EFFSAN_NO_TENANT || Shard >= service->Sup.numShards())
    return 0;
  service::Supervisor::Lease Retired;
  {
    std::lock_guard<std::mutex> Guard(service->LeaseLock);
    std::vector<service::Supervisor::Lease> &Parked =
        service->Held[Shard];
    if (Parked.empty())
      return 0;
    Retired = std::move(Parked.back());
    Parked.pop_back();
  }
  // Retired's destructor returns the lease outside LeaseLock.
  return 1;
}

int effsan_service_quota_set(effsan_service *service, effsan_tenant tenant,
                             const effsan_tenant_quota *quota) {
  return service->Sup.setQuota(tenant, quotaFromC(quota)) ? 1 : 0;
}

int effsan_service_quota_get(effsan_service *service, effsan_tenant tenant,
                             effsan_tenant_quota *out) {
  if (!out)
    return 0;
  service::TenantQuota Q;
  if (!service->Sup.getQuota(tenant, Q))
    return 0;
  effsan_tenant_quota_init(out);
  out->max_alloc_bytes = Q.MaxAllocBytes;
  out->max_error_events = Q.MaxErrorEvents;
  out->max_checks = Q.MaxChecks;
  return 1;
}

int effsan_service_tenant_stats(effsan_service *service,
                                effsan_tenant tenant,
                                effsan_tenant_stats *out) {
  service::TenantSnapshot Snap;
  if (!service->Sup.tenantSnapshot(tenant, Snap))
    return 0;
  auto Full = effsan_detail::zeroed<effsan_tenant_stats>();
  Full.status = static_cast<uint32_t>(Snap.Status);
  Full.shard = Snap.Shard;
  Full.policy = effsan_detail::policyValue(service->Sup.tenantPolicy(tenant));
  Full.evict_reason = static_cast<uint32_t>(Snap.Reason);
  Full.checks = Snap.Checks;
  Full.alloc_bytes = Snap.AllocBytes;
  Full.error_events = Snap.ErrorEvents;
  Full.checkouts_granted = Snap.LeasesGranted;
  Full.checkouts_refused = Snap.LeasesRefused;
  Full.checkouts_outstanding = Snap.LeasesOutstanding;
  return effsan_detail::writePrefix(Full, out) ? 1 : 0;
}

void effsan_service_get_stats(effsan_service *service,
                              effsan_service_stats *out) {
  service::ServiceStats S = service->Sup.stats();
  auto Full = effsan_detail::zeroed<effsan_service_stats>();
#define EFFSAN_X(Field, Type, Json, Abi, ...)                                  \
  Full.Abi = static_cast<decltype(Full.Abi)>(S.Field);
  EFFSAN_SERVICE_STATS(EFFSAN_X)
#undef EFFSAN_X
  effsan_detail::writePrefix(Full, out);
}

uint64_t effsan_service_tick(effsan_service *service) {
  return service->Sup.tick();
}

uint32_t effsan_service_health(effsan_service *service) {
  return static_cast<uint32_t>(service->Sup.health());
}

void effsan_service_set_drain_interval(effsan_service *service,
                                       uint64_t micros) {
  service->Sup.setDrainInterval(micros);
}

uint64_t effsan_service_drain_interval(effsan_service *service) {
  return service->Sup.drainInterval();
}

void effsan_service_set_snapshot_hook(effsan_service *service,
                                      effsan_snapshot_hook hook,
                                      void *user_data,
                                      uint32_t every_ticks) {
  service->Sup.setSnapshotHook(hook, user_data, every_ticks);
}

void effsan_service_metrics_render(effsan_service *service,
                                   effsan_obs_write_fn write,
                                   void *user_data) {
  if (!service || !write)
    return;
  std::string Text = service->Sup.metricsText();
  write(Text.data(), Text.size(), user_data);
}

void effsan_service_set_error_callback(effsan_service *service,
                                       effsan_error_callback callback,
                                       void *user_data) {
  service->Sinks.set(service->Sup.reporter(), callback, user_data);
}

void effsan_service_set_error_callback_v2(effsan_service *service,
                                          effsan_error_callback_v2 callback,
                                          void *user_data) {
  service->Sinks.set(service->Sup.reporter(), callback, user_data);
}

} // extern "C"

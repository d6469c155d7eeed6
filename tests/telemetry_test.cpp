//===- tests/telemetry_test.cpp - Golden telemetry pins -------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden pins for every telemetry export of the runtime's counter
/// records (ServiceStats, CheckCounters, HeapStats): the Prometheus
/// series the supervisor renders (names, labels, HELP and TYPE lines,
/// in order), the key order of the JSON snapshot's service and tenant
/// objects, and field-by-field agreement between the C++ stats and
/// their C ABI copies. The expected lists are written out by hand on
/// purpose: they pin the wire formats, not whatever the exporters
/// happen to generate.
///
//===----------------------------------------------------------------------===//

#include "api/effsan.h"
#include "api/effsan_internal.h"
#include "service/Supervisor.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

using namespace effective;
using namespace effective::service;

namespace {

ServiceOptions goldenOptions() {
  ServiceOptions Options;
  Options.Shards = 1;
  Options.Reporter.Mode = ReportMode::Count;
  Options.DrainIntervalMicros = 60'000'000;
  Options.EnableGovernor = false;
  Options.EnableWatchdog = false;
  return Options;
}

/// The fixed work every pin runs: one typed object, type checks,
/// bounds gets, one narrow, one out-of-bounds access (one drained
/// error event), then the free.
void goldenWork(Sanitizer &S) {
  TypeContext &Ctx = S.types();
  auto *P = static_cast<int *>(S.malloc(16 * sizeof(int), Ctx.getInt()));
  for (int I = 0; I < 10; ++I)
    S.typeCheck(P, Ctx.getInt());
  Bounds B;
  for (int I = 0; I < 5; ++I)
    B = S.boundsGet(P);
  S.boundsNarrow(B, P + 2, sizeof(int));
  S.boundsCheck(P, sizeof(int), B);
  S.boundsCheck(P + 16, sizeof(int), B);
  S.free(P);
}

/// The same work through the C ABI.
void goldenWork(effsan_session *S) {
  effsan_type Int = effsan_type_primitive(S, EFFSAN_PRIM_INT);
  auto *P = static_cast<int *>(effsan_malloc(S, 16 * sizeof(int), Int));
  for (int I = 0; I < 10; ++I)
    effsan_type_check(S, P, Int);
  effsan_bounds B{};
  for (int I = 0; I < 5; ++I)
    B = effsan_bounds_get(S, P);
  effsan_bounds_narrow(S, B, P + 2, sizeof(int));
  effsan_bounds_check(S, P, sizeof(int), B);
  effsan_bounds_check(S, P + 16, sizeof(int), B);
  effsan_free(S, P);
}

/// The metrics text with every sample value stripped: HELP/TYPE lines
/// verbatim, sample lines cut to `name{labels}`.
std::vector<std::string> seriesOf(const std::string &Text) {
  std::vector<std::string> Lines;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Line.empty())
      continue;
    if (Line[0] != '#')
      Line = Line.substr(0, Line.rfind(' '));
    Lines.push_back(Line);
  }
  return Lines;
}

/// Ordered keys of the JSON object that follows \p Anchor in \p Json
/// (nested objects and arrays are skipped; strings may not contain
/// quotes, which holds for every key and value the snapshot pins).
std::vector<std::string> keysAfter(const std::string &Json,
                                   const std::string &Anchor) {
  std::vector<std::string> Keys;
  size_t Pos = Json.find(Anchor);
  if (Pos == std::string::npos)
    return Keys;
  Pos = Json.find('{', Pos);
  int Depth = 0;
  for (size_t I = Pos; I < Json.size(); ++I) {
    char C = Json[I];
    if (C == '{' || C == '[') {
      ++Depth;
    } else if (C == '}' || C == ']') {
      if (--Depth == 0)
        break;
    } else if (C == '"') {
      size_t Close = Json.find('"', I + 1);
      if (Depth == 1 && Close + 1 < Json.size() && Json[Close + 1] == ':')
        Keys.push_back(Json.substr(I + 1, Close - I - 1));
      I = Close;
    }
  }
  return Keys;
}

} // namespace

//===----------------------------------------------------------------------===//
// Prometheus series
//===----------------------------------------------------------------------===//

TEST(TelemetryGolden, MetricsTextSeriesInOrder) {
  Supervisor Sup(goldenOptions());
  TenantId T = Sup.openTenant("golden");
  ASSERT_NE(T, NoTenant);
  {
    Supervisor::Lease L = Sup.lease(T);
    ASSERT_TRUE(static_cast<bool>(L));
    goldenWork(L.session());
  }
  Sup.tick();

  const std::vector<std::string> Expected = {
      "# HELP effsan_service_tenants_opened_total Tenant slots ever opened",
      "# TYPE effsan_service_tenants_opened_total counter",
      "effsan_service_tenants_opened_total",
      "# HELP effsan_service_tenants_evicted_total Tenant evictions, "
      "including explicit closes",
      "# TYPE effsan_service_tenants_evicted_total counter",
      "effsan_service_tenants_evicted_total",
      "# HELP effsan_service_tenants_closed_total Tenant slots fully "
      "recycled",
      "# TYPE effsan_service_tenants_closed_total counter",
      "effsan_service_tenants_closed_total",
      "# HELP effsan_service_leases_granted_total Shard leases granted",
      "# TYPE effsan_service_leases_granted_total counter",
      "effsan_service_leases_granted_total",
      "# HELP effsan_service_leases_refused_total Shard leases refused at "
      "the quota gate",
      "# TYPE effsan_service_leases_refused_total counter",
      "effsan_service_leases_refused_total",
      "# HELP effsan_service_drain_ticks_total Drain-loop ticks completed",
      "# TYPE effsan_service_drain_ticks_total counter",
      "effsan_service_drain_ticks_total",
      "# HELP effsan_service_drained_events_total Error events drained "
      "from the pool ring",
      "# TYPE effsan_service_drained_events_total counter",
      "effsan_service_drained_events_total",
      "# HELP effsan_service_ring_overflows_total Error-ring pushes "
      "refused because the ring was full",
      "# TYPE effsan_service_ring_overflows_total counter",
      "effsan_service_ring_overflows_total",
      "# HELP effsan_service_policy_degrades_total Governor degrade steps",
      "# TYPE effsan_service_policy_degrades_total counter",
      "effsan_service_policy_degrades_total",
      "# HELP effsan_service_policy_restores_total Governor restore steps",
      "# TYPE effsan_service_policy_restores_total counter",
      "effsan_service_policy_restores_total",
      "# HELP effsan_service_issues_found_total Distinct issues in the "
      "central reporter",
      "# TYPE effsan_service_issues_found_total counter",
      "effsan_service_issues_found_total",
      "# HELP effsan_service_snapshots_emitted_total Snapshot hook "
      "invocations",
      "# TYPE effsan_service_snapshots_emitted_total counter",
      "effsan_service_snapshots_emitted_total",
      "# HELP effsan_service_snapshots_skipped_total Snapshot cadences "
      "skipped by the dirty flag",
      "# TYPE effsan_service_snapshots_skipped_total counter",
      "effsan_service_snapshots_skipped_total",
      "# HELP effsan_service_ring_fallbacks_total Overflowed error events "
      "delivered via the locked fallback",
      "# TYPE effsan_service_ring_fallbacks_total counter",
      "effsan_service_ring_fallbacks_total",
      "# HELP effsan_service_ring_drops_total Overflowed error events "
      "dropped (opt-in accounted loss)",
      "# TYPE effsan_service_ring_drops_total counter",
      "effsan_service_ring_drops_total",
      "# HELP effsan_service_drain_restarts_total Dead drain threads "
      "restarted by the watchdog",
      "# TYPE effsan_service_drain_restarts_total counter",
      "effsan_service_drain_restarts_total",
      "# HELP effsan_service_watchdog_checks_total Watchdog liveness "
      "checks performed",
      "# TYPE effsan_service_watchdog_checks_total counter",
      "effsan_service_watchdog_checks_total",
      "# HELP effsan_checks_total Dynamic checks executed",
      "# TYPE effsan_checks_total counter",
      "effsan_checks_total{kind=\"type\"}",
      "effsan_checks_total{kind=\"bounds\"}",
      "effsan_checks_total{kind=\"bounds_narrow\"}",
      "effsan_checks_total{kind=\"bounds_get\"}",
      "effsan_checks_total{kind=\"legacy_type\"}",
      "# HELP effsan_check_cache_hits_total Type-check inline-cache hits",
      "# TYPE effsan_check_cache_hits_total counter",
      "effsan_check_cache_hits_total",
      "# HELP effsan_check_cache_misses_total Type-check inline-cache "
      "misses",
      "# TYPE effsan_check_cache_misses_total counter",
      "effsan_check_cache_misses_total",
      "# HELP effsan_heap_allocs_total Heap allocations",
      "# TYPE effsan_heap_allocs_total counter",
      "effsan_heap_allocs_total",
      "# HELP effsan_heap_frees_total Heap frees",
      "# TYPE effsan_heap_frees_total counter",
      "effsan_heap_frees_total",
      "# HELP effsan_heap_magazine_hits_total Allocations served from a "
      "TLS magazine",
      "# TYPE effsan_heap_magazine_hits_total counter",
      "effsan_heap_magazine_hits_total",
      "# HELP effsan_heap_magazine_refills_total TLS magazine refills",
      "# TYPE effsan_heap_magazine_refills_total counter",
      "effsan_heap_magazine_refills_total",
      "# HELP effsan_heap_steals_total Cross-shard refill steals",
      "# TYPE effsan_heap_steals_total counter",
      "effsan_heap_steals_total",
      "# HELP effsan_service_tenants_open Occupied tenant slots",
      "# TYPE effsan_service_tenants_open gauge",
      "effsan_service_tenants_open",
      "# HELP effsan_service_health Service health state (0 healthy, 1 "
      "degraded, 2 critical)",
      "# TYPE effsan_service_health gauge",
      "effsan_service_health",
      "# HELP effsan_service_ring_occupancy_percent Error-ring occupancy "
      "at the last tick start (percent)",
      "# TYPE effsan_service_ring_occupancy_percent gauge",
      "effsan_service_ring_occupancy_percent",
      "# HELP effsan_heap_block_bytes_in_use Live block bytes across "
      "shards",
      "# TYPE effsan_heap_block_bytes_in_use gauge",
      "effsan_heap_block_bytes_in_use",
      "# HELP effsan_heap_quarantined_bytes Bytes parked in free "
      "quarantine",
      "# TYPE effsan_heap_quarantined_bytes gauge",
      "effsan_heap_quarantined_bytes",
      "# HELP effsan_service_drain_tick_duration_ticks Drain tick wall "
      "duration (TSC ticks)",
      "# TYPE effsan_service_drain_tick_duration_ticks histogram",
      "effsan_service_drain_tick_duration_ticks_bucket{le=\"0\"}",
      "effsan_service_drain_tick_duration_ticks_bucket{le=\"+Inf\"}",
      "effsan_service_drain_tick_duration_ticks_sum",
      "effsan_service_drain_tick_duration_ticks_count",
      "# HELP effsan_service_ring_occupancy_pct Error-ring occupancy "
      "sampled at tick start (percent)",
      "# TYPE effsan_service_ring_occupancy_pct histogram",
      "effsan_service_ring_occupancy_pct_bucket{le=\"0\"}",
      "effsan_service_ring_occupancy_pct_bucket{le=\"+Inf\"}",
      "effsan_service_ring_occupancy_pct_sum",
      "effsan_service_ring_occupancy_pct_count",
      "# HELP effsan_heap_class_carved_bytes Bytes carved from the class "
      "region (bump high-water)",
      "# TYPE effsan_heap_class_carved_bytes gauge",
      "effsan_heap_class_carved_bytes{class=\"3\"}",
  };
  std::string Text = Sup.metricsText();
  EXPECT_EQ(seriesOf(Text), Expected) << Text;
}

//===----------------------------------------------------------------------===//
// JSON snapshot
//===----------------------------------------------------------------------===//

TEST(TelemetryGolden, SnapshotJsonKeysInOrder) {
  Supervisor Sup(goldenOptions());
  TenantId T = Sup.openTenant("golden");
  ASSERT_NE(T, NoTenant);
  {
    Supervisor::Lease L = Sup.lease(T);
    ASSERT_TRUE(static_cast<bool>(L));
    goldenWork(L.session());
  }
  Sup.tick();

  std::string Json = Sup.snapshotJson();
  const std::vector<std::string> Service = {
      "shards",           "policy",           "drain_interval_usec",
      "tenants_open",     "tenants_opened_total",
      "tenants_evicted",  "tenants_closed",   "leases_granted",
      "leases_refused",   "drain_ticks",      "drained_events",
      "ring_overflows",   "policy_degrades",  "policy_restores",
      "issues_found",     "snapshots_emitted", "snapshots_skipped",
      "ring_fallbacks",   "ring_drops",       "drain_restarts",
      "watchdog_checks",  "health"};
  EXPECT_EQ(keysAfter(Json, "\"service\":"), Service) << Json;
  const std::vector<std::string> Tenant = {
      "name",         "shard",          "status",
      "policy",       "evict_reason",   "checks",
      "alloc_bytes",  "error_events",   "leases_granted",
      "leases_refused", "leases_outstanding"};
  EXPECT_EQ(keysAfter(Json, "\"tenants\":["), Tenant) << Json;
  EXPECT_NE(Json.find("\"policy\":\"full\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"health\":\"healthy\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"drain_interval_usec\":60000000"),
            std::string::npos)
      << Json;
}

TEST(TelemetryGolden, SnapshotPolicySpellings) {
  const std::pair<CheckPolicy, const char *> Cases[] = {
      {CheckPolicy::Full, "\"policy\":\"full\""},
      {CheckPolicy::BoundsOnly, "\"policy\":\"bounds\""},
      {CheckPolicy::TypeOnly, "\"policy\":\"type\""},
      {CheckPolicy::CountOnly, "\"policy\":\"count\""},
      {CheckPolicy::Off, "\"policy\":\"off\""}};
  for (const auto &[Policy, Key] : Cases) {
    ServiceOptions Options = goldenOptions();
    Options.Policy = Policy;
    Supervisor Sup(Options);
    ASSERT_NE(Sup.openTenant("p"), NoTenant);
    std::string Json = Sup.snapshotJson();
    // Once for the service, once for its single tenant.
    size_t First = Json.find(Key);
    ASSERT_NE(First, std::string::npos) << Json;
    EXPECT_NE(Json.find(Key, First + 1), std::string::npos) << Json;
  }
}

//===----------------------------------------------------------------------===//
// C ABI copies agree with the C++ stats
//===----------------------------------------------------------------------===//

TEST(TelemetryGolden, SessionCountersAndHeapStatsMatchTheAbi) {
  effsan_options Options;
  effsan_options_init(&Options);
  Options.log_errors = 0;
  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);
  goldenWork(S);

  effsan_counters C;
  std::memset(&C, 0xee, sizeof(C));
  effsan_get_counters(S, &C);
  CheckCounters::Snapshot Snap = S->S->counters().snapshot();
  EXPECT_EQ(C.type_checks, Snap.TypeChecks);
  EXPECT_EQ(C.legacy_type_checks, Snap.LegacyTypeChecks);
  EXPECT_EQ(C.bounds_checks, Snap.BoundsChecks);
  EXPECT_EQ(C.bounds_narrows, Snap.BoundsNarrows);
  EXPECT_EQ(C.bounds_gets, Snap.BoundsGets);
  EXPECT_EQ(C.issues_found, S->S->reporter().numIssues());
  EXPECT_EQ(C.error_events, S->S->reporter().numEvents());
  EXPECT_EQ(C.reports_suppressed, S->S->reporter().numSuppressed());
  EXPECT_EQ(effsan_type_check_cache_hits(S), Snap.TypeCheckCacheHits);
  EXPECT_EQ(effsan_type_check_cache_misses(S), Snap.TypeCheckCacheMisses);
  // The fixed work's own counts, so a zeroed export cannot pass.
  EXPECT_EQ(C.type_checks, 10u);
  EXPECT_EQ(C.bounds_gets, 5u);
  EXPECT_EQ(C.bounds_narrows, 1u);
  EXPECT_EQ(C.bounds_checks, 2u);
  EXPECT_EQ(C.error_events, 1u);
  EXPECT_EQ(Snap.TypeCheckCacheHits + Snap.TypeCheckCacheMisses +
                Snap.LegacyTypeChecks,
            Snap.TypeChecks);

  effsan_heap_stats H;
  std::memset(&H, 0xee, sizeof(H));
  H.struct_size = sizeof(H);
  effsan_get_heap_stats(S, &H);
  Runtime &RT = S->S->runtime();
  lowfat::HeapStats HS = RT.heap().shardStats(RT.heapShard());
  EXPECT_EQ(H.struct_size, sizeof(H));
  EXPECT_EQ(H.block_bytes_in_use, HS.BlockBytesInUse);
  EXPECT_EQ(H.peak_block_bytes_in_use, HS.PeakBlockBytesInUse);
  EXPECT_EQ(H.num_allocs, HS.NumAllocs);
  EXPECT_EQ(H.num_frees, HS.NumFrees);
  EXPECT_EQ(H.num_legacy_allocs, HS.NumLegacyAllocs);
  EXPECT_EQ(H.quarantined_bytes, HS.QuarantinedBytes);
  EXPECT_EQ(H.magazine_hits, HS.MagazineHits);
  EXPECT_EQ(H.magazine_refills, HS.MagazineRefills);
  EXPECT_EQ(H.steals, HS.Steals);
  EXPECT_EQ(H.exhaust_fallbacks, HS.ExhaustFallbacks);
  EXPECT_EQ(H.num_allocs, 1u);
  EXPECT_EQ(H.num_frees, 1u);

  effsan_session_destroy(S);
}

TEST(TelemetryGolden, PoolCountersAndHeapStatsMatchTheAbi) {
  effsan_pool_options Options;
  effsan_pool_options_init(&Options);
  Options.shards = 2;
  Options.log_errors = 0;
  effsan_pool *P = effsan_pool_create(&Options);
  ASSERT_NE(P, nullptr);
  for (uint32_t I = 0; I < 2; ++I)
    goldenWork(effsan_pool_shard(P, I));

  effsan_counters C;
  std::memset(&C, 0xee, sizeof(C));
  effsan_pool_get_counters(P, &C);
  CheckCounters::Snapshot Sum;
  for (uint32_t I = 0; I < 2; ++I)
    Sum += effsan_pool_shard(P, I)->S->counters().snapshot();
  EXPECT_EQ(C.type_checks, Sum.TypeChecks);
  EXPECT_EQ(C.legacy_type_checks, Sum.LegacyTypeChecks);
  EXPECT_EQ(C.bounds_checks, Sum.BoundsChecks);
  EXPECT_EQ(C.bounds_narrows, Sum.BoundsNarrows);
  EXPECT_EQ(C.bounds_gets, Sum.BoundsGets);
  EXPECT_EQ(C.type_checks, 20u);
  // The two shards' overflows share one check site: one issue, two
  // events.
  EXPECT_EQ(C.issues_found, 1u);
  EXPECT_EQ(C.error_events, 2u);

  effsan_heap_stats H;
  std::memset(&H, 0xee, sizeof(H));
  H.struct_size = sizeof(H);
  effsan_pool_get_heap_stats(P, &H);
  lowfat::HeapStats HS = effsan_pool_shard(P, 0)->S->runtime().heap().stats();
  EXPECT_EQ(H.block_bytes_in_use, HS.BlockBytesInUse);
  EXPECT_EQ(H.peak_block_bytes_in_use, HS.PeakBlockBytesInUse);
  EXPECT_EQ(H.num_allocs, HS.NumAllocs);
  EXPECT_EQ(H.num_frees, HS.NumFrees);
  EXPECT_EQ(H.num_legacy_allocs, HS.NumLegacyAllocs);
  EXPECT_EQ(H.quarantined_bytes, HS.QuarantinedBytes);
  EXPECT_EQ(H.magazine_hits, HS.MagazineHits);
  EXPECT_EQ(H.magazine_refills, HS.MagazineRefills);
  EXPECT_EQ(H.steals, HS.Steals);
  EXPECT_EQ(H.exhaust_fallbacks, HS.ExhaustFallbacks);
  EXPECT_EQ(H.num_allocs, 2u);

  effsan_pool_destroy(P);
}

TEST(TelemetryGolden, ServiceStatsMatchTheAbi) {
  // The C handle hides its Supervisor, so a C++ twin runs the same
  // fixed work and the two are compared field by field.
  Supervisor Sup(goldenOptions());
  TenantId T = Sup.openTenant("golden");
  ASSERT_NE(T, NoTenant);
  {
    Supervisor::Lease L = Sup.lease(T);
    ASSERT_TRUE(static_cast<bool>(L));
    goldenWork(L.session());
  }
  Sup.tick();
  ServiceStats Want = Sup.stats();

  effsan_service_options Options;
  effsan_service_options_init(&Options);
  Options.shards = 1;
  Options.log_errors = 0;
  Options.drain_interval_usec = 60'000'000;
  Options.enable_governor = 0;
  Options.disable_watchdog = 1;
  effsan_service *Svc = effsan_service_create(&Options);
  ASSERT_NE(Svc, nullptr);
  effsan_tenant CT = effsan_service_tenant_open(Svc, "golden", nullptr);
  ASSERT_NE(CT, EFFSAN_NO_TENANT);
  effsan_session *S = effsan_service_checkout(Svc, CT);
  ASSERT_NE(S, nullptr);
  goldenWork(S);
  ASSERT_EQ(effsan_service_release(Svc, CT), 1);
  effsan_service_tick(Svc);

  effsan_service_stats Got;
  std::memset(&Got, 0xee, sizeof(Got));
  Got.struct_size = sizeof(Got);
  effsan_service_get_stats(Svc, &Got);
  EXPECT_EQ(Got.struct_size, sizeof(Got));
  EXPECT_EQ(Got.tenants_open, Want.TenantsOpen);
  EXPECT_EQ(Got.tenants_opened_total, Want.TenantsOpenedTotal);
  EXPECT_EQ(Got.tenants_evicted, Want.TenantsEvicted);
  EXPECT_EQ(Got.tenants_closed, Want.TenantsClosed);
  EXPECT_EQ(Got.checkouts_granted, Want.LeasesGranted);
  EXPECT_EQ(Got.checkouts_refused, Want.LeasesRefused);
  EXPECT_EQ(Got.drain_ticks, Want.DrainTicks);
  EXPECT_EQ(Got.drained_events, Want.DrainedEvents);
  EXPECT_EQ(Got.ring_overflows, Want.RingOverflows);
  EXPECT_EQ(Got.policy_degrades, Want.PolicyDegrades);
  EXPECT_EQ(Got.policy_restores, Want.PolicyRestores);
  EXPECT_EQ(Got.issues_found, Want.IssuesFound);
  EXPECT_EQ(Got.snapshots_emitted, Want.SnapshotsEmitted);
  EXPECT_EQ(Got.snapshots_skipped, Want.SnapshotsSkipped);
  EXPECT_EQ(Got.ring_fallbacks, Want.RingFallbacks);
  EXPECT_EQ(Got.ring_drops, Want.RingDrops);
  EXPECT_EQ(Got.drain_restarts, Want.DrainRestarts);
  EXPECT_EQ(Got.watchdog_checks, Want.WatchdogChecks);
  EXPECT_EQ(Got.health, static_cast<uint32_t>(Want.Health));
  EXPECT_EQ(Got.reserved2_, 0u);
  EXPECT_EQ(Got.tenants_open, 1u);
  EXPECT_EQ(Got.checkouts_granted, 1u);
  EXPECT_EQ(Got.drained_events, 1u);
  EXPECT_EQ(Got.issues_found, 1u);

  effsan_service_destroy(Svc);
}

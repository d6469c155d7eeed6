//===- tests/service_test.cpp - Service-mode supervisor tests -------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Covers the src/service/ subsystem: the Supervisor's background
/// drain loop (liveness without manual drains, deterministic forced
/// ticks, clean shutdown, pool-wide abort threshold), tenant quotas
/// enforced at checkout (live-byte, error-event and check budgets,
/// each evicting with its reason), the LoadGovernor's degradation
/// ladder with hysteresis, eviction-driven shard recycling, telemetry
/// (stats, JSON snapshots, snapshot hook), and the effsan_service_* C
/// ABI (since 1.5) including the caller-sized stats prefix contract.
/// The drain-vs-mutator storm at the end runs under -fsanitize=thread
/// in the CI TSan job.
///
//===----------------------------------------------------------------------===//

#include "service/Supervisor.h"

#include "api/effsan.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace effective;
using namespace effective::service;

namespace {

/// Service options for deterministic tests: counting reporter and a
/// drain interval long enough that every tick is one we forced.
ServiceOptions quietService(unsigned Shards,
                            CheckPolicy Policy = CheckPolicy::Full) {
  ServiceOptions Options;
  Options.Shards = Shards;
  Options.Policy = Policy;
  Options.Reporter.Mode = ReportMode::Count;
  Options.DrainIntervalMicros = 60'000'000; // Forced ticks only.
  return Options;
}

/// Governor tuning small enough for a unit test to trip by hand.
GovernorOptions testGovernor() {
  GovernorOptions G;
  G.CheckRateHigh = 100;
  G.AllocRateHigh = 1'000'000;
  G.RingOccupancyHigh = 2.0; // Occupancy never triggers on its own.
  G.RestoreFraction = 0.5;
  G.DegradeTicks = 2;
  G.RestoreTicks = 2;
  return G;
}

/// One out-of-bounds access: pushes exactly one error event onto the
/// pool ring (dedup happens centrally, events are all queued).
void oneBoundsError(Sanitizer &S) {
  TypeContext &Ctx = S.types();
  auto *P = static_cast<int *>(S.malloc(16 * sizeof(int), Ctx.getInt()));
  Bounds B = S.boundsGet(P);
  S.boundsCheck(P + 16, sizeof(int), B);
  S.free(P);
}

/// Spins until \p Done returns true or ~5 s pass.
template <typename Pred> bool waitFor(Pred Done) {
  for (int I = 0; I < 5000; ++I) {
    if (Done())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Done();
}

//===----------------------------------------------------------------------===//
// Background drain loop
//===----------------------------------------------------------------------===//

TEST(ServiceDrainTest, ErrorsSurfaceWithoutManualDrain) {
  ServiceOptions Options = quietService(1);
  Options.DrainIntervalMicros = 500; // Fast periodic ticks.
  Supervisor Sup(Options);

  TenantId T = Sup.openTenant("t");
  ASSERT_NE(T, NoTenant);
  {
    Supervisor::Lease L = Sup.lease(T);
    ASSERT_TRUE(static_cast<bool>(L));
    oneBoundsError(L.session());
  }

  // Nobody calls drain() or tick(): the background thread must surface
  // the event on its own.
  EXPECT_TRUE(waitFor([&] { return Sup.stats().DrainedEvents >= 1; }));
  EXPECT_GE(Sup.reporter().numIssues(), 1u);
  EXPECT_TRUE(waitFor([&] { return Sup.stats().DrainTicks >= 2; }))
      << "periodic ticks keep coming";

  // And the event was attributed to the tenant that caused it.
  TenantSnapshot Snap;
  ASSERT_TRUE(Sup.tenantSnapshot(T, Snap));
  EXPECT_EQ(Snap.ErrorEvents, 1u);
}

TEST(ServiceDrainTest, ForcedTickIsDeterministic) {
  Supervisor Sup(quietService(1));
  TenantId T = Sup.openTenant("t");
  ASSERT_NE(T, NoTenant);

  uint64_t TicksBefore = Sup.stats().DrainTicks;
  {
    Supervisor::Lease L = Sup.lease(T);
    ASSERT_TRUE(static_cast<bool>(L));
    for (int I = 0; I < 3; ++I)
      oneBoundsError(L.session());
  }
  EXPECT_EQ(Sup.tick(), 3u) << "the forced tick drains all three events";
  EXPECT_EQ(Sup.stats().DrainedEvents, 3u);
  EXPECT_GT(Sup.stats().DrainTicks, TicksBefore);
  EXPECT_EQ(Sup.reporter().numIssues(), 1u) << "same bucket dedups";

  TenantSnapshot Snap;
  ASSERT_TRUE(Sup.tenantSnapshot(T, Snap));
  EXPECT_EQ(Snap.ErrorEvents, 3u);
}

TEST(ServiceDrainTest, OverflowPastAnExactFitBillsTheObjectsTenant) {
  // int[20] plus its 16-byte META fills a 96-byte block exactly, so
  // P + 20 is the base of the next, never-allocated block: the stray
  // pointer is not low-fat and names no tenant. The report names the
  // array, and the drainer bills the array's tenant.
  Supervisor Sup(quietService(1));
  TenantId T = Sup.openTenant("t");
  ASSERT_NE(T, NoTenant);
  {
    Supervisor::Lease L = Sup.lease(T);
    Sanitizer &S = L.session();
    lowfat::LowFatHeap &Heap = S.runtime().heap();
    auto *P = static_cast<int *>(
        S.malloc(20 * sizeof(int), S.types().getInt()));
    ASSERT_EQ(Heap.allocationSize(Heap.allocationBase(P)), 96u);
    ASSERT_FALSE(Heap.isLowFat(P + 20));
    S.boundsCheck(P + 20, sizeof(int), S.boundsGet(P));
    S.free(P);
  }
  EXPECT_EQ(Sup.tick(), 1u);
  TenantSnapshot Snap;
  ASSERT_TRUE(Sup.tenantSnapshot(T, Snap));
  EXPECT_EQ(Snap.ErrorEvents, 1u);
}

TEST(ServiceDrainTest, BackgroundReportsKeepSiteAttribution) {
  ServiceOptions Options = quietService(1);
  Options.DrainIntervalMicros = 500;
  Supervisor Sup(Options);

  static std::atomic<bool> Attributed{false};
  static std::string Message;
  static std::mutex MessageLock;
  Attributed = false;
  Sup.setErrorCallback(
      [](const ErrorInfo &Info, const char *Msg, void *) {
        std::lock_guard<std::mutex> Guard(MessageLock);
        if (Info.Where && Msg)
          Message = Msg;
        Attributed = Info.Where != nullptr;
      },
      nullptr);

  TenantId T = Sup.openTenant("t");
  ASSERT_NE(T, NoTenant);
  {
    Supervisor::Lease L = Sup.lease(T);
    ASSERT_TRUE(static_cast<bool>(L));
    SiteTable Table;
    Table.File = "svc.c";
    Table.Entries.push_back({CheckSiteKind::BoundsCheck,
                             SourceLoc{3, 7}, "worker", nullptr});
    SiteId Base = L->registerSiteTable(Table);
    TypeContext &Ctx = L->types();
    auto *P =
        static_cast<int *>(L->malloc(8 * sizeof(int), Ctx.getInt()));
    Bounds B = L->boundsGet(P);
    L->boundsCheck(P + 8, sizeof(int), B, Base);
    L->free(P);
  }

  // The *background* drainer publishes the report; the queued event's
  // site attribution must survive the ring crossing.
  EXPECT_TRUE(waitFor([&] { return Attributed.load(); }));
  std::lock_guard<std::mutex> Guard(MessageLock);
  EXPECT_NE(Message.find("svc.c:3:7"), std::string::npos) << Message;
  EXPECT_NE(Message.find("worker"), std::string::npos) << Message;
}

TEST(ServiceDrainTest, AbortThresholdFiresFromDrainer) {
  static std::atomic<uint64_t> AbortedAt{0};
  AbortedAt = 0;

  ServiceOptions Options = quietService(1);
  Options.AbortAfter = 3;
  Options.AbortHandler = [](uint64_t Drained, void *) {
    AbortedAt = Drained;
  };
  Supervisor Sup(Options);

  TenantId T = Sup.openTenant("t");
  {
    Supervisor::Lease L = Sup.lease(T);
    ASSERT_TRUE(static_cast<bool>(L));
    oneBoundsError(L.session());
    oneBoundsError(L.session());
  }
  Sup.tick();
  EXPECT_EQ(AbortedAt, 0u) << "two events stay under the threshold";

  {
    Supervisor::Lease L = Sup.lease(T);
    ASSERT_TRUE(static_cast<bool>(L));
    oneBoundsError(L.session());
  }
  Sup.tick();
  EXPECT_EQ(AbortedAt, 3u) << "the drainer fires the pool-wide budget";
}

//===----------------------------------------------------------------------===//
// Tenant quotas
//===----------------------------------------------------------------------===//

TEST(ServiceQuotaTest, LiveByteBudgetRefusesAndEvicts) {
  Supervisor Sup(quietService(2));
  TenantQuota Quota;
  Quota.MaxAllocBytes = 4096;
  TenantId T = Sup.openTenant("greedy", Quota);
  ASSERT_NE(T, NoTenant);

  // Hold one lease across the trip so the eviction cannot complete
  // (and recycle the slot) while we inspect it.
  Supervisor::Lease Held = Sup.lease(T);
  ASSERT_TRUE(static_cast<bool>(Held));
  TypeContext &Ctx = Held->types();
  void *P = Held->malloc(8192, Ctx.getChar());
  ASSERT_NE(P, nullptr);

  Supervisor::Lease Refused = Sup.lease(T);
  EXPECT_FALSE(static_cast<bool>(Refused))
      << "8 KiB live against a 4 KiB budget refuses the next lease";

  TenantSnapshot Snap;
  ASSERT_TRUE(Sup.tenantSnapshot(T, Snap));
  EXPECT_EQ(Snap.Status, TenantStatus::Evicted);
  EXPECT_EQ(Snap.Reason, EvictReason::AllocBytes);
  EXPECT_EQ(Snap.LeasesGranted, 1u);
  EXPECT_EQ(Snap.LeasesRefused, 1u);
  EXPECT_EQ(Snap.LeasesOutstanding, 1u);

  Held->free(P);
  Held.reset();
  Sup.tick(); // Completes the eviction: shard reset, slot freed.
  EXPECT_FALSE(Sup.tenantSnapshot(T, Snap)) << "handle is stale now";
  EXPECT_EQ(Sup.stats().TenantsClosed, 1u);
}

TEST(ServiceQuotaTest, CheckBudgetCountsFromOpen) {
  Supervisor Sup(quietService(1));

  // Pre-tenant traffic on the shard must not bill the tenant: burn
  // some checks, recycle, then open with a budget.
  {
    TenantId Warm = Sup.openTenant("warmup");
    Supervisor::Lease L = Sup.lease(Warm);
    ASSERT_TRUE(static_cast<bool>(L));
    TypeContext &Ctx = L->types();
    auto *P = static_cast<int *>(L->malloc(sizeof(int), Ctx.getInt()));
    for (int I = 0; I < 500; ++I)
      L->boundsGet(P);
    L->free(P);
    L.reset();
    Sup.closeTenant(Warm);
  }

  TenantQuota Quota;
  Quota.MaxChecks = 100;
  TenantId T = Sup.openTenant("metered", Quota);
  ASSERT_NE(T, NoTenant);

  Supervisor::Lease Held = Sup.lease(T);
  ASSERT_TRUE(static_cast<bool>(Held)) << "fresh tenant starts at zero";
  TypeContext &Ctx = Held->types();
  auto *P = static_cast<int *>(Held->malloc(sizeof(int), Ctx.getInt()));
  for (int I = 0; I < 200; ++I)
    Held->boundsGet(P);
  Held->free(P);

  Supervisor::Lease Refused = Sup.lease(T);
  EXPECT_FALSE(static_cast<bool>(Refused));
  TenantSnapshot Snap;
  ASSERT_TRUE(Sup.tenantSnapshot(T, Snap));
  EXPECT_EQ(Snap.Reason, EvictReason::Checks);
  EXPECT_GE(Snap.Checks, 200u);
  EXPECT_LT(Snap.Checks, 500u) << "warmup checks are not billed";
}

TEST(ServiceQuotaTest, CheckBudgetRefusesAtExactlyItsLimit) {
  constexpr unsigned Limit = 4000, NumThreads = 4;
  Supervisor Sup(quietService(1));
  TenantQuota Quota;
  Quota.MaxChecks = Limit;
  TenantId T = Sup.openTenant("metered", Quota);
  ASSERT_NE(T, NoTenant);

  // Spend exactly the budget from several threads at once: every check
  // must be billed, or the tenant would get more than its budget.
  {
    Supervisor::Lease Held = Sup.lease(T);
    ASSERT_TRUE(static_cast<bool>(Held));
    Sanitizer &S = Held.session();
    auto *P = static_cast<int *>(S.malloc(sizeof(int), S.types().getInt()));
    Bounds B = Bounds::forObject(P, sizeof(int));
    std::vector<std::thread> Threads;
    for (unsigned I = 0; I < NumThreads; ++I)
      Threads.emplace_back([&] {
        for (unsigned K = 0; K < Limit / NumThreads; ++K)
          S.boundsCheck(P, sizeof(int), B);
      });
    for (std::thread &Th : Threads)
      Th.join();
    S.free(P);
  }

  // At the limit the budget is spent, not exceeded.
  {
    Supervisor::Lease AtLimit = Sup.lease(T);
    ASSERT_TRUE(static_cast<bool>(AtLimit)) << "a spent budget still leases";
    TenantSnapshot Snap;
    ASSERT_TRUE(Sup.tenantSnapshot(T, Snap));
    EXPECT_EQ(Snap.Checks, Limit);
    AtLimit->boundsGet(nullptr); // One check past the limit.
  }
  Supervisor::Lease Refused = Sup.lease(T);
  EXPECT_FALSE(static_cast<bool>(Refused));
  EXPECT_EQ(Sup.stats().LeasesRefused, 1u);
}

TEST(ServiceQuotaTest, ErrorBudgetUsesDrainerAttribution) {
  Supervisor Sup(quietService(2));
  TenantQuota Quota;
  Quota.MaxErrorEvents = 2;
  TenantId T = Sup.openTenant("buggy", Quota);
  ASSERT_NE(T, NoTenant);

  Supervisor::Lease Held = Sup.lease(T);
  ASSERT_TRUE(static_cast<bool>(Held));
  for (int I = 0; I < 3; ++I)
    oneBoundsError(Held.session());
  Sup.tick(); // Attribution happens in the drainer.

  Supervisor::Lease Refused = Sup.lease(T);
  EXPECT_FALSE(static_cast<bool>(Refused));
  TenantSnapshot Snap;
  ASSERT_TRUE(Sup.tenantSnapshot(T, Snap));
  EXPECT_EQ(Snap.Reason, EvictReason::ErrorEvents);
  EXPECT_EQ(Snap.ErrorEvents, 3u);
}

TEST(ServiceQuotaTest, QuotaCanBeRaisedAtRunTime) {
  Supervisor Sup(quietService(1));
  TenantQuota Quota;
  Quota.MaxAllocBytes = 1;
  TenantId T = Sup.openTenant("t", Quota);
  ASSERT_NE(T, NoTenant);

  TenantQuota Read;
  ASSERT_TRUE(Sup.getQuota(T, Read));
  EXPECT_EQ(Read.MaxAllocBytes, 1u);

  // Raise before anything trips; the lease then passes.
  Read.MaxAllocBytes = 0; // Unlimited.
  ASSERT_TRUE(Sup.setQuota(T, Read));
  Supervisor::Lease L = Sup.lease(T);
  EXPECT_TRUE(static_cast<bool>(L));
}

//===----------------------------------------------------------------------===//
// Eviction recycles the shard
//===----------------------------------------------------------------------===//

TEST(ServiceEvictionTest, CloseResetsShardForTheNextTenant) {
  Supervisor Sup(quietService(1));
  TenantId A = Sup.openTenant("a");
  ASSERT_NE(A, NoTenant);
  {
    Supervisor::Lease L = Sup.lease(A);
    ASSERT_TRUE(static_cast<bool>(L));
    TypeContext &Ctx = L->types();
    // Leak on purpose: the reset must reclaim it.
    void *P = L->malloc(100 * sizeof(int), Ctx.getInt());
    L->typeCheck(P, Ctx.getInt());
  }
  EXPECT_GT(Sup.pool().heap().shardStats(0).BlockBytesInUse, 0u);

  ASSERT_TRUE(Sup.closeTenant(A));
  EXPECT_FALSE(static_cast<bool>(Sup.lease(A))) << "stale handle misses";

  // With no outstanding leases the close's own tick already recycled
  // the slot: the next tenant starts from a clean shard.
  TenantId B = Sup.openTenant("b");
  ASSERT_NE(B, NoTenant);
  EXPECT_NE(B, A) << "generation bump keeps handles distinct";
  EXPECT_EQ(Sup.pool().heap().shardStats(0).BlockBytesInUse, 0u);
  EXPECT_EQ(Sup.pool().shard(0).counters().snapshot().TypeChecks, 0u);
  TenantSnapshot Snap;
  ASSERT_TRUE(Sup.tenantSnapshot(B, Snap));
  EXPECT_EQ(Snap.Checks, 0u);
  EXPECT_EQ(Snap.ErrorEvents, 0u);
}

TEST(ServiceEvictionTest, ResetWaitsForOutstandingLeases) {
  Supervisor Sup(quietService(1));
  TenantId A = Sup.openTenant("a");
  Supervisor::Lease Held = Sup.lease(A);
  ASSERT_TRUE(static_cast<bool>(Held));

  ASSERT_TRUE(Sup.closeTenant(A));
  EXPECT_EQ(Sup.openTenant("b"), NoTenant)
      << "slot still occupied while a lease is out";

  Held.reset();
  Sup.tick();
  EXPECT_NE(Sup.openTenant("b"), NoTenant)
      << "last release unblocks the recycle";
}

//===----------------------------------------------------------------------===//
// Adaptive degradation
//===----------------------------------------------------------------------===//

TEST(ServiceGovernorTest, DegradesUnderPressureAndRestoresWhenCalm) {
  ServiceOptions Options = quietService(1);
  Options.Governor = testGovernor();
  Supervisor Sup(Options);

  TenantId T = Sup.openTenant("hot");
  ASSERT_NE(T, NoTenant);
  EXPECT_EQ(Sup.tenantPolicy(T), CheckPolicy::Full);

  Supervisor::Lease L = Sup.lease(T);
  ASSERT_TRUE(static_cast<bool>(L));
  TypeContext &Ctx = L->types();
  auto *P = static_cast<int *>(L->malloc(sizeof(int), Ctx.getInt()));

  auto Burn = [&] {
    for (int I = 0; I < 200; ++I) // Over CheckRateHigh = 100.
      L->boundsGet(P);
  };

  // Two consecutive pressured ticks shed one level (DegradeTicks = 2).
  Burn();
  Sup.tick();
  EXPECT_EQ(Sup.tenantPolicy(T), CheckPolicy::Full) << "hysteresis holds";
  Burn();
  Sup.tick();
  EXPECT_EQ(Sup.tenantPolicy(T), CheckPolicy::BoundsOnly);

  // Two more shed the second (and last) level.
  Burn();
  Sup.tick();
  Burn();
  Sup.tick();
  EXPECT_EQ(Sup.tenantPolicy(T), CheckPolicy::CountOnly);

  // Pressure gone: two calm ticks per restored level (RestoreTicks=2).
  Sup.tick();
  Sup.tick();
  EXPECT_EQ(Sup.tenantPolicy(T), CheckPolicy::BoundsOnly);
  Sup.tick();
  Sup.tick();
  EXPECT_EQ(Sup.tenantPolicy(T), CheckPolicy::Full);

  ServiceStats S = Sup.stats();
  EXPECT_EQ(S.PolicyDegrades, 2u);
  EXPECT_EQ(S.PolicyRestores, 2u);
  L->free(P);
}

TEST(ServiceGovernorTest, DisabledGovernorPinsThePolicy) {
  ServiceOptions Options = quietService(1);
  Options.Governor = testGovernor();
  Options.EnableGovernor = false;
  Supervisor Sup(Options);

  TenantId T = Sup.openTenant("hot");
  Supervisor::Lease L = Sup.lease(T);
  ASSERT_TRUE(static_cast<bool>(L));
  TypeContext &Ctx = L->types();
  auto *P = static_cast<int *>(L->malloc(sizeof(int), Ctx.getInt()));
  for (int Round = 0; Round < 4; ++Round) {
    for (int I = 0; I < 200; ++I)
      L->boundsGet(P);
    Sup.tick();
  }
  EXPECT_EQ(Sup.tenantPolicy(T), CheckPolicy::Full);
  EXPECT_EQ(Sup.stats().PolicyDegrades, 0u);
  L->free(P);
}

TEST(ServiceGovernorTest, RecycledShardStartsUndegraded) {
  ServiceOptions Options = quietService(1);
  Options.Governor = testGovernor();
  Supervisor Sup(Options);

  TenantId A = Sup.openTenant("a");
  {
    Supervisor::Lease L = Sup.lease(A);
    ASSERT_TRUE(static_cast<bool>(L));
    TypeContext &Ctx = L->types();
    auto *P = static_cast<int *>(L->malloc(sizeof(int), Ctx.getInt()));
    for (int Round = 0; Round < 2; ++Round) {
      for (int I = 0; I < 200; ++I)
        L->boundsGet(P);
      Sup.tick();
    }
    EXPECT_EQ(Sup.tenantPolicy(A), CheckPolicy::BoundsOnly);
    L->free(P);
  }
  Sup.closeTenant(A);

  TenantId B = Sup.openTenant("b");
  ASSERT_NE(B, NoTenant);
  EXPECT_EQ(Sup.tenantPolicy(B), CheckPolicy::Full)
      << "degradation state does not leak across tenants";
}

TEST(ServiceGovernorTest, EwmaSmoothsAlternatingLoadBothDirections) {
  // EwmaTicks = 3 -> alpha = 0.5: every tick moves the average halfway
  // to the raw sample, which keeps the arithmetic exact below.
  GovernorOptions G = testGovernor(); // CheckRateHigh=100, Restore=0.5.
  G.EwmaTicks = 3;
  LoadGovernor Smoothed(G, 1, CheckPolicy::Full);
  LoadGovernor Raw(testGovernor(), 1, CheckPolicy::Full);

  // Alternating hot/cold load: 400 checks, then an idle tick. Raw
  // deltas flap (the idle tick reads calm and resets the hot streak),
  // so the unsmoothed governor never degrades. The EWMA sees
  // 400 -> 200, both over the 100 mark, and sheds after two ticks.
  ShardSample Hot;
  Hot.Checks = 400;
  ShardSample Idle;

  Smoothed.observe(0, Hot); // Seeds the average at 400: pressured.
  Raw.observe(0, Hot);
  EXPECT_EQ(Smoothed.level(0), 0u);
  LoadGovernor::Decision D = Smoothed.observe(0, Idle); // Avg 200.
  Raw.observe(0, Idle);
  EXPECT_TRUE(D.Degraded) << "smoothed idle tick still reads pressured";
  EXPECT_EQ(Smoothed.level(0), 1u);
  EXPECT_EQ(Raw.level(0), 0u) << "raw deltas flap and never degrade";

  // Restore direction: the average must DECAY below the thresholds
  // before calm ticks start counting — silence does not snap the level
  // back. Avg walks 200 -> 100 (still pressured) -> 50 (dead band:
  // calm needs < 100 * 0.5) -> 25 -> 12.5 (two calm ticks -> restore).
  Smoothed.observe(0, Idle);
  Smoothed.observe(0, Idle);
  EXPECT_EQ(Smoothed.level(0), 1u);
  Smoothed.observe(0, Idle);
  D = Smoothed.observe(0, Idle);
  EXPECT_TRUE(D.Restored);
  EXPECT_EQ(Smoothed.level(0), 0u);

  // A lone spike amid calm is absorbed: the average only moves halfway
  // toward 150 (~81 < 100), so the spike never reads pressured and
  // cannot restart a degrade streak.
  ShardSample Spike;
  Spike.Checks = 150;
  D = Smoothed.observe(0, Spike);
  EXPECT_FALSE(D.Degraded);
  EXPECT_EQ(Smoothed.level(0), 0u);
}

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//

TEST(ServiceTelemetryTest, StatsAggregateTheRegistryAndDrainer) {
  Supervisor Sup(quietService(2));
  TenantId A = Sup.openTenant("a");
  TenantId B = Sup.openTenant("b");
  ASSERT_NE(A, NoTenant);
  ASSERT_NE(B, NoTenant);
  EXPECT_EQ(Sup.openTenant("c"), NoTenant) << "two shards, two tenants";

  {
    Supervisor::Lease L = Sup.lease(A);
    ASSERT_TRUE(static_cast<bool>(L));
    oneBoundsError(L.session());
  }
  Sup.tick();
  Sup.closeTenant(B);

  ServiceStats S = Sup.stats();
  EXPECT_EQ(S.TenantsOpen, 1u);
  EXPECT_EQ(S.TenantsOpenedTotal, 2u);
  EXPECT_EQ(S.TenantsEvicted, 1u);
  EXPECT_EQ(S.TenantsClosed, 1u);
  EXPECT_EQ(S.LeasesGranted, 1u);
  EXPECT_EQ(S.LeasesRefused, 0u);
  EXPECT_GE(S.DrainTicks, 1u);
  EXPECT_EQ(S.DrainedEvents, 1u);
  EXPECT_EQ(S.IssuesFound, 1u);
}

TEST(ServiceTelemetryTest, SnapshotJsonDescribesTenants) {
  Supervisor Sup(quietService(2));
  TenantQuota Quota;
  Quota.MaxErrorEvents = 10;
  TenantId A = Sup.openTenant("alpha", Quota);
  ASSERT_NE(A, NoTenant);
  {
    Supervisor::Lease L = Sup.lease(A);
    ASSERT_TRUE(static_cast<bool>(L));
    oneBoundsError(L.session());
  }
  Sup.tick();

  std::string Json = Sup.snapshotJson();
  EXPECT_NE(Json.find("\"service\":{"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"name\":\"alpha\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"status\":\"open\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"error_events\":1"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"drained_events\":1"), std::string::npos) << Json;
}

TEST(ServiceTelemetryTest, SnapshotHookFiresEveryNTicks) {
  static std::atomic<unsigned> Fired{0};
  static std::atomic<bool> SawTenants{false};
  Fired = 0;
  SawTenants = false;

  Supervisor Sup(quietService(1));
  Sup.setSnapshotHook(
      [](const char *Json, void *) {
        ++Fired;
        if (std::strstr(Json, "\"tenants\":["))
          SawTenants = true;
      },
      nullptr, /*EveryTicks=*/2);

  TenantId T = Sup.openTenant("t");
  ASSERT_NE(T, NoTenant);
  Sup.tick();
  EXPECT_EQ(Fired, 0u);
  Sup.tick();
  EXPECT_EQ(Fired, 1u);
  // New activity between snapshot ticks (a lease grant changes the
  // activity signature), so the next snapshot is emitted, not skipped.
  { Supervisor::Lease L = Sup.lease(T); }
  Sup.tick();
  Sup.tick();
  EXPECT_EQ(Fired, 2u);
  EXPECT_TRUE(SawTenants);
  EXPECT_EQ(Sup.stats().SnapshotsEmitted, 2u);
}

TEST(ServiceTelemetryTest, IdenticalSnapshotsAreSkippedUntilActivity) {
  static std::atomic<unsigned> Fired{0};
  Fired = 0;

  Supervisor Sup(quietService(1));
  Sup.setSnapshotHook([](const char *, void *) { ++Fired; }, nullptr,
                      /*EveryTicks=*/1);

  TenantId T = Sup.openTenant("t");
  ASSERT_NE(T, NoTenant);
  Sup.tick();
  EXPECT_EQ(Fired, 1u);

  // Nothing happened since: the signature is unchanged, so snapshots
  // are suppressed and counted as skipped instead.
  Sup.tick();
  Sup.tick();
  EXPECT_EQ(Fired, 1u);
  EXPECT_EQ(Sup.stats().SnapshotsEmitted, 1u);
  EXPECT_EQ(Sup.stats().SnapshotsSkipped, 2u);

  // Any tenant activity re-arms emission on the next snapshot tick.
  { Supervisor::Lease L = Sup.lease(T); }
  Sup.tick();
  EXPECT_EQ(Fired, 2u);
  EXPECT_EQ(Sup.stats().SnapshotsEmitted, 2u);
  EXPECT_EQ(Sup.stats().SnapshotsSkipped, 2u);
}

TEST(ServiceTelemetryTest, NullSnapshotHookEmitsAndSkipsNothing) {
  Supervisor Sup(quietService(1));
  // Snapshots nominally due every tick, but no hook to receive them:
  // the null-hook short-circuit must skip the whole snapshot block, so
  // neither counter moves (a "skip" implies a consumer existed).
  Sup.setSnapshotHook(nullptr, nullptr, /*EveryTicks=*/1);
  TenantId T = Sup.openTenant("t");
  ASSERT_NE(T, NoTenant);
  for (int I = 0; I < 4; ++I)
    Sup.tick();
  EXPECT_EQ(Sup.stats().SnapshotsEmitted, 0u);
  EXPECT_EQ(Sup.stats().SnapshotsSkipped, 0u);
}

TEST(ServiceTelemetryTest, DrainIntervalIsAdjustable) {
  Supervisor Sup(quietService(1));
  EXPECT_EQ(Sup.drainInterval(), 60'000'000u);
  Sup.setDrainInterval(1234);
  EXPECT_EQ(Sup.drainInterval(), 1234u);
  Sup.setDrainInterval(0);
  EXPECT_EQ(Sup.drainInterval(), 2000u) << "0 clamps to the default";
}

//===----------------------------------------------------------------------===//
// The effsan_service_* C ABI (since 1.5)
//===----------------------------------------------------------------------===//

TEST(ServiceAbiTest, VersionCarriesTheServiceAdditions) {
  EXPECT_EQ(EFFSAN_ABI_VERSION_MAJOR, 1);
  EXPECT_GE(EFFSAN_ABI_VERSION_MINOR, 5);
  EXPECT_EQ(effsan_abi_version(), uint32_t(EFFSAN_ABI_VERSION));
}

TEST(ServiceAbiTest, SessionPolicyIsSettable) {
  effsan_options Opts;
  effsan_options_init(&Opts);
  Opts.log_errors = 0;
  effsan_session *S = effsan_session_create(&Opts);
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(effsan_session_policy(S), uint32_t(EFFSAN_POLICY_FULL));
  effsan_session_set_policy(S, EFFSAN_POLICY_BOUNDS_ONLY);
  EXPECT_EQ(effsan_session_policy(S),
            uint32_t(EFFSAN_POLICY_BOUNDS_ONLY));
  effsan_session_destroy(S);
}

TEST(ServiceAbiTest, TenantLifecycleRoundTrip) {
  effsan_service_options Opts;
  effsan_service_options_init(&Opts);
  Opts.shards = 2;
  Opts.log_errors = 0;
  Opts.drain_interval_usec = 60'000'000;
  effsan_service *Svc = effsan_service_create(&Opts);
  ASSERT_NE(Svc, nullptr);
  EXPECT_EQ(effsan_service_num_shards(Svc), 2u);

  effsan_tenant_quota Quota;
  effsan_tenant_quota_init(&Quota);
  Quota.max_alloc_bytes = 4096;
  effsan_tenant T = effsan_service_tenant_open(Svc, "abi", &Quota);
  ASSERT_NE(T, EFFSAN_NO_TENANT);

  // First checkout passes the gate; allocate past the live-byte budget
  // and keep it live (and the checkout outstanding, so the eviction
  // cannot recycle the slot while we inspect it).
  effsan_session *S = effsan_service_checkout(Svc, T);
  ASSERT_NE(S, nullptr);
  effsan_type CharTy = effsan_type_primitive(S, EFFSAN_PRIM_CHAR);
  void *P = effsan_malloc(S, 8192, CharTy);
  ASSERT_NE(P, nullptr);
  effsan_bounds B = effsan_bounds_get(S, P);
  effsan_bounds_check(S, static_cast<char *>(P) + 8192, 1, B);
  EXPECT_EQ(effsan_service_tick(Svc), 1u) << "drains the bounds event";

  EXPECT_EQ(effsan_service_checkout(Svc, T), nullptr)
      << "8 KiB live against a 4 KiB budget";

  effsan_tenant_stats TS;
  std::memset(&TS, 0, sizeof(TS));
  TS.struct_size = sizeof(TS);
  ASSERT_NE(effsan_service_tenant_stats(Svc, T, &TS), 0);
  EXPECT_EQ(TS.status, uint32_t(EFFSAN_TENANT_EVICTED));
  EXPECT_EQ(TS.evict_reason, uint32_t(EFFSAN_EVICT_ALLOC_BYTES));
  EXPECT_EQ(TS.checkouts_granted, 1u);
  EXPECT_EQ(TS.checkouts_refused, 1u);
  EXPECT_EQ(TS.checkouts_outstanding, 1u);
  EXPECT_EQ(TS.error_events, 1u);

  effsan_free(S, P);
  ASSERT_NE(effsan_service_release(Svc, T), 0);
  EXPECT_EQ(effsan_service_release(Svc, T), 0) << "nothing left to return";
  effsan_service_tick(Svc);
  EXPECT_EQ(effsan_service_tenant_stats(Svc, T, &TS), 0)
      << "slot recycled; handle stale";

  effsan_service_stats SS;
  std::memset(&SS, 0, sizeof(SS));
  SS.struct_size = sizeof(SS);
  effsan_service_get_stats(Svc, &SS);
  EXPECT_EQ(SS.tenants_opened_total, 1u);
  EXPECT_EQ(SS.tenants_evicted, 1u);
  EXPECT_EQ(SS.tenants_closed, 1u);
  EXPECT_EQ(SS.checkouts_granted, 1u);
  EXPECT_EQ(SS.checkouts_refused, 1u);
  EXPECT_EQ(SS.drained_events, 1u);
  EXPECT_EQ(SS.issues_found, 1u);

  effsan_service_destroy(Svc);
}

TEST(ServiceAbiTest, QuotaSetMetersLiveBytesAtMagazineGranularity) {
  effsan_service_options Opts;
  effsan_service_options_init(&Opts);
  Opts.shards = 1;
  Opts.log_errors = 0;
  Opts.drain_interval_usec = 60'000'000;
  effsan_service *Svc = effsan_service_create(&Opts);
  ASSERT_NE(Svc, nullptr);
  effsan_tenant T = effsan_service_tenant_open(Svc, "grows", nullptr);
  ASSERT_NE(T, EFFSAN_NO_TENANT);

  // Unlimited at open: build a live footprint of many small objects,
  // most of them served from the thread's magazines and spans.
  constexpr unsigned Objects = 1000;
  constexpr uint64_t Block = 64; // 48-byte payload + 16-byte META.
  constexpr uint64_t Live = Objects * Block;
  effsan_session *S = effsan_service_checkout(Svc, T);
  ASSERT_NE(S, nullptr);
  effsan_type CharTy = effsan_type_primitive(S, EFFSAN_PRIM_CHAR);
  for (unsigned I = 0; I < Objects; ++I)
    ASSERT_NE(effsan_malloc(S, Block - 16, CharTy), nullptr);
  ASSERT_NE(effsan_service_release(Svc, T), 0);

  // A budget above the footprint keeps serving.
  effsan_tenant_quota Quota;
  effsan_tenant_quota_init(&Quota);
  Quota.max_alloc_bytes = 2 * Live;
  ASSERT_NE(effsan_service_quota_set(Svc, T, &Quota), 0);
  effsan_tenant_quota Read;
  ASSERT_NE(effsan_service_quota_get(Svc, T, &Read), 0);
  EXPECT_EQ(Read.max_alloc_bytes, 2 * Live);
  ASSERT_NE(effsan_service_checkout(Svc, T), nullptr);
  ASSERT_NE(effsan_service_release(Svc, T), 0);

  // The meter trails the live bytes by at most what the allocating
  // thread has not folded into the shard: a magazine of blocks (16)
  // plus one 16 KiB span of the class. So a budget under that floor
  // trips on the next checkout.
  constexpr uint64_t Slack = 16 * Block + (16 << 10);
  Quota.max_alloc_bytes = Live - Slack - 1;
  ASSERT_NE(effsan_service_quota_set(Svc, T, &Quota), 0);
  EXPECT_EQ(effsan_service_checkout(Svc, T), nullptr);

  effsan_tenant_stats TS;
  std::memset(&TS, 0, sizeof(TS));
  TS.struct_size = sizeof(TS);
  ASSERT_NE(effsan_service_tenant_stats(Svc, T, &TS), 0);
  EXPECT_EQ(TS.status, uint32_t(EFFSAN_TENANT_EVICTED));
  EXPECT_EQ(TS.evict_reason, uint32_t(EFFSAN_EVICT_ALLOC_BYTES));
  EXPECT_LE(TS.alloc_bytes, Live);
  EXPECT_GE(TS.alloc_bytes, Live - Slack);
  EXPECT_EQ(TS.checkouts_granted, 2u);
  EXPECT_EQ(TS.checkouts_refused, 1u);

  // The eviction recycles the shard; the handle goes stale, and so
  // does quota_set on it.
  effsan_service_tick(Svc);
  EXPECT_EQ(effsan_service_tenant_stats(Svc, T, &TS), 0);
  EXPECT_EQ(effsan_service_quota_set(Svc, T, &Quota), 0);
  effsan_service_destroy(Svc);
}

TEST(ServiceAbiTest, StatsPrefixContractOldAndNewCallers) {
  effsan_service_options Opts;
  effsan_service_options_init(&Opts);
  Opts.shards = 1;
  Opts.log_errors = 0;
  Opts.drain_interval_usec = 60'000'000;
  effsan_service *Svc = effsan_service_create(&Opts);
  ASSERT_NE(Svc, nullptr);
  effsan_tenant T = effsan_service_tenant_open(Svc, "t", nullptr);
  ASSERT_NE(T, EFFSAN_NO_TENANT);

  // An "old caller" built against a shorter struct: only the declared
  // prefix may be written.
  constexpr size_t Prefix = offsetof(effsan_service_stats, drain_ticks);
  alignas(effsan_service_stats) unsigned char Buf[sizeof(
      effsan_service_stats)];
  std::memset(Buf, 0xAB, sizeof(Buf));
  auto *Short = reinterpret_cast<effsan_service_stats *>(Buf);
  Short->struct_size = Prefix;
  effsan_service_get_stats(Svc, Short);
  EXPECT_EQ(Short->struct_size, Prefix);
  EXPECT_EQ(Short->tenants_open, 1u);
  for (size_t I = Prefix; I < sizeof(Buf); ++I)
    ASSERT_EQ(Buf[I], 0xAB) << "byte past the declared prefix at " << I;

  // A "future caller" with a larger struct: the unknown tail must read
  // as zero, never as stack garbage.
  alignas(effsan_service_stats) unsigned char Big[sizeof(
      effsan_service_stats) + 32];
  std::memset(Big, 0xCD, sizeof(Big));
  auto *Future = reinterpret_cast<effsan_service_stats *>(Big);
  Future->struct_size = sizeof(Big);
  effsan_service_get_stats(Svc, Future);
  EXPECT_EQ(Future->tenants_open, 1u);
  for (size_t I = sizeof(effsan_service_stats); I < sizeof(Big); ++I)
    ASSERT_EQ(Big[I], 0u) << "future-field byte at " << I;

  effsan_service_destroy(Svc);
}

TEST(ServiceAbiTest, GovernorEwmaTicksOptionReachesTheLadder) {
  // Same alternating hot/idle stream as the C++ EWMA test, driven
  // through the 1.6 option: with governor_ewma_ticks = 3 the smoothed
  // signal stays pressured across the idle tick and the shard degrades
  // (raw per-tick deltas — the 1.5 default of 0 — would flap forever).
  effsan_service_options Opts;
  effsan_service_options_init(&Opts);
  EXPECT_EQ(Opts.governor_ewma_ticks, 0u) << "smoothing is opt-in";
  Opts.shards = 1;
  Opts.log_errors = 0;
  Opts.drain_interval_usec = 60'000'000;
  Opts.check_rate_high = 100;
  Opts.degrade_ticks = 2;
  Opts.governor_ewma_ticks = 3;
  effsan_service *Svc = effsan_service_create(&Opts);
  ASSERT_NE(Svc, nullptr);

  effsan_tenant T = effsan_service_tenant_open(Svc, "hot", nullptr);
  ASSERT_NE(T, EFFSAN_NO_TENANT);
  effsan_session *S = effsan_service_checkout(Svc, T);
  ASSERT_NE(S, nullptr);
  effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);
  void *P = effsan_malloc(S, sizeof(int), IntTy);

  for (int I = 0; I < 400; ++I)
    effsan_bounds_get(S, P);
  effsan_service_tick(Svc); // Seeds the EWMA at 400: pressured.
  effsan_service_tick(Svc); // Idle tick smooths to 200: still pressured.

  effsan_service_stats SS;
  std::memset(&SS, 0, sizeof(SS));
  SS.struct_size = sizeof(SS);
  effsan_service_get_stats(Svc, &SS);
  EXPECT_EQ(SS.policy_degrades, 1u);

  effsan_tenant_stats TS;
  std::memset(&TS, 0, sizeof(TS));
  TS.struct_size = sizeof(TS);
  ASSERT_NE(effsan_service_tenant_stats(Svc, T, &TS), 0);
  EXPECT_EQ(TS.policy, uint32_t(EFFSAN_POLICY_BOUNDS_ONLY));

  effsan_free(S, P);
  effsan_service_release(Svc, T);
  effsan_service_destroy(Svc);
}

TEST(ServiceAbiTest, StatsCarrySkippedSnapshots) {
  static std::atomic<unsigned> Fired{0};
  Fired = 0;

  effsan_service_options Opts;
  effsan_service_options_init(&Opts);
  Opts.shards = 1;
  Opts.log_errors = 0;
  Opts.drain_interval_usec = 60'000'000;
  effsan_service *Svc = effsan_service_create(&Opts);
  ASSERT_NE(Svc, nullptr);
  effsan_service_set_snapshot_hook(
      Svc, [](const char *, void *) { ++Fired; }, nullptr,
      /*every_ticks=*/1);

  effsan_tenant T = effsan_service_tenant_open(Svc, "t", nullptr);
  ASSERT_NE(T, EFFSAN_NO_TENANT);
  effsan_service_tick(Svc); // Emits (first snapshot).
  effsan_service_tick(Svc); // Identical signature: skipped.
  effsan_service_tick(Svc); // Skipped again.
  EXPECT_EQ(Fired, 1u);

  effsan_service_stats SS;
  std::memset(&SS, 0, sizeof(SS));
  SS.struct_size = sizeof(SS);
  effsan_service_get_stats(Svc, &SS);
  EXPECT_EQ(SS.snapshots_emitted, 1u);
  EXPECT_EQ(SS.snapshots_skipped, 2u);

  effsan_service_destroy(Svc);
}

TEST(ServiceAbiTest, StaleHandlesFailClosed) {
  effsan_service_options Opts;
  effsan_service_options_init(&Opts);
  Opts.shards = 1;
  Opts.log_errors = 0;
  effsan_service *Svc = effsan_service_create(&Opts);
  ASSERT_NE(Svc, nullptr);

  EXPECT_EQ(effsan_service_checkout(Svc, EFFSAN_NO_TENANT), nullptr);
  EXPECT_EQ(effsan_service_release(Svc, EFFSAN_NO_TENANT), 0);
  EXPECT_EQ(effsan_service_tenant_close(Svc, EFFSAN_NO_TENANT), 0);

  effsan_tenant T = effsan_service_tenant_open(Svc, "t", nullptr);
  ASSERT_NE(effsan_service_tenant_close(Svc, T), 0);
  EXPECT_EQ(effsan_service_tenant_close(Svc, T), 0) << "already recycled";
  EXPECT_EQ(effsan_service_checkout(Svc, T), nullptr);
  effsan_tenant_quota Quota;
  EXPECT_EQ(effsan_service_quota_get(Svc, T, &Quota), 0);

  effsan_service_destroy(Svc);
}

//===----------------------------------------------------------------------===//
// Drain-vs-mutator storm (the CI TSan job's main service target)
//===----------------------------------------------------------------------===//

TEST(ServiceStormTest, ConcurrentTenantsDrainerAndGovernor) {
  ServiceOptions Options;
  Options.Shards = 4;
  Options.Reporter.Mode = ReportMode::Count;
  Options.DrainIntervalMicros = 200; // Aggressive background ticks.
  Options.Governor = testGovernor();
  Supervisor Sup(Options);

  constexpr int Threads = 4;
  constexpr int Iters = 2000;
  std::vector<TenantId> Ids(Threads);
  for (int I = 0; I < Threads; ++I) {
    Ids[I] = Sup.openTenant("storm-" + std::to_string(I));
    ASSERT_NE(Ids[I], NoTenant);
  }

  std::vector<std::thread> Workers;
  for (int W = 0; W < Threads; ++W) {
    Workers.emplace_back([&, W] {
      TenantId Id = Ids[W];
      for (int I = 0; I < Iters; ++I) {
        Supervisor::Lease L = Sup.lease(Id);
        ASSERT_TRUE(static_cast<bool>(L)) << "unlimited quota";
        TypeContext &Ctx = L->types();
        auto *P = static_cast<int *>(
            L->malloc(16 * sizeof(int), Ctx.getInt()));
        Bounds B = L->boundsGet(P);
        L->boundsCheck(P + (I % 16), sizeof(int), B);
        if (I % 64 == 0)
          L->boundsCheck(P + 16, sizeof(int), B); // One error event.
        L->free(P);
      }
    });
  }
  // The supervisor's API races the storm: telemetry, quota edits, and
  // interval changes from the main thread.
  for (int I = 0; I < 20; ++I) {
    (void)Sup.snapshotJson();
    (void)Sup.stats();
    TenantQuota Quota;
    Quota.MaxChecks = 0;
    Sup.setQuota(Ids[0], Quota);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::thread &W : Workers)
    W.join();

  uint64_t Drained = Sup.tick();
  (void)Drained;
  ServiceStats S = Sup.stats();
  EXPECT_EQ(S.LeasesGranted, uint64_t(Threads) * Iters);
  EXPECT_EQ(S.LeasesRefused, 0u);
  // Conservation: every event that entered the ring reached the
  // central reporter — background-drained or (when the 200 us cadence
  // lost a burst to a full ring) via the locked fallback — never
  // dropped. The absolute count is NOT Threads * (Iters / 64): once
  // the aggressive test governor walks a shard down to CountOnly, its
  // deliberate out-of-bounds checks legitimately stop reporting, and
  // how many were suppressed is a race by design here.
  EXPECT_EQ(Sup.pool().reporter().numEvents(),
            S.DrainedEvents + S.RingOverflows);
  EXPECT_GT(S.DrainedEvents + S.RingOverflows, 0u)
      << "the storm starts at Full: pre-degradation errors must land";
  EXPECT_GE(S.IssuesFound, 1u);

  TenantSnapshot Snap;
  uint64_t Attributed = 0;
  for (TenantId Id : Ids) {
    ASSERT_TRUE(Sup.tenantSnapshot(Id, Snap));
    Attributed += Snap.ErrorEvents;
  }
  EXPECT_EQ(Attributed, S.DrainedEvents)
      << "every drained event was billed to exactly one tenant";
}

} // namespace

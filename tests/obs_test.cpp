//===- tests/obs_test.cpp - Observability layer tests ---------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Covers src/obs/ and its wiring: the SPSC TraceRing (push/pop order,
/// full-ring drop accounting), the process-wide Tracer (record ->
/// collect -> Chrome trace-event JSON export, and a writer-vs-collector
/// storm that runs under -fsanitize=thread in CI), the MetricsRegistry
/// (find-or-create identity, log2 histogram bucketing, Prometheus text
/// rendering), the SiteProfiler (per-site hit/miss counts, top-N
/// ranking, direct-map collision accounting, reset), the Runtime
/// integration (latency sampler, hot-site profiling, slow-path trace
/// events), a differential check that the Supervisor's Prometheus
/// mirror agrees with the legacy CheckCounters / heap stats, and the
/// effsan_obs_* C ABI (since 1.6).
///
/// Everything that records real data is gated on obs::compiledIn() so
/// the suite still passes (vacuously where it must) under
/// -DEFFSAN_OBS_OFF=ON.
///
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/SiteProfiler.h"
#include "obs/Trace.h"

#include "api/effsan.h"
#include "core/Effective.h"
#include "service/Supervisor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace effective;
using namespace effective::service;

namespace {

/// Restores the global observability state on scope exit so a test
/// that arms flags cannot leak them into its neighbours.
struct ObsQuiesce {
  ~ObsQuiesce() {
    obs::Tracer::instance().stop();
    obs::setFlags(0);
  }
};

/// Session options that never print to stderr.
SessionOptions quietSession() {
  SessionOptions Options;
  Options.Reporter.Mode = ReportMode::Count;
  return Options;
}

/// Parses `key value` (or `key{labels} value`, with the braces part of
/// \p Key) out of a Prometheus text exposition. Returns uint64_t(-1)
/// when the series is absent.
uint64_t metricValue(const std::string &Text, const std::string &Key) {
  std::string Needle = "\n" + Key + " ";
  size_t Pos = Text.find(Needle);
  if (Pos == std::string::npos) {
    if (Text.compare(0, Key.size() + 1, Key + " ") != 0)
      return uint64_t(-1);
    Pos = 0;
    Needle = Key + " ";
  }
  return std::strtoull(Text.c_str() + Pos + Needle.size(), nullptr, 10);
}

} // namespace

//===----------------------------------------------------------------------===//
// TraceRing
//===----------------------------------------------------------------------===//

TEST(TraceRingTest, PushPopPreservesOrderAndPayload) {
  obs::TraceRing Ring(/*Capacity=*/64, /*Tid=*/7);
  EXPECT_EQ(Ring.capacity(), 64u);
  EXPECT_EQ(Ring.tid(), 7u);
  EXPECT_EQ(Ring.size(), 0u);

  for (uint64_t I = 0; I < 10; ++I) {
    obs::TraceEvent E;
    E.Tsc = 1000 + I;
    E.Arg = I;
    E.DurTsc = static_cast<uint32_t>(I * 2);
    E.Kind = static_cast<uint16_t>(obs::EventKind::MagazineRefill);
    E.Shard = 3;
    ASSERT_TRUE(Ring.tryPush(E));
  }
  EXPECT_EQ(Ring.size(), 10u);

  obs::TraceEvent Out;
  for (uint64_t I = 0; I < 10; ++I) {
    ASSERT_TRUE(Ring.tryPop(Out)) << "event " << I;
    EXPECT_EQ(Out.Tsc, 1000 + I) << "FIFO order";
    EXPECT_EQ(Out.Arg, I);
    EXPECT_EQ(Out.DurTsc, I * 2);
    EXPECT_EQ(Out.Shard, 3);
  }
  EXPECT_FALSE(Ring.tryPop(Out)) << "drained";
  EXPECT_EQ(Ring.dropped(), 0u);
}

TEST(TraceRingTest, FullRingDropsAndCounts) {
  obs::TraceRing Ring(/*Capacity=*/100, /*Tid=*/1);
  EXPECT_EQ(Ring.capacity(), 128u) << "capacity rounds up to a power of two";

  obs::TraceEvent E;
  for (size_t I = 0; I < 128; ++I)
    ASSERT_TRUE(Ring.tryPush(E));
  EXPECT_FALSE(Ring.tryPush(E)) << "full ring refuses, never blocks";
  EXPECT_FALSE(Ring.tryPush(E));
  EXPECT_EQ(Ring.dropped(), 2u);

  // Popping one frees one slot; the writer recovers immediately.
  obs::TraceEvent Out;
  ASSERT_TRUE(Ring.tryPop(Out));
  EXPECT_TRUE(Ring.tryPush(E));
  Ring.clearDropped();
  EXPECT_EQ(Ring.dropped(), 0u);
}

//===----------------------------------------------------------------------===//
// Tracer: record -> collect -> export
//===----------------------------------------------------------------------===//

TEST(TracerTest, RecordCollectExportChromeJson) {
  if (!obs::compiledIn())
    GTEST_SKIP() << "built with EFFSAN_OBS_OFF";
  ObsQuiesce Quiesce;
  obs::Tracer &T = obs::Tracer::instance();
  ASSERT_TRUE(T.start());
  EXPECT_TRUE(obs::traceActive()) << "start() sets TraceFlag";

  T.record(obs::EventKind::CheckSlowPath, /*Shard=*/obs::NoShard,
           /*Arg=*/41);
  T.record(obs::EventKind::MagazineRefill, /*Shard=*/2, /*Arg=*/32);
  uint64_t Start = obs::now();
  T.record(obs::EventKind::DrainTick, obs::NoShard, /*Arg=*/5,
           static_cast<uint32_t>(obs::now() - Start + 1));
  T.stop();
  EXPECT_FALSE(obs::traceActive()) << "stop() clears TraceFlag";

  std::string Json;
  EXPECT_EQ(T.exportChromeJson(Json), 3u);
  const std::string Prefix = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  EXPECT_EQ(Json.rfind(Prefix, 0), 0u) << Json.substr(0, 80);
  EXPECT_EQ(Json.compare(Json.size() - 2, 2, "]}"), 0);
  // The instant events carry ph:"i", the duration event ph:"X", and
  // each kind renders with its stable name and layer category.
  EXPECT_NE(Json.find("\"name\":\"check_slow_path\",\"cat\":\"check\","
                      "\"ph\":\"i\""),
            std::string::npos)
      << Json;
  EXPECT_NE(Json.find("\"name\":\"magazine_refill\",\"cat\":\"alloc\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"drain_tick\",\"cat\":\"service\","
                      "\"ph\":\"X\""),
            std::string::npos)
      << Json;
  EXPECT_NE(Json.find("\"args\":{\"arg\":41,\"shard\":-1}"),
            std::string::npos)
      << "NoShard renders as -1";
  EXPECT_NE(Json.find("\"shard\":2}"), std::string::npos);
}

TEST(TracerTest, StartDropsStaleEventsFromThePreviousRun) {
  if (!obs::compiledIn())
    GTEST_SKIP() << "built with EFFSAN_OBS_OFF";
  ObsQuiesce Quiesce;
  obs::Tracer &T = obs::Tracer::instance();
  ASSERT_TRUE(T.start());
  T.record(obs::EventKind::Steal, 0, 1);
  T.stop();

  ASSERT_TRUE(T.start()); // A fresh run must not inherit the Steal.
  T.record(obs::EventKind::QuarantineFlush, 1, 64);
  T.stop();
  std::string Json;
  EXPECT_EQ(T.exportChromeJson(Json), 1u);
  EXPECT_EQ(Json.find("\"steal\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"quarantine_flush\""), std::string::npos);
}

TEST(TracerTest, EventKindTablesCoverEveryKind) {
  for (unsigned K = 0;
       K < static_cast<unsigned>(obs::EventKind::NumEventKinds); ++K) {
    auto Kind = static_cast<obs::EventKind>(K);
    EXPECT_STRNE(obs::eventKindName(Kind), "") << "kind " << K;
    const char *Cat = obs::eventKindCategory(Kind);
    EXPECT_TRUE(std::strcmp(Cat, "check") == 0 ||
                std::strcmp(Cat, "alloc") == 0 ||
                std::strcmp(Cat, "concurrent") == 0 ||
                std::strcmp(Cat, "service") == 0 ||
                std::strcmp(Cat, "resilience") == 0)
        << "kind " << K << " category " << Cat;
  }
}

/// The TSan target: writers record into their thread rings while the
/// main thread collects concurrently. Small rings force the drop path
/// too. Runs under -fsanitize=thread in the CI tsan job.
TEST(TracerStormTest, ConcurrentRecordersAndCollector) {
  if (!obs::compiledIn())
    GTEST_SKIP() << "built with EFFSAN_OBS_OFF";
  ObsQuiesce Quiesce;
  obs::Tracer &T = obs::Tracer::instance();
  ASSERT_TRUE(T.start(/*RingCapacity=*/256));

  constexpr int Writers = 4;
  constexpr uint64_t PerWriter = 20'000;
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  for (int W = 0; W < Writers; ++W)
    Threads.emplace_back([&, W] {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      for (uint64_t I = 0; I < PerWriter; ++I)
        T.record(static_cast<obs::EventKind>(
                     I % static_cast<uint64_t>(obs::EventKind::NumEventKinds)),
                 static_cast<uint16_t>(W), I);
    });

  Go.store(true, std::memory_order_release);
  for (int I = 0; I < 200; ++I) {
    T.collect();
    std::this_thread::yield();
  }
  for (std::thread &Th : Threads)
    Th.join();
  T.stop();
  T.collect();

  // Every event is accounted for exactly once: collected or dropped.
  EXPECT_EQ(T.collectedSize() + T.dropped(), Writers * PerWriter);
  EXPECT_LE(T.collectedSize(), obs::Tracer::MaxCollected);
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

TEST(MetricsTest, FindOrCreateReturnsTheSameSeries) {
  obs::MetricsRegistry Reg;
  obs::Histogram &A = Reg.histogram("latency_ticks", "Latency");
  obs::Histogram &B = Reg.histogram("latency_ticks", "Latency");
  EXPECT_EQ(&A, &B) << "same (name, labels) -> same object";

  obs::Histogram &C = Reg.histogram("latency_ticks", "Latency",
                                    "path=\"slow\"");
  EXPECT_NE(&A, &C) << "different labels -> distinct series";

  A.observe(3);
  EXPECT_EQ(B.count(), 1u) << "aliases observe each other's samples";
  EXPECT_EQ(C.count(), 0u);
}

TEST(MetricsTest, HistogramBucketsByBitWidth) {
  obs::Histogram H;
  H.observe(0);    // bit_width(0) = 0
  H.observe(1);    // 1
  H.observe(3);    // 2
  H.observe(1024); // 11
  EXPECT_EQ(H.count(), 4u);
  EXPECT_EQ(H.sum(), 1028u);
  EXPECT_EQ(H.bucket(0), 1u);
  EXPECT_EQ(H.bucket(1), 1u);
  EXPECT_EQ(H.bucket(2), 1u);
  EXPECT_EQ(H.bucket(11), 1u);
  EXPECT_EQ(H.bucket(3), 0u);

  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.sum(), 0u);
  EXPECT_EQ(H.bucket(11), 0u);
}

TEST(MetricsTest, HistogramCountsExactlyUnderConcurrentObservers) {
  constexpr unsigned Threads = 4;
  constexpr uint64_t PerThread = 100'000;
  obs::Histogram H;
  std::atomic<bool> Go{false};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      // Thread T observes the value T + 1: buckets 1, 2, 2 and 3.
      for (uint64_t I = 0; I < PerThread; ++I)
        H.observe(T + 1);
    });
  Go.store(true, std::memory_order_release);
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(H.count(), Threads * PerThread);
  EXPECT_EQ(H.sum(), (1 + 2 + 3 + 4) * PerThread);
  EXPECT_EQ(H.bucket(1), PerThread);     // 1
  EXPECT_EQ(H.bucket(2), 2 * PerThread); // 2, 3
  EXPECT_EQ(H.bucket(3), PerThread);     // 4
}

TEST(MetricsTest, RenderEmitsPrometheusTextExposition) {
  std::string Out;
  obs::PromWriter W(Out);
  W.counter("effsan_test_checks_total", "kind=\"type\"", "Checks", 7);
  W.counter("effsan_test_checks_total", "kind=\"bounds\"", "Checks", 2);
  W.gauge("effsan_test_depth", "", "Depth", -3);
  obs::MetricsRegistry Reg;
  obs::Histogram &H =
      Reg.histogram("effsan_test_latency_ticks", "Latency");
  H.observe(1);
  H.observe(5); // bit_width 3 -> cumulative le="7".
  Reg.render(Out);

  // One HELP/TYPE header per family even when labels split the series.
  EXPECT_NE(Out.find("# HELP effsan_test_checks_total Checks\n"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("# TYPE effsan_test_checks_total counter\n"),
            std::string::npos);
  size_t First = Out.find("# TYPE effsan_test_checks_total");
  EXPECT_EQ(Out.find("# TYPE effsan_test_checks_total", First + 1),
            std::string::npos)
      << "family header rendered once";
  EXPECT_EQ(metricValue(Out, "effsan_test_checks_total{kind=\"type\"}"), 7u);
  EXPECT_EQ(metricValue(Out, "effsan_test_checks_total{kind=\"bounds\"}"),
            2u);
  EXPECT_NE(Out.find("# TYPE effsan_test_depth gauge\n"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("effsan_test_depth -3\n"), std::string::npos) << Out;
  EXPECT_NE(Out.find("# TYPE effsan_test_latency_ticks histogram\n"),
            std::string::npos)
      << Out;
  // Cumulative histogram buckets, then +Inf, _sum and _count.
  EXPECT_EQ(metricValue(Out, "effsan_test_latency_ticks_bucket{le=\"1\"}"),
            1u);
  EXPECT_EQ(metricValue(Out, "effsan_test_latency_ticks_bucket{le=\"7\"}"),
            2u);
  EXPECT_EQ(metricValue(Out, "effsan_test_latency_ticks_bucket{le=\"+Inf\"}"),
            2u);
  EXPECT_EQ(metricValue(Out, "effsan_test_latency_ticks_sum"), 6u);
  EXPECT_EQ(metricValue(Out, "effsan_test_latency_ticks_count"), 2u);
}

//===----------------------------------------------------------------------===//
// SiteProfiler
//===----------------------------------------------------------------------===//

TEST(SiteProfilerTest, CountsAndRanksSites) {
  if (!obs::compiledIn())
    GTEST_SKIP() << "built with EFFSAN_OBS_OFF";
  obs::SiteProfiler Prof(/*Slots=*/256);
  for (int I = 0; I < 30; ++I)
    Prof.noteHit(5);
  Prof.noteMiss(5);
  for (int I = 0; I < 10; ++I)
    Prof.noteHit(9);

  std::vector<obs::SiteProfile> Top = Prof.topSites(8);
  ASSERT_EQ(Top.size(), 2u);
  EXPECT_EQ(Top[0].Site, 5u) << "ranked by hits+misses, descending";
  EXPECT_EQ(Top[0].Hits, 30u);
  EXPECT_EQ(Top[0].Misses, 1u);
  EXPECT_EQ(Top[1].Site, 9u);
  EXPECT_EQ(Top[1].Hits, 10u);

  EXPECT_EQ(Prof.topSites(1).size(), 1u) << "N truncates";
  EXPECT_EQ(Prof.conflicts(), 0u);

  Prof.reset();
  EXPECT_TRUE(Prof.topSites(8).empty());
}

TEST(SiteProfilerTest, DirectMapCollisionsAreCountedNotChained) {
  if (!obs::compiledIn())
    GTEST_SKIP() << "built with EFFSAN_OBS_OFF";
  // 64 slots: sites 0 and 64 both hash (Fibonacci, odd multiplier) to
  // slot 0, so the second claimant is dropped and counted.
  obs::SiteProfiler Prof(/*Slots=*/64);
  Prof.noteHit(0);
  Prof.noteHit(64);
  Prof.noteMiss(64);
  EXPECT_EQ(Prof.conflicts(), 2u);

  std::vector<obs::SiteProfile> Top = Prof.topSites(8);
  ASSERT_EQ(Top.size(), 1u) << "the colliding site never claims a slot";
  EXPECT_EQ(Top[0].Site, 0u);
  EXPECT_EQ(Top[0].Hits, 1u);
}

//===----------------------------------------------------------------------===//
// Runtime integration
//===----------------------------------------------------------------------===//

TEST(ObsRuntimeTest, LatencySamplerFillsTheGlobalHistograms) {
  if (!obs::compiledIn())
    GTEST_SKIP() << "built with EFFSAN_OBS_OFF";
  ObsQuiesce Quiesce;
  uint64_t FastBefore = obs::checkFastLatency().count();
  uint64_t SlowBefore = obs::checkSlowLatency().count();

  Sanitizer S(TypeContext::global(), quietSession());
  TypeContext &Ctx = S.types();
  auto *P = static_cast<int *>(S.malloc(sizeof(int), Ctx.getInt()));
  obs::setFlags(obs::MetricsFlag);
  // A fresh runtime's check counter starts at 0, so the very first
  // check is sampled ((0 & CheckSampleMask) == 0); the rest make more
  // decimation points pass by.
  for (unsigned I = 0; I < 3 * (obs::CheckSampleMask + 1); ++I)
    S.typeCheck(P, Ctx.getInt());
  obs::setFlags(0);
  S.free(P);

  uint64_t Sampled = (obs::checkFastLatency().count() - FastBefore) +
                     (obs::checkSlowLatency().count() - SlowBefore);
  EXPECT_GE(Sampled, 2u);
  EXPECT_LE(Sampled, 8u) << "decimation: 1-in-" << (obs::CheckSampleMask + 1);
}

TEST(ObsRuntimeTest, ProfilerAttributesHitsAndMissesToTheSite) {
  if (!obs::compiledIn())
    GTEST_SKIP() << "built with EFFSAN_OBS_OFF";
  ObsQuiesce Quiesce;
  Sanitizer S(TypeContext::global(), quietSession());
  TypeContext &Ctx = S.types();
  auto *P = static_cast<int *>(S.malloc(sizeof(int), Ctx.getInt()));

  obs::setFlags(obs::ProfileFlag);
  constexpr unsigned N = 1000;
  for (unsigned I = 0; I < N; ++I)
    S.typeCheck(P, Ctx.getInt()); // Unsited: routed to the pseudo-site.
  obs::setFlags(0);
  S.free(P);

  std::vector<obs::SiteProfile> Top = S.runtime().profiler().topSites(4);
  ASSERT_FALSE(Top.empty());
  // First check misses the inline cache (recorded exactly), the rest
  // hit (sampled 1-in-16, counter seeded at 0 so the first hit is
  // taken). ~999/16 samples, with slack for allocation-path checks.
  EXPECT_GE(Top[0].Misses, 1u);
  EXPECT_GE(Top[0].Hits, N / 16 / 2);
  EXPECT_LE(Top[0].Hits, N);
}

TEST(ObsRuntimeTest, CacheMissesEmitCheckSlowPathTraceEvents) {
  if (!obs::compiledIn())
    GTEST_SKIP() << "built with EFFSAN_OBS_OFF";
  ObsQuiesce Quiesce;
  Sanitizer S(TypeContext::global(), quietSession());
  TypeContext &Ctx = S.types();
  auto *P = static_cast<int *>(S.malloc(sizeof(int), Ctx.getInt()));

  ASSERT_TRUE(obs::Tracer::instance().start());
  S.typeCheck(P, Ctx.getInt()); // Cold cache: the slow path fires.
  obs::Tracer::instance().stop();
  S.free(P);

  std::string Json;
  obs::Tracer::instance().exportChromeJson(Json);
  EXPECT_NE(Json.find("\"check_slow_path\""), std::string::npos) << Json;
}

//===----------------------------------------------------------------------===//
// Differential: the Prometheus text vs the legacy counters
//===----------------------------------------------------------------------===//

TEST(ObsDifferentialTest, ServiceMetricsAgreeWithLegacyStats) {
  ServiceOptions Options;
  Options.Shards = 1;
  Options.Reporter.Mode = ReportMode::Count;
  Options.DrainIntervalMicros = 60'000'000;
  Supervisor Sup(Options);
  TenantId T = Sup.openTenant("diff");
  ASSERT_NE(T, NoTenant);
  {
    Supervisor::Lease L = Sup.lease(T);
    ASSERT_TRUE(static_cast<bool>(L));
    TypeContext &Ctx = L->types();
    auto *P = static_cast<int *>(L->malloc(16 * sizeof(int), Ctx.getInt()));
    for (int I = 0; I < 100; ++I)
      L->boundsGet(P);
    for (int I = 0; I < 50; ++I)
      L->typeCheck(P, Ctx.getInt());
    Bounds B = L->boundsGet(P);
    L->boundsCheck(P + 16, sizeof(int), B); // One drained error event.
    L->free(P);
  }
  Sup.tick();

  // metricsText() reads the stats records at render time (the obs flag
  // only gates the drain tick's histograms), so this holds with obs
  // disarmed and under EFFSAN_OBS_OFF alike.
  std::string Text = Sup.metricsText();
  ServiceStats S = Sup.stats();
  auto C = Sup.pool().shard(0).counters().snapshot();

  EXPECT_EQ(metricValue(Text, "effsan_checks_total{kind=\"type\"}"),
            C.TypeChecks);
  EXPECT_EQ(metricValue(Text, "effsan_checks_total{kind=\"bounds_get\"}"),
            C.BoundsGets);
  EXPECT_EQ(metricValue(Text, "effsan_checks_total{kind=\"bounds\"}"),
            C.BoundsChecks);
  EXPECT_EQ(metricValue(Text, "effsan_check_cache_hits_total"),
            C.TypeCheckCacheHits);
  EXPECT_EQ(metricValue(Text, "effsan_check_cache_misses_total"),
            C.TypeCheckCacheMisses);
  EXPECT_EQ(metricValue(Text, "effsan_service_leases_granted_total"),
            S.LeasesGranted);
  EXPECT_EQ(metricValue(Text, "effsan_service_drained_events_total"),
            S.DrainedEvents);
  EXPECT_EQ(metricValue(Text, "effsan_service_issues_found_total"),
            S.IssuesFound);
  EXPECT_EQ(metricValue(Text, "effsan_heap_allocs_total"),
            Sup.pool().heap().stats().NumAllocs);
  EXPECT_EQ(metricValue(Text, "effsan_heap_frees_total"),
            Sup.pool().heap().stats().NumFrees);
  EXPECT_EQ(metricValue(Text, "effsan_service_tenants_open"), 1u);
}

TEST(ObsDifferentialTest, RingOccupancyGaugeReadsTheLastTickSample) {
  constexpr uint64_t Capacity = 64;
  constexpr uint64_t Queued = 16;
  ServiceOptions Options;
  Options.Shards = 1;
  Options.Reporter.Mode = ReportMode::Count;
  Options.ErrorRingCapacity = Capacity;
  Options.DrainIntervalMicros = 60'000'000; // Forced ticks only.
  Supervisor Sup(Options);
  TenantId T = Sup.openTenant("ring");
  ASSERT_NE(T, NoTenant);
  {
    Supervisor::Lease L = Sup.lease(T);
    ASSERT_TRUE(static_cast<bool>(L));
    TypeContext &Ctx = L->types();
    auto *P = static_cast<int *>(L->malloc(16 * sizeof(int), Ctx.getInt()));
    Bounds B = L->boundsGet(P);
    for (uint64_t I = 0; I < Queued; ++I)
      L->boundsCheck(P + 16, sizeof(int), B); // One queued event each.
    L->free(P);
  }
  ASSERT_EQ(Sup.pool().ring().capacity(), Capacity);
  ASSERT_EQ(Sup.pool().ring().size(), Queued);
  Sup.tick();

  // The tick sampled the ring before draining it; the gauge reports
  // that sample, not the empty ring the drain left behind.
  EXPECT_EQ(Sup.stats().DrainedEvents, Queued);
  EXPECT_EQ(Sup.pool().ring().size(), 0u);
  EXPECT_EQ(metricValue(Sup.metricsText(),
                        "effsan_service_ring_occupancy_percent"),
            Queued * 100 / Capacity);
}

//===----------------------------------------------------------------------===//
// The effsan_obs_* C ABI (since 1.6)
//===----------------------------------------------------------------------===//

namespace {

void appendWrite(const char *Data, size_t Len, void *UserData) {
  static_cast<std::string *>(UserData)->append(Data, Len);
}

} // namespace

TEST(ObsAbiTest, VersionAndCompiledInAgreeWithTheBuild) {
  EXPECT_GE(EFFSAN_ABI_VERSION_MINOR, 6);
  EXPECT_EQ(effsan_obs_compiled_in() != 0, obs::compiledIn());
}

TEST(ObsAbiTest, EnableReturnsThePreviousSet) {
  if (!obs::compiledIn()) {
    EXPECT_EQ(effsan_obs_enable(EFFSAN_OBS_METRICS), 0u);
    EXPECT_EQ(effsan_obs_flags(), 0u) << "no-op when compiled out";
    return;
  }
  ObsQuiesce Quiesce;
  EXPECT_EQ(effsan_obs_enable(EFFSAN_OBS_METRICS), 0u);
  EXPECT_EQ(effsan_obs_flags(), uint32_t(EFFSAN_OBS_METRICS));
  EXPECT_EQ(effsan_obs_enable(EFFSAN_OBS_TRACE | EFFSAN_OBS_PROFILE),
            uint32_t(EFFSAN_OBS_METRICS));
  EXPECT_EQ(effsan_obs_flags(),
            uint32_t(EFFSAN_OBS_TRACE | EFFSAN_OBS_PROFILE));
  EXPECT_EQ(effsan_obs_enable(0xffffffffu),
            uint32_t(EFFSAN_OBS_TRACE | EFFSAN_OBS_PROFILE));
  EXPECT_EQ(effsan_obs_flags(),
            uint32_t(EFFSAN_OBS_TRACE | EFFSAN_OBS_METRICS |
                     EFFSAN_OBS_PROFILE))
      << "unknown bits are masked off";
  effsan_obs_enable(0);
}

TEST(ObsAbiTest, TraceRoundTripThroughTheCallback) {
  if (!obs::compiledIn()) {
    EXPECT_EQ(effsan_obs_trace_start(0), 0);
    return;
  }
  ObsQuiesce Quiesce;
  ASSERT_NE(effsan_obs_trace_start(/*ring_capacity=*/0), 0);
  EXPECT_NE(effsan_obs_flags() & EFFSAN_OBS_TRACE, 0u)
      << "trace_start arms the flag itself";

  effsan_options Options;
  effsan_options_init(&Options);
  Options.log_errors = 0;
  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);
  effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);
  void *P = effsan_malloc(S, sizeof(int), IntTy);
  effsan_type_check(S, P, IntTy); // Cold cache: records a slow path.
  effsan_free(S, P);
  effsan_session_destroy(S);
  effsan_obs_trace_stop();
  EXPECT_EQ(effsan_obs_flags() & EFFSAN_OBS_TRACE, 0u);

  std::string Json;
  EXPECT_GE(effsan_obs_trace_export(appendWrite, &Json), 1u);
  EXPECT_NE(Json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(Json.find("\"check_slow_path\""), std::string::npos) << Json;
  effsan_obs_trace_dropped(); // Callable any time; value is cumulative.
}

TEST(ObsAbiTest, HotSitesResolveThroughTheSiteTable) {
  if (!obs::compiledIn()) {
    effsan_obs_site Sites[1];
    EXPECT_EQ(effsan_obs_hot_sites(nullptr, Sites, 1), 0u);
    return;
  }
  ObsQuiesce Quiesce;
  effsan_options Options;
  effsan_options_init(&Options);
  Options.log_errors = 0;
  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);
  effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);

  effsan_site_info Info[1];
  std::memset(Info, 0, sizeof(Info));
  Info[0].line = 7;
  Info[0].column = 3;
  Info[0].kind = EFFSAN_CHECK_TYPE;
  Info[0].function = "hot_loop";
  Info[0].static_type = IntTy;
  uint32_t Base = effsan_site_table_register(S, "hot.c", Info, 1);
  ASSERT_NE(Base, EFFSAN_NO_SITE);

  int *P = static_cast<int *>(effsan_malloc(S, 10 * sizeof(int), IntTy));
  effsan_obs_enable(EFFSAN_OBS_PROFILE);
  effsan_bounds B = effsan_type_check_at(S, P, IntTy, Base);
  for (int I = 0; I < 999; ++I)
    B = effsan_type_check_at(S, P, IntTy, Base);
  effsan_obs_enable(0);
  for (int I = 0; I < 3; ++I)
    effsan_bounds_check_at(S, P + 10, sizeof(int), B, Base);

  effsan_obs_site Hot[8];
  uint32_t N = effsan_obs_hot_sites(S, Hot, 8);
  ASSERT_GE(N, 1u);
  ASSERT_LE(N, 8u);
  // The registered site dominates the profile (the only other
  // candidates are allocation-path pseudo-sites).
  EXPECT_EQ(Hot[0].site, Base);
  EXPECT_GE(Hot[0].misses, 1u) << "cold-cache first check, exact";
  EXPECT_GE(Hot[0].hits, 1u) << "sampled 1-in-16, seeded at 0";
  EXPECT_EQ(Hot[0].error_events, 3u) << "joined from the reporter";
  EXPECT_STREQ(Hot[0].file, "hot.c");
  EXPECT_EQ(Hot[0].line, 7u);
  EXPECT_EQ(Hot[0].column, 3u);
  EXPECT_STREQ(Hot[0].function, "hot_loop");

  EXPECT_EQ(effsan_obs_hot_sites(S, nullptr, 8), 0u);
  EXPECT_EQ(effsan_obs_hot_sites(nullptr, Hot, 8), 0u);

  effsan_free(S, P);
  effsan_session_destroy(S);
}

TEST(ObsAbiTest, MetricsRenderProducesPrometheusText) {
  // Force the latency histograms into the global registry so the
  // render has something to say even before any check was sampled.
  // (Under EFFSAN_OBS_OFF the sampler never runs, so the registry may
  // be empty — render must still be a safe no-op.)
  obs::checkFastLatency();
  std::string Global;
  effsan_obs_metrics_render(appendWrite, &Global);
  EXPECT_NE(Global.find("# TYPE"), std::string::npos) << Global;

  effsan_service_options Opts;
  effsan_service_options_init(&Opts);
  Opts.shards = 1;
  Opts.log_errors = 0;
  Opts.drain_interval_usec = 60'000'000;
  effsan_service *Svc = effsan_service_create(&Opts);
  ASSERT_NE(Svc, nullptr);
  effsan_tenant T = effsan_service_tenant_open(Svc, "m", nullptr);
  ASSERT_NE(T, EFFSAN_NO_TENANT);

  std::string Text;
  effsan_service_metrics_render(Svc, appendWrite, &Text);
  EXPECT_EQ(metricValue(Text, "effsan_service_tenants_opened_total"), 1u);
  EXPECT_EQ(metricValue(Text, "effsan_service_tenants_open"), 1u);
  EXPECT_NE(Text.find("# TYPE effsan_service_drain_tick_duration_ticks "
                      "histogram"),
            std::string::npos);
  effsan_service_destroy(Svc);
}

TEST(ObsAbiTest, PoolHotSitesMergeAcrossShards) {
  effsan_pool_options Options;
  effsan_pool_options_init(&Options);
  Options.log_errors = 0;
  Options.shards = 2;
  effsan_pool *Pool = effsan_pool_create(&Options);
  ASSERT_NE(Pool, nullptr);

  if (!obs::compiledIn()) {
    effsan_obs_site Sites[1];
    EXPECT_EQ(effsan_pool_hot_sites(Pool, Sites, 1), 0u);
    effsan_pool_destroy(Pool);
    return;
  }
  ObsQuiesce Quiesce;

  effsan_session *S0 = effsan_pool_shard(Pool, 0);
  effsan_session *S1 = effsan_pool_shard(Pool, 1);
  effsan_type IntTy = effsan_type_primitive(S0, EFFSAN_PRIM_INT);

  // Registration through ANY shard session is pool-wide, so both
  // shards profile the same site id.
  effsan_site_info Info[1];
  std::memset(Info, 0, sizeof(Info));
  Info[0].line = 11;
  Info[0].column = 5;
  Info[0].kind = EFFSAN_CHECK_TYPE;
  Info[0].function = "shared_loop";
  Info[0].static_type = IntTy;
  uint32_t Base = effsan_site_table_register(S0, "pool.c", Info, 1);
  ASSERT_NE(Base, EFFSAN_NO_SITE);

  int *P0 = static_cast<int *>(effsan_malloc(S0, 8 * sizeof(int), IntTy));
  int *P1 = static_cast<int *>(effsan_malloc(S1, 8 * sizeof(int), IntTy));
  effsan_obs_enable(EFFSAN_OBS_PROFILE);
  effsan_bounds B0 = effsan_type_check_at(S0, P0, IntTy, Base);
  effsan_bounds B1 = effsan_type_check_at(S1, P1, IntTy, Base);
  for (int I = 0; I < 499; ++I) {
    B0 = effsan_type_check_at(S0, P0, IntTy, Base);
    B1 = effsan_type_check_at(S1, P1, IntTy, Base);
  }
  effsan_obs_enable(0);
  // Errors at the site land in the central reporter regardless of
  // which shard trips them.
  effsan_bounds_check_at(S0, P0 + 8, sizeof(int), B0, Base);
  effsan_bounds_check_at(S1, P1 + 8, sizeof(int), B1, Base);

  // Per-shard rankings see only their own shard's traffic...
  effsan_obs_site Shard0[8];
  uint32_t N0 = effsan_obs_hot_sites(S0, Shard0, 8);
  ASSERT_GE(N0, 1u);
  EXPECT_EQ(Shard0[0].site, Base);

  // ...while the pool merge sums both shards into ONE entry.
  effsan_obs_site Hot[8];
  uint32_t N = effsan_pool_hot_sites(Pool, Hot, 8);
  ASSERT_GE(N, 1u);
  ASSERT_LE(N, 8u);
  EXPECT_EQ(Hot[0].site, Base);
  EXPECT_GE(Hot[0].misses, 2u) << "both shards' cold-cache first checks";
  EXPECT_GT(Hot[0].hits + Hot[0].misses,
            Shard0[0].hits + Shard0[0].misses)
      << "the merged entry carries more traffic than any one shard";
  EXPECT_EQ(Hot[0].error_events, 2u) << "joined from the central drain";
  EXPECT_STREQ(Hot[0].file, "pool.c");
  EXPECT_EQ(Hot[0].line, 11u);
  EXPECT_EQ(Hot[0].column, 5u);
  EXPECT_STREQ(Hot[0].function, "shared_loop");

  EXPECT_EQ(effsan_pool_hot_sites(Pool, nullptr, 8), 0u);
  EXPECT_EQ(effsan_pool_hot_sites(nullptr, Hot, 8), 0u);

  effsan_free(S0, P0);
  effsan_free(S1, P1);
  effsan_pool_destroy(Pool);
}

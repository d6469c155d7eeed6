//===- bench/service_throughput.cpp - Service-mode overheads --------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// What service mode costs — and what adaptive degradation buys back.
///
/// Two measurements:
///
///  * overload — one tenant hammers the check-heavy mix (1 type_check +
///    8 bounds_checks per iteration over a periodically-recycled typed
///    allocation) far past any
///    sane per-tick budget, measured twice: governor off (the shard
///    stays on the Full policy) and governor pre-tripped (the drain
///    thread has walked the shard down Full -> BoundsOnly -> CountOnly
///    before the timer starts). The ratio is the load the governor
///    sheds for an overloaded tenant while the service keeps counting
///    its checks — the CI bench job gates it at >= 1.5x.
///
///  * churn — N worker threads each cycling open-tenant -> lease ->
///    brief typed work -> release -> close at 1/2/4/8 threads, governor
///    off and on. Exercises the whole supervisor cold path (registry
///    gate, eviction, drain-tick shard recycling) and shows that the
///    governor adds nothing measurable to it.
///
/// Usage: service_throughput [iters] [--json=FILE]
///                           [--trace=FILE] [--metrics=FILE]
///
///   iters        overload iterations (default 200000); churn runs
///                iters/100 cycles per thread. CI smoke mode passes a
///                small count so the job finishes in seconds.
///   --json=FILE  additionally emit the measurements as JSON (the
///                BENCH_service artifact; the CI bench job reads
///                .overload.speedup from it)
///   --trace=FILE run an extra observed pass (full observability on)
///                and write its Chrome trace-event JSON to FILE — load
///                it in Perfetto / chrome://tracing. The pass
///                interleaves checked work with forced drain ticks so
///                the trace carries check, alloc and service events.
///   --metrics=FILE write the observed pass's Prometheus metrics text
///                to FILE (implies the observed pass, like --trace).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "obs/Trace.h"
#include "service/Supervisor.h"

using namespace effective;
using namespace effective::service;

namespace {

ServiceOptions countingService(unsigned Shards, bool Governor) {
  ServiceOptions Options;
  Options.Shards = Shards;
  Options.Reporter.Mode = ReportMode::Count;
  Options.DrainIntervalMicros = 60'000'000; // Ticks only when forced.
  Options.EnableGovernor = Governor;
  return Options;
}

/// The check-heavy overload mix: 1 type_check + 8 bounds_checks per
/// iteration, with the working block recycled through typed
/// malloc/free every 64 iterations, all on the tenant's leased shard.
/// Allocation is deliberately amortized — degradation sheds check
/// work, not allocator work, and an overloaded sanitizer tenant is
/// check-bound (the paper's figure 8 mix runs ~10 checks per
/// allocation site visit).
uint64_t overloadWork(Sanitizer &S, const TypeInfo *IntTy, unsigned Iters) {
  uint64_t Sink = 0;
  auto *P = static_cast<int *>(S.malloc(16 * sizeof(int), IntTy));
  for (unsigned I = 0; I < Iters; ++I) {
    if ((I & 63) == 63) {
      S.free(P);
      P = static_cast<int *>(S.malloc(16 * sizeof(int), IntTy));
    }
    Bounds B = S.typeCheck(P, IntTy);
    for (unsigned K = 0; K < 8; ++K)
      S.boundsCheck(P + (K & 15), sizeof(int), B);
    P[0] = static_cast<int>(I);
    Sink += static_cast<unsigned>(P[0]);
  }
  S.free(P);
  return Sink;
}

/// Checks per second for the overload mix with the shard held at
/// \p Degrade ? CountOnly (governor-shed) : Full (governor off).
double runOverload(bool Degrade, unsigned Iters) {
  Supervisor Sup(countingService(1, Degrade));
  TenantId T = Sup.openTenant("overloaded");
  Supervisor::Lease L = Sup.lease(T);
  const TypeInfo *IntTy = L->types().getInt();

  if (Degrade) {
    // Pre-trip the governor exactly as a sustained overload would:
    // feed it pressured ticks until the ladder bottoms out. Each round
    // burns more checks than the default CheckRateHigh per-tick budget,
    // and the ticks are forced so the warm-up is deterministic.
    for (int Round = 0; Round < 8 &&
                        Sup.tenantPolicy(T) != CheckPolicy::CountOnly;
         ++Round) {
      overloadWork(L.session(), IntTy,
                   2'500'000 / 10); // > CheckRateHigh checks per tick.
      Sup.tick();
    }
    if (Sup.tenantPolicy(T) == CheckPolicy::Full) {
      std::fprintf(stderr, "service_throughput: governor never tripped\n");
      std::exit(1);
    }
  }

  uint64_t Sink = 0;
  double Secs = bench::timeSeconds(
      [&] { Sink = overloadWork(L.session(), IntTy, Iters); });
  if (Sink == uint64_t(-1))
    std::printf("impossible\n"); // Keep the sink alive.

  double ChecksPerIter = 9.0; // 1 type_check + 8 bounds_checks.
  return double(Iters) * ChecksPerIter / Secs;
}

/// One churn worker: open -> lease -> brief work -> release -> close,
/// \p Cycles times. Each worker owns one shard's worth of slots at a
/// time, so opens never fail with Shards == Threads.
void churnWorker(Supervisor &Sup, unsigned Cycles) {
  for (unsigned I = 0; I < Cycles; ++I) {
    TenantId T = Sup.openTenant("churn");
    while (T == NoTenant) { // A sibling's close is mid-recycle.
      std::this_thread::yield();
      T = Sup.openTenant("churn");
    }
    {
      Supervisor::Lease L = Sup.lease(T);
      const TypeInfo *IntTy = L->types().getInt();
      auto *P = static_cast<int *>(L->malloc(8 * sizeof(int), IntTy));
      Bounds B = L->typeCheck(P, IntTy);
      L->boundsCheck(P, sizeof(int), B);
      L->free(P);
    }
    Sup.closeTenant(T);
  }
}

double runChurn(unsigned Threads, bool Governor, unsigned Cycles) {
  // One spare shard so a close mid-recycle never starves an open.
  Supervisor Sup(countingService(Threads + 1, Governor));
  double Secs =
      bench::timeThreads(Threads, [&](unsigned) { churnWorker(Sup, Cycles); });
  return double(Threads) * Cycles / Secs;
}

/// One fully-observed pass: tracing + metrics + profiling armed, the
/// overload mix interleaved with forced drain ticks so the resulting
/// trace carries events from the check layer (slow-path misses), the
/// alloc layer (magazine refills / quarantine flushes) and the service
/// layer (drain ticks, snapshot emissions) in one timeline.
void runObserved(const char *TracePath, const char *MetricsPath,
                 unsigned Iters) {
  if (!obs::compiledIn()) {
    std::fprintf(stderr, "service_throughput: observability compiled out "
                         "(EFFSAN_OBS_OFF); --trace/--metrics skipped\n");
    return;
  }
  Supervisor Sup(countingService(1, /*Governor=*/true));
  TenantId T = Sup.openTenant("observed");
  const TypeInfo *IntTy;
  {
    Supervisor::Lease Probe = Sup.lease(T);
    IntTy = Probe->types().getInt();
  }

  obs::Tracer::instance().start();
  obs::setFlags(obs::TraceFlag | obs::MetricsFlag | obs::ProfileFlag);

  unsigned Chunk = Iters / 8 ? Iters / 8 : 1;
  uint64_t Sink = 0;
  {
    Supervisor::Lease L = Sup.lease(T);
    for (unsigned Round = 0; Round < 8; ++Round) {
      Sink += overloadWork(L.session(), IntTy, Chunk);
      // An allocation burst deep enough to turn the TLS magazine over
      // (refills + overflow flushes) and batch up quarantined frees.
      void *Blocks[512];
      for (void *&B : Blocks)
        B = L->malloc(64, IntTy);
      for (void *B : Blocks)
        L->free(B);
      Sup.tick();
    }
  }
  // Close the tenant under trace: the recycling tick records the
  // concurrent layer's session reset and the allocator's shard rewind.
  Sup.closeTenant(T);
  Sup.tick();
  if (Sink == uint64_t(-1))
    std::printf("impossible\n");

  obs::Tracer::instance().stop();

  if (TracePath) {
    std::string Json;
    uint64_t Events = obs::Tracer::instance().exportChromeJson(Json);
    if (bench::writeFile(TracePath, Json, "service_throughput"))
      std::printf("\nobserved pass: %llu trace events -> %s "
                  "(%llu dropped)\n",
                  static_cast<unsigned long long>(Events), TracePath,
                  static_cast<unsigned long long>(
                      obs::Tracer::instance().dropped()));
  }
  if (MetricsPath) {
    std::string Text = Sup.metricsText();
    if (bench::writeFile(MetricsPath, Text, "service_throughput"))
      std::printf("observed pass: metrics -> %s\n", MetricsPath);
  }
  obs::setFlags(0);
}

} // namespace

int main(int argc, char **argv) {
  unsigned Iters = 200000;
  const char *JsonPath = nullptr;
  const char *TracePath = nullptr;
  const char *MetricsPath = nullptr;
  if (!bench::parseArgs(argc, argv,
                        "[iters] [--json=FILE] [--trace=FILE] "
                        "[--metrics=FILE]",
                        &Iters, &JsonPath,
                        {{"--trace=", &TracePath},
                         {"--metrics=", &MetricsPath}}))
    return 2;
  unsigned ChurnCycles = Iters / 100 ? Iters / 100 : 1;

  bench::banner("Service mode: degradation payoff and tenant-churn overhead\n"
                "(%u overload iterations; %u hardware threads)",
                Iters, std::thread::hardware_concurrency());

  std::printf("overload mix (1 type_check + 8 bounds_checks per iter, "
              "typed realloc every 64)\n");
  double FullChecks = runOverload(/*Degrade=*/false, Iters);
  double DegradedChecks = runOverload(/*Degrade=*/true, Iters);
  std::printf("%24s %14.2f M checks/s\n", "Full (governor off)",
              FullChecks / 1e6);
  std::printf("%24s %14.2f M checks/s\n", "CountOnly (governor)",
              DegradedChecks / 1e6);
  std::printf("%24s %14.2fx   (CI gate: >= 1.5x)\n", "shed factor",
              DegradedChecks / FullChecks);
  bench::JsonWriter Json;
  Json.str("bench", "service_throughput").count("iters", Iters).host();
  Json.object("overload")
      .num("full_checks_per_sec", FullChecks, 2)
      .num("degraded_checks_per_sec", DegradedChecks, 2)
      .str("degraded_policy", "count")
      .num("speedup", DegradedChecks / FullChecks)
      .end();

  std::printf("\ntenant churn (open -> lease -> work -> release -> close "
              "cycles/s)\n");
  std::printf("%7s %16s %16s\n", "threads", "governor off", "governor on");
  Json.array("churn");
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    double PerSec[2];
    for (bool Governor : {false, true}) {
      PerSec[Governor] = runChurn(Threads, Governor, ChurnCycles);
      Json.object()
          .count("threads", Threads)
          .flag("governor", Governor)
          .num("cycles_per_sec", PerSec[Governor], 2)
          .end();
    }
    std::printf("%7u %16.0f %16.0f\n", Threads, PerSec[0], PerSec[1]);
  }
  Json.end();

  if (JsonPath && !Json.write(JsonPath, "service_throughput"))
    return 1;
  if (TracePath || MetricsPath)
    runObserved(TracePath, MetricsPath, Iters);

  std::printf("\nThe overload rows are per-shard; scaling across shards "
              "lives in bench/mt_throughput.\n");
  return 0;
}

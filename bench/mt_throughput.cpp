//===- bench/mt_throughput.cpp - Pool vs shared-session scaling -----------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Multi-threaded runtime throughput: the sharded SessionPool against a
/// single Sanitizer session shared by all threads, at 1/2/4/8 workers.
///
/// Two mixes are measured:
///
///  * alloc+check — per iteration: one typed malloc/free pair, one
///    type_check, eight bounds_checks (roughly the paper's dynamic
///    check densities). The shared session serializes allocation on one
///    size-class lock (check counters are per-thread blocks in both
///    configurations); the pool gives every thread its own sub-arena.
///
///  * report — per iteration: one out-of-bounds error event (counting
///    mode). The shared session takes the reporter mutex per event; the
///    pool pushes onto the lock-free MPSC error ring while a dedicated
///    drainer feeds the central reporter.
///
/// Expected shape on a multicore machine: pool throughput scales with
/// the thread count while the shared session flattens or regresses —
/// at 8 threads the pool should clear 3x the shared configuration on
/// the alloc+check mix. (On a single-core machine both configurations
/// time-slice and the gap shrinks to the locking overhead.)
///
/// Usage: mt_throughput [iters_per_thread] [--json=FILE]
///
///   iters_per_thread  default 300000; CI smoke mode passes a small
///                     count so the job finishes in seconds
///   --json=FILE       additionally emit the measured rows as a
///                     machine-readable JSON document (the BENCH_mt
///                     artifact the CI perf-trajectory job uploads)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "concurrent/SessionPool.h"

#include <atomic>

using namespace effective;

namespace {

concurrent::PoolOptions countingPool(unsigned Shards) {
  concurrent::PoolOptions Options;
  Options.Shards = Shards;
  Options.Reporter.Mode = ReportMode::Count;
  return Options;
}

/// One worker's share of the alloc+check mix; ~10 runtime operations
/// per iteration.
uint64_t allocCheckWorker(Sanitizer &S, const TypeInfo *IntTy,
                          unsigned Iters) {
  uint64_t Sink = 0;
  for (unsigned I = 0; I < Iters; ++I) {
    size_t Count = 8 + (I & 63); // 32..284 bytes: several size classes.
    auto *P = static_cast<int *>(S.malloc(Count * sizeof(int), IntTy));
    Bounds B = S.typeCheck(P, IntTy);
    for (unsigned K = 0; K < 8; ++K)
      S.boundsCheck(P + (K % Count), sizeof(int), B);
    P[0] = static_cast<int>(I);
    Sink += static_cast<unsigned>(P[0]);
    S.free(P);
  }
  return Sink;
}

/// One worker's share of the report mix: every iteration trips a
/// bounds_check (counting mode, so nothing is formatted or printed).
void reportWorker(Sanitizer &S, const TypeInfo *IntTy, unsigned Iters) {
  auto *P = static_cast<int *>(S.malloc(16 * sizeof(int), IntTy));
  Bounds B = S.boundsGet(P);
  for (unsigned I = 0; I < Iters; ++I)
    S.boundsCheck(P + 16 + (I & 7), sizeof(int), B); // Out of bounds.
  S.free(P);
}

struct MixResult {
  double SharedOpsPerSec = 0;
  double PoolOpsPerSec = 0;
};

MixResult runAllocCheckMix(unsigned Threads, unsigned Iters) {
  // Ten runtime operations per iteration (1 alloc, 1 free, 1 type
  // check, 8 bounds checks counts as 10ish; keep it simple and report
  // iterations — the ratio is what matters).
  const double Ops = static_cast<double>(Threads) * Iters;
  MixResult R;
  {
    // One session, all threads hammer it.
    Sanitizer S(bench::countingSession());
    const TypeInfo *IntTy = S.types().getInt();
    double Secs = bench::timeThreads(Threads, [&](unsigned) {
      allocCheckWorker(S, IntTy, Iters);
    });
    R.SharedOpsPerSec = Ops / Secs;
  }
  {
    // One pool, one shard per thread.
    concurrent::SessionPool Pool(countingPool(Threads));
    const TypeInfo *IntTy = Pool.types().getInt();
    double Secs = bench::timeThreads(Threads, [&](unsigned T) {
      allocCheckWorker(Pool.shard(T), IntTy, Iters);
    });
    R.PoolOpsPerSec = Ops / Secs;
  }
  return R;
}

MixResult runReportMix(unsigned Threads, unsigned Iters) {
  const double Ops = static_cast<double>(Threads) * Iters;
  MixResult R;
  {
    Sanitizer S(bench::countingSession());
    // Unlimited per-bucket events so every iteration exercises the
    // full locked bucketing path, like an error storm would.
    S.reporter().options().MaxReportsPerBucket = 0;
    const TypeInfo *IntTy = S.types().getInt();
    double Secs = bench::timeThreads(Threads, [&](unsigned) {
      reportWorker(S, IntTy, Iters);
    });
    R.SharedOpsPerSec = Ops / Secs;
  }
  {
    concurrent::PoolOptions Options = countingPool(Threads);
    Options.Reporter.MaxReportsPerBucket = 0;
    Options.ErrorRingCapacity = 1 << 16; // Slack for bursty producers.
    concurrent::SessionPool Pool(Options);
    const TypeInfo *IntTy = Pool.types().getInt();
    // Dedicated drainer: the MPSC consumer runs concurrently with the
    // producers, as a supervisor thread would in a server.
    std::atomic<bool> Done{false};
    std::thread Drainer([&] {
      while (!Done.load(std::memory_order_acquire)) {
        if (Pool.drain() == 0)
          std::this_thread::yield();
      }
      Pool.drain();
    });
    double Secs = bench::timeThreads(Threads, [&](unsigned T) {
      reportWorker(Pool.shard(T), IntTy, Iters);
    });
    Done.store(true, std::memory_order_release);
    Drainer.join();
    R.PoolOpsPerSec = Ops / Secs;
  }
  return R;
}

/// Prints one (mix, thread count) row and adds it to the JSON samples.
void record(const char *Mix, unsigned Threads, const MixResult &R,
            bench::JsonWriter &Json) {
  double Speedup = R.PoolOpsPerSec / R.SharedOpsPerSec;
  std::printf("%7u %14.2f %14.2f %9.2fx\n", Threads,
              R.SharedOpsPerSec / 1e6, R.PoolOpsPerSec / 1e6, Speedup);
  Json.object()
      .str("mix", Mix)
      .count("threads", Threads)
      .num("shared_ops_per_sec", R.SharedOpsPerSec, 2)
      .num("pool_ops_per_sec", R.PoolOpsPerSec, 2)
      .num("speedup", Speedup)
      .end();
}

} // namespace

int main(int argc, char **argv) {
  unsigned Iters = 300000;
  const char *JsonPath = nullptr;
  if (!bench::parseArgs(argc, argv, "[iters_per_thread] [--json=FILE]",
                        &Iters, &JsonPath))
    return 2;
  const unsigned ThreadCounts[] = {1, 2, 4, 8};
  bench::JsonWriter Json;
  Json.str("bench", "mt_throughput").count("iters_per_thread", Iters);
  Json.host().array("samples");

  bench::banner("Concurrent runtime throughput: sharded SessionPool vs one "
                "shared session\n(%u iterations/thread; %u hardware threads; "
                "M iters/s, higher is better)",
                Iters, std::thread::hardware_concurrency());

  std::printf("alloc+check mix (1 typed malloc/free + 1 type_check + 8 "
              "bounds_checks per iter)\n");
  std::printf("%7s %14s %14s %10s\n", "threads", "shared M/s", "pool M/s",
              "speedup");
  for (unsigned Threads : ThreadCounts)
    record("alloc+check", Threads, runAllocCheckMix(Threads, Iters), Json);

  std::printf("\nreport mix (1 error event per iter; pool pushes a "
              "lock-free ring, shared takes a mutex)\n");
  std::printf("%7s %14s %14s %10s\n", "threads", "shared M/s", "pool M/s",
              "speedup");
  for (unsigned Threads : ThreadCounts)
    record("report", Threads,
           runReportMix(Threads, Iters / 4 ? Iters / 4 : 1), Json);
  Json.end();
  if (JsonPath && !Json.write(JsonPath, "mt_throughput"))
    return 1;

  std::printf("\nSingle-thread per-check nanoseconds live in "
              "bench/micro_runtime and fig8_timings;\nthis bench is the "
              "scaling story.\n");
  return 0;
}

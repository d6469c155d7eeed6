//===- bench/alloc_throughput.cpp - Lock-free allocator throughput --------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Throughput of the low-fat allocator's lock-free fast path: the
/// per-thread size-class magazines, the Treiber free lists + atomic
/// bump pointers behind them, and shard work stealing.
///
/// Three mixes:
///
///  * churn-sharded — the session-pool model: NumShards == threads,
///    thread T allocates/frees on shard T with a 16-block live window
///    across several size classes. Steady state is a TLS magazine
///    pop/push: no mutex, no shared RMW beyond the stats counters.
///
///  * churn-shared  — the adversarial case: ONE shard hammered by all
///    threads. Pre-PR this serialized on the per-(class, shard) mutex;
///    now the threads share only the lock-free refill/flush paths (and
///    mostly not even those, thanks to the magazines).
///
///  * steal — a deliberately tiny arena (64 MiB regions, 4 shards)
///    where one shard exhausts its slice of a large size class: with
///    EnableWorkStealing the overflow is served from sibling slices
///    with full base(p)/size(p) fidelity and ZERO legacy fallbacks.
///
/// Each churn mix runs with magazines enabled (the default) and
/// disabled (MagazineSize = 0 — the bare lock-free path), at 1/2/4/8
/// threads. The run also reports the magazine hit rate and the
/// steal-mix fallback counts; CI gates on hit rate >= 95% and zero
/// exhaust fallbacks while stealing (see .github/workflows/ci.yml).
///
/// Usage: alloc_throughput [iters_per_thread] [--json=FILE]
///
///   iters_per_thread  default 400000; CI smoke mode passes a small
///                     count so the job finishes in seconds
///   --json=FILE       emit the measured rows + gate counters as a
///                     machine-readable JSON document (the BENCH_alloc
///                     artifact uploaded next to BENCH_micro/BENCH_mt)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "lowfat/LowFatHeap.h"

#include <cstring>

using namespace effective;
using namespace effective::lowfat;

namespace {

/// One worker's churn: a sliding window of live blocks over several
/// size classes (32..~1·5K bytes), one alloc + one free per iteration
/// in the steady state.
void churnWorker(LowFatHeap &Heap, unsigned Shard, unsigned Iters) {
  constexpr size_t Window = 16;
  void *Live[Window] = {};
  size_t Slot = 0;
  for (unsigned I = 0; I < Iters; ++I) {
    size_t Size = 32 + (I % 48) * 32; // 32..1536 B: several classes.
    void *P = Heap.allocateOnShard(Size, Shard);
    static_cast<char *>(P)[0] = static_cast<char>(I); // Touch it.
    if (Live[Slot])
      Heap.deallocate(Live[Slot]);
    Live[Slot] = P;
    Slot = (Slot + 1) % Window;
  }
  for (void *P : Live)
    if (P)
      Heap.deallocate(P);
  Heap.flushThreadCache(); // Make TLS-cached state visible to stats().
}

struct Sample {
  const char *Mix;
  const char *Config;
  unsigned Threads;
  double MopsPerSec = 0; // Million alloc+free pairs per second.
};

HeapOptions churnOptions(unsigned Shards, unsigned MagazineSize) {
  HeapOptions Options;
  Options.NumShards = Shards;
  Options.MagazineSize = MagazineSize;
  return Options;
}

Sample runChurn(const char *Mix, const char *Config, bool Sharded,
                unsigned MagazineSize, unsigned Threads, unsigned Iters,
                HeapStats *StatsOut = nullptr) {
  LowFatHeap Heap(churnOptions(Sharded ? Threads : 1, MagazineSize));
  double Secs = bench::timeThreads(Threads, [&](unsigned T) {
    churnWorker(Heap, Sharded ? T : 0, Iters);
  });
  if (StatsOut)
    *StatsOut = Heap.stats();
  Sample S{Mix, Config, Threads, 0};
  S.MopsPerSec = static_cast<double>(Threads) * Iters / Secs / 1e6;
  return S;
}

/// The steal mix: exhaust one shard's slice of the 1 MiB class in a
/// 64 MiB-region, 16-shard heap (4 blocks per slice) and keep
/// allocating — with stealing on, the overflow must come from sibling
/// slices as genuine low-fat pointers, with zero legacy fallbacks.
HeapStats runStealMix(bool Stealing, unsigned *LowFatServed) {
  HeapOptions Options;
  Options.RegionSize = 1ull << 26;
  Options.NumShards = 16;
  Options.EnableWorkStealing = Stealing;
  LowFatHeap Heap(Options);

  constexpr size_t BlockSize = 1u << 20;
  constexpr unsigned Blocks = 12; // 3 slices' worth beyond shard 0's 4.
  unsigned Served = 0;
  std::vector<void *> Ptrs;
  for (unsigned I = 0; I < Blocks; ++I) {
    void *P = Heap.allocateOnShard(BlockSize, 0);
    std::memset(P, 0x5a, 64);
    if (Heap.isLowFat(P))
      ++Served;
    Ptrs.push_back(P);
  }
  HeapStats Stats = Heap.stats();
  for (void *P : Ptrs)
    Heap.deallocate(P);
  if (LowFatServed)
    *LowFatServed = Served;
  return Stats;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Iters = 400000;
  const char *JsonPath = nullptr;
  if (!bench::parseArgs(argc, argv, "[iters_per_thread] [--json=FILE]",
                        &Iters, &JsonPath))
    return 2;

  bench::banner("Low-fat allocator throughput: TLS magazines + lock-free\n"
                "sub-arenas (%u alloc+free pairs/thread; %u hardware threads;\n"
                "M pairs/s, higher is better)",
                Iters, std::thread::hardware_concurrency());
  std::printf("%-14s %-11s %7s %14s\n", "mix", "config", "threads",
              "M pairs/s");

  const unsigned ThreadCounts[] = {1, 2, 4, 8};
  bench::JsonWriter Json;
  Json.str("bench", "alloc_throughput").count("iters_per_thread", Iters);
  Json.host().array("samples");
  HeapStats ChurnStats; // From the 8-thread sharded magazine run.
  for (bool Sharded : {true, false}) {
    const char *Mix = Sharded ? "churn-sharded" : "churn-shared";
    for (unsigned Mag : {16u, 0u}) {
      const char *Config = Mag ? "magazine" : "nomagazine";
      for (unsigned Threads : ThreadCounts) {
        bool Record = Sharded && Mag && Threads == 8;
        Sample S = runChurn(Mix, Config, Sharded, Mag, Threads, Iters,
                            Record ? &ChurnStats : nullptr);
        std::printf("%-14s %-11s %7u %14.2f\n", S.Mix, S.Config, S.Threads,
                    S.MopsPerSec);
        Json.object()
            .str("mix", S.Mix)
            .str("config", S.Config)
            .count("threads", S.Threads)
            .num("mops_per_sec", S.MopsPerSec)
            .end();
      }
    }
  }

  // Fast-path telemetry from the 8-thread sharded magazine churn.
  uint64_t LowFatAllocs =
      ChurnStats.NumAllocs - ChurnStats.NumLegacyAllocs;
  double HitRate =
      LowFatAllocs
          ? 100.0 * static_cast<double>(ChurnStats.MagazineHits) /
                static_cast<double>(LowFatAllocs)
          : 0.0;
  std::printf("\nchurn-sharded magazine telemetry (8 threads): "
              "hit rate %.2f%% (%llu hits / %llu allocs), "
              "%llu refills, %llu legacy\n",
              HitRate, (unsigned long long)ChurnStats.MagazineHits,
              (unsigned long long)LowFatAllocs,
              (unsigned long long)ChurnStats.MagazineRefills,
              (unsigned long long)ChurnStats.NumLegacyAllocs);

  unsigned StealServed = 0, NoStealServed = 0;
  HeapStats Steal = runStealMix(/*Stealing=*/true, &StealServed);
  HeapStats NoSteal = runStealMix(/*Stealing=*/false, &NoStealServed);
  std::printf("steal mix: stealing on  -> %llu steals, %llu exhaust "
              "fallbacks, %u/12 low-fat\n"
              "           stealing off -> %llu steals, %llu exhaust "
              "fallbacks, %u/12 low-fat\n",
              (unsigned long long)Steal.Steals,
              (unsigned long long)Steal.ExhaustFallbacks, StealServed,
              (unsigned long long)NoSteal.Steals,
              (unsigned long long)NoSteal.ExhaustFallbacks,
              NoStealServed);

  Json.end();
  Json.object("churn")
      .num("magazine_hit_rate_pct", HitRate, 2)
      .count("magazine_hits", ChurnStats.MagazineHits)
      .count("magazine_refills", ChurnStats.MagazineRefills)
      .count("lowfat_allocs", LowFatAllocs)
      .count("exhaust_fallbacks", ChurnStats.ExhaustFallbacks)
      .end();
  Json.object("steal")
      .count("steals", Steal.Steals)
      .count("exhaust_fallbacks", Steal.ExhaustFallbacks)
      .count("lowfat_served", StealServed)
      .count("blocks", 12)
      .count("nosteal_exhaust_fallbacks", NoSteal.ExhaustFallbacks)
      .end();
  Json.flag("mutex_free_steady_state", true);
  if (JsonPath && !Json.write(JsonPath, "alloc_throughput"))
    return 1;

  std::printf("\nmt_throughput measures the full runtime (checks + "
              "reporting) under the\nsame sharding; this bench isolates "
              "the allocator.\n");
  return 0;
}

//===- concurrent/SessionPool.cpp - Sharded sanitizer session pool --------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "concurrent/SessionPool.h"

#include "obs/Trace.h"
#include "support/UniqueStamp.h"

#include <algorithm>
#include <thread>
#include <unordered_map>

using namespace effective;
using namespace effective::concurrent;

bool SessionPool::enqueueToRing(const ErrorInfo &Info, void *UserData) {
  auto *S = static_cast<RingSink *>(UserData);
  if (EFFSAN_LIKELY(S->Ring->tryPush(Info)))
    return true;
  // Ring full: bounded retry with roughly doubling backoff first —
  // under a live drainer cells free within microseconds, so most
  // overflows clear inside the retry window and never touch a lock.
  for (unsigned Attempt = 0; Attempt < S->RetryAttempts; ++Attempt) {
    for (unsigned Spin = 0; Spin < (1u << Attempt); ++Spin)
      std::this_thread::yield();
    if (S->Ring->tryPush(Info))
      return true;
  }
  if (S->DropOnFull) {
    // Opt-in load shedding: the event is gone, but the loss is exact
    // and visible (ErrorRing::drops(), service stats, snapshots).
    S->Ring->recordDrop();
    return true;
  }
  // Default policy: report under the central lock rather than dropping
  // the event. Dedup/caps semantics are identical either way; only
  // this event pays for a mutex.
  S->Ring->recordFallback();
  S->Central->report(Info);
  return true;
}

/// The pool's heap options: one heap shard per session, Shards = 0
/// meaning one per hardware thread (the heap clamps the count).
static lowfat::HeapOptions poolHeapOptions(const PoolOptions &Options) {
  lowfat::HeapOptions Heap = Options.Heap;
  Heap.NumShards = Options.Shards
                       ? Options.Shards
                       : std::max(1u, std::thread::hardware_concurrency());
  return Heap;
}

SessionPool::SessionPool(const PoolOptions &Options)
    : SessionPool(std::make_unique<TypeContext>(), nullptr, Options) {}

SessionPool::SessionPool(TypeContext &SharedTypes,
                         const PoolOptions &Options)
    : SessionPool(nullptr, &SharedTypes, Options) {}

SessionPool::SessionPool(std::unique_ptr<TypeContext> Owned,
                         TypeContext *Shared, const PoolOptions &Options)
    : OwnedTypes(std::move(Owned)),
      Types(OwnedTypes ? OwnedTypes.get() : Shared),
      Heap(poolHeapOptions(Options)),
      Ring(Options.ErrorRingCapacity ? Options.ErrorRingCapacity
                                     : ErrorRing::DefaultCapacity),
      Central(Options.Reporter),
      Sink{&Ring, &Central, Options.RingRetryAttempts,
           Options.DropOnRingFull},
      Epoch(nextUniqueStamp()) {
  // Shard runtimes never emit through their own reporter: every event
  // is intercepted lock-free and funneled to the central drain.
  RuntimeOptions RTOpts;
  RTOpts.Reporter.Mode = ReportMode::Count;
  RTOpts.Reporter.Stream = nullptr;
  RTOpts.Reporter.Enqueue = enqueueToRing;
  RTOpts.Reporter.EnqueueUserData = &Sink;
  RTOpts.SiteCacheEntries = Options.SiteCacheEntries;
  RTOpts.SharedSites = &SiteTables;
  for (unsigned I = 0; I < Heap.numShards(); ++I) {
    Runtimes.push_back(
        std::make_unique<Runtime>(*Types, Heap, I, RTOpts));
    Shards.push_back(
        std::make_unique<Sanitizer>(*Runtimes.back(), Options.Policy));
  }
}

SessionPool::~SessionPool() { drain(); }

unsigned SessionPool::checkoutIndex() {
  // Sticky thread->shard binding, private to each thread. The map is
  // keyed by pool address so one thread can work with several pools;
  // the epoch stamp invalidates entries left behind by a destroyed
  // pool whose address was reused.
  struct Binding {
    uint64_t Epoch = 0;
    unsigned Index = 0;
  };
  thread_local std::unordered_map<const SessionPool *, Binding> Affinity;
  Binding &B = Affinity[this];
  if (B.Epoch != Epoch) {
    B.Epoch = Epoch;
    B.Index = NextShard.fetch_add(1, std::memory_order_relaxed) %
              numShards();
  }
  return B.Index;
}

size_t SessionPool::drain() { return Ring.drainTo(Central); }

CheckCounters::Snapshot SessionPool::counters() const {
  CheckCounters::Snapshot Sum;
  for (const auto &RT : Runtimes)
    Sum += RT->counters().snapshot();
  return Sum;
}

std::vector<obs::SiteProfile> SessionPool::mergedHotSites(size_t N) const {
  // Sum the per-shard direct-mapped tables by site id. The same site
  // can be claimed in several shards' tables (each shard profiles
  // independently); the merge is what makes the ranking pool-wide.
  std::unordered_map<uint32_t, obs::SiteProfile> Merged;
  for (const auto &RT : Runtimes) {
    for (const obs::SiteProfile &P : RT->profiler().collect()) {
      obs::SiteProfile &M = Merged[P.Site];
      M.Site = P.Site;
      M.Hits += P.Hits;
      M.Misses += P.Misses;
    }
  }
  std::vector<obs::SiteProfile> All;
  All.reserve(Merged.size());
  for (const auto &[Site, P] : Merged)
    All.push_back(P);
  std::sort(All.begin(), All.end(),
            [](const obs::SiteProfile &A, const obs::SiteProfile &B) {
              return A.Hits + A.Misses > B.Hits + B.Misses;
            });
  if (All.size() > N)
    All.resize(N);
  return All;
}

void SessionPool::resetShard(unsigned Index) {
  // Flush events the shard produced before its state disappears.
  drain();
  Shards[Index]->reset();
  EFFSAN_OBS_EVENT(SessionReset, Index, Index);
}

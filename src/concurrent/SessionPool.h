//===- concurrent/SessionPool.h - Sharded sanitizer session pool -*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent runtime's front door: a pool of N Sanitizer shards
/// serving N worker threads without shared locks on any hot path.
///
///   * Allocation   — each shard's Runtime owns one slice of a single
///                    shared low-fat arena (a LowFatHeap with one
///                    shard per session), so shards never contend on a
///                    heap lock while base(p)/size(p) stay O(1)
///                    arithmetic for *any* shard's pointers.
///   * Checks       — always lock-free; per-shard counters avoid the
///                    cache-line ping-pong a shared counter block
///                    suffers under concurrent mutators.
///   * Reporting    — shard runtimes push raw error events onto a
///                    lock-free MPSC ErrorRing; drain() (any single
///                    thread at a time) feeds them to one central
///                    ErrorReporter, which keeps the paper's bucketing,
///                    dedup caps and callback semantics process-wide.
///                    If the ring is momentarily full the event is
///                    reported directly to the central reporter under
///                    its lock — slower, never lost.
///
/// Typical use:
///
/// \code
///   concurrent::PoolOptions Opts;
///   Opts.Shards = NumWorkers;
///   concurrent::SessionPool Pool(Opts);
///   // worker thread:
///   Sanitizer &S = Pool.checkout();           // thread-affine shard
///   void *P = S.malloc(N * sizeof(int), IntType);
///   S.boundsCheck(..., S.typeCheck(P, IntType));
///   S.free(P);
///   // supervisor:
///   Pool.drain();                             // publish pending errors
///   Pool.counters();                          // merged shard counters
///   Pool.resetShard(I);                       // recycle between tenants
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_CONCURRENT_SESSIONPOOL_H
#define EFFECTIVE_CONCURRENT_SESSIONPOOL_H

#include "api/Sanitizer.h"
#include "concurrent/ErrorRing.h"
#include "lowfat/LowFatHeap.h"
#include "obs/SiteProfiler.h"

#include <atomic>
#include <memory>
#include <vector>

namespace effective {
namespace concurrent {

/// Construction options for a SessionPool.
struct PoolOptions {
  /// Number of shards (worker sessions); 0 = one per hardware thread,
  /// clamped to [1, lowfat::MaxHeapShards].
  unsigned Shards = 0;

  /// Check policy applied by every shard session.
  CheckPolicy Policy = CheckPolicy::Full;

  /// Configuration of the *central* reporter (mode, stream, dedup
  /// caps, abort threshold, callback). Per-shard reporters are managed
  /// by the pool and never emit on their own.
  ReporterOptions Reporter;

  /// Options for the one shared low-fat heap (NumShards is set by the
  /// pool).
  lowfat::HeapOptions Heap;

  /// Capacity of the lock-free error ring (rounded up to a power of
  /// two; 0 = ErrorRing::DefaultCapacity).
  size_t ErrorRingCapacity = 0;

  /// Per-shard type-check inline-cache entries (power of two; 0
  /// disables the fast path on every shard). Each shard runtime owns a
  /// private cache, so worker threads never share cache lines on the
  /// check hot path; resetShard() drops that shard's entries with the
  /// rest of its state.
  size_t SiteCacheEntries = 1024;

  /// Push retries (with roughly doubling backoff) before the full-ring
  /// policy below applies. Under a live drainer the ring frees cells
  /// within microseconds, so most overflows clear during the retry
  /// window without ever taking the central lock. 0 disables retrying.
  unsigned RingRetryAttempts = 3;

  /// What happens to an event the ring still refuses after the retry
  /// budget: false (default) reports it through the central reporter's
  /// lock — slower, never lost; true drops it with the loss accounted
  /// in ErrorRing::drops(), for deployments that would rather shed
  /// diagnostics than serialize erring threads under overload.
  bool DropOnRingFull = false;
};

/// A pool of sanitizer shards over one sharded heap and one central
/// error drain. Checkout, checks and allocation are safe from any
/// thread; drain() must not be called from two threads at once.
class SessionPool {
public:
  /// A pool with a private TypeContext.
  explicit SessionPool(const PoolOptions &Options = PoolOptions());

  /// A pool sharing \p SharedTypes (interned types are immutable, so
  /// any number of pools and sessions may share a context).
  SessionPool(TypeContext &SharedTypes,
              const PoolOptions &Options = PoolOptions());

  /// Drains outstanding events, then tears down shards and heap.
  ~SessionPool();

  SessionPool(const SessionPool &) = delete;
  SessionPool &operator=(const SessionPool &) = delete;

  unsigned numShards() const {
    return static_cast<unsigned>(Shards.size());
  }

  /// Shard \p Index's session (stable address for the pool's lifetime).
  Sanitizer &shard(unsigned Index) { return *Shards[Index]; }

  /// The shard index this thread is bound to — assigned round-robin on
  /// first use and sticky afterwards, so a worker always re-checks-out
  /// the shard whose sub-arena its earlier allocations live in.
  unsigned checkoutIndex();

  /// Thread-affine checkout (shard(checkoutIndex())).
  Sanitizer &checkout() { return shard(checkoutIndex()); }

  /// Pops every queued error event into the central reporter; returns
  /// the number delivered. Single drainer at a time.
  size_t drain();

  /// The central reporter (the single drain target).
  ErrorReporter &reporter() { return Central; }

  /// The pool-wide site-table registry. Every shard runtime resolves
  /// error sites against this one registry (RuntimeOptions::
  /// SharedSites), so a module registered through any shard session —
  /// or directly here — is attributed in the central drain no matter
  /// which shard tripped the error.
  SiteTableRegistry &siteTables() { return SiteTables; }

  /// Distinct issues across the whole pool (drains first so nothing
  /// queued is missed).
  uint64_t issuesFound() {
    drain();
    return Central.numIssues();
  }

  /// Merged check counters across all shards.
  CheckCounters::Snapshot counters() const;

  /// Pool-wide hot-site ranking: every shard's profiler table summed
  /// by site id (a site checked from several shards contributes ONE
  /// entry carrying pool-total hits/misses), ordered by hits+misses
  /// descending and truncated to \p N. Callers resolve the ids against
  /// siteTables() once — not per shard. Empty when profiling never ran
  /// (or observability is compiled out).
  std::vector<obs::SiteProfile> mergedHotSites(size_t N) const;

  /// The shared sharded heap: shard I is session I's slice.
  lowfat::LowFatHeap &heap() { return Heap; }

  TypeContext &types() { return *Types; }

  /// Push attempts that found the ring full (retries included).
  uint64_t ringOverflows() const { return Ring.overflows(); }

  /// Events delivered through the locked central-reporter fallback
  /// after the ring stayed full through the retry budget (no loss).
  uint64_t ringFallbacks() const { return Ring.fallbacks(); }

  /// Events dropped after the retry budget (accounted loss; only with
  /// PoolOptions::DropOnRingFull).
  uint64_t ringDrops() const { return Ring.drops(); }

  /// The pool's MPSC error ring. Exposed for a dedicated drainer (the
  /// service layer's Supervisor) that needs event-at-a-time consumption
  /// — e.g. to attribute each event to a tenant before forwarding it to
  /// the central reporter. The single-consumer contract still applies:
  /// a caller popping from the ring must be the only drainer (do not
  /// mix with concurrent drain() calls).
  ErrorRing &ring() { return Ring; }

  /// Recycles one shard between tenants: drains pending events, then
  /// resets the shard session's arena slice, counters and globals (see
  /// Runtime::reset for the contract). Other shards are unaffected —
  /// their live pointers stay valid.
  void resetShard(unsigned Index);

private:
  /// The one constructor body: types from \p Owned when non-null, else
  /// \p Shared.
  SessionPool(std::unique_ptr<TypeContext> Owned, TypeContext *Shared,
              const PoolOptions &Options);

  /// ReporterOptions::Enqueue target installed on every shard reporter.
  struct RingSink {
    ErrorRing *Ring;
    ErrorReporter *Central;
    unsigned RetryAttempts;
    bool DropOnFull;
  };
  static bool enqueueToRing(const ErrorInfo &Info, void *UserData);

  std::unique_ptr<TypeContext> OwnedTypes; ///< Null when sharing.
  TypeContext *Types;
  lowfat::LowFatHeap Heap;
  ErrorRing Ring;
  ErrorReporter Central;
  /// One site space for all shards (see siteTables()). Declared before
  /// the runtimes, which hold references into it.
  SiteTableRegistry SiteTables;
  RingSink Sink;
  std::vector<std::unique_ptr<Runtime>> Runtimes;
  std::vector<std::unique_ptr<Sanitizer>> Shards;
  std::atomic<unsigned> NextShard{0};
  /// Process-unique instance stamp: the per-thread affinity cache is
  /// keyed by pool address, and the stamp stops a new pool constructed
  /// at a dead pool's address from inheriting its thread bindings
  /// (which would silently defeat the round-robin distribution).
  uint64_t Epoch;
};

} // namespace concurrent
} // namespace effective

#endif // EFFECTIVE_CONCURRENT_SESSIONPOOL_H

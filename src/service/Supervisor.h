//===- service/Supervisor.h - Multi-tenant sanitizer supervisor -*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service layer's front door: a Supervisor owns a SessionPool and
/// turns it into a long-lived multi-tenant sanitizer service.
///
///   * Background drain — a dedicated thread is the pool ring's single
///     consumer. It wakes every DrainIntervalMicros (or on a poke),
///     pops each queued error event, attributes it to the tenant whose
///     shard slice the erring pointer lives in, forwards it to the
///     central reporter, and fires the pool-wide AbortAfter threshold.
///     Mutator threads never drain; embedders never call drain() at
///     all.
///
///   * Tenants — TenantRegistry slots bound 1:1 to pool shards. Leases
///     (RAII shard checkouts) pass the quota gate; an exhausted budget
///     refuses the lease and marks the tenant evicted, and the drain
///     thread resets the shard once the last lease returns.
///
///   * Self-healing — a watchdog thread monitors the drain thread
///     through a heartbeat generation stamp. A drain thread that died
///     (crash, induced drain-stall fault) is detected, joined, and
///     restarted — bounded by a restart budget whose exhaustion
///     escalates to the snapshot hook and latches Critical health. The
///     service-wide ServiceHealth {Healthy, Degraded, Critical} state
///     machine is driven by fault counters, restart history, and
///     governor depth.
///
///   * Adaptive degradation — each tick the drain thread samples every
///     shard's pressure (check-counter delta, allocation delta from
///     the heap stats, ring occupancy) and lets the LoadGovernor walk
///     the shard session's CheckPolicy down Full -> BoundsOnly ->
///     CountOnly and back, with hysteresis. A policy change is one
///     atomic dispatch-table swap (Sanitizer::setPolicy) — mutators
///     racing the change simply run one table or the other.
///
///   * Telemetry — stats() aggregates service-wide counters; a
///     snapshot hook receives a JSON document every N ticks.
///
/// Thread-safety: every public method is safe from any thread.
/// Destroying the Supervisor stops the drain thread, performs a final
/// drain, and tears down the pool; leases must not outlive it.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_SERVICE_SUPERVISOR_H
#define EFFECTIVE_SERVICE_SUPERVISOR_H

#include "concurrent/SessionPool.h"
#include "obs/Metrics.h"
#include "service/LoadGovernor.h"
#include "service/TenantRegistry.h"
#include "support/FieldTable.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace effective {
namespace service {

/// Construction options for a Supervisor.
struct ServiceOptions {
  /// Pool sizing and base behaviour (see concurrent::PoolOptions).
  unsigned Shards = 0;
  CheckPolicy Policy = CheckPolicy::Full;
  ReporterOptions Reporter;
  lowfat::HeapOptions Heap;
  size_t ErrorRingCapacity = 0;
  size_t SiteCacheEntries = 1024;

  /// Drain period. The drain thread also wakes immediately on poke
  /// (tick()) and at shutdown.
  uint64_t DrainIntervalMicros = 2000;

  /// Pool-wide error-event budget, enforced by the *drainer* (closing
  /// the loop the per-shard reporters cannot: a shard only sees its
  /// own events). 0 = unlimited. When the cumulative drained event
  /// count crosses the threshold, AbortHandler is invoked (or, when
  /// null, the process aborts — the paper runtime's abort-on-error
  /// contract, batched).
  uint64_t AbortAfter = 0;
  void (*AbortHandler)(uint64_t DrainedEvents, void *UserData) = nullptr;
  void *AbortUserData = nullptr;

  /// Adaptive degradation (on by default; off pins every shard to
  /// Policy).
  bool EnableGovernor = true;
  GovernorOptions Governor;

  /// JSON snapshot hook: invoked from the drain thread every
  /// SnapshotEveryTicks completed ticks (0 = never) with a document
  /// describing the service and every occupied tenant slot
  /// (docs/SERVICE.md#telemetry-schema).
  unsigned SnapshotEveryTicks = 0;
  void (*SnapshotHook)(const char *Json, void *UserData) = nullptr;
  void *SnapshotUserData = nullptr;

  /// Full-ring policy for the pool's error ring (see PoolOptions).
  unsigned RingRetryAttempts = 3;
  bool DropOnRingFull = false;

  /// Watchdog over the drain thread (on by default). The watchdog
  /// detects a dead drain thread via its heartbeat generation stamp
  /// and liveness flag, restarts it up to MaxDrainRestarts times, and
  /// drives the ServiceHealth state machine.
  bool EnableWatchdog = true;
  /// Watchdog sampling period; 0 = 4x DrainIntervalMicros.
  uint64_t WatchdogIntervalMicros = 0;
  /// Drain-thread restarts before the watchdog gives up, latches
  /// Critical health, and escalates through the snapshot hook.
  unsigned MaxDrainRestarts = 3;
};

/// Service-wide health, computed from fault counters, restart history
/// and governor depth (see Supervisor::health for the exact rules).
enum class ServiceHealth : uint8_t {
  Healthy,  ///< Steady state: no restarts, no drops, no degradation.
  Degraded, ///< Operating with reduced fidelity or after self-repair.
  Critical, ///< Latched: restart budget exhausted or abort threshold hit.
};

/// Stable lower_snake name ("healthy", "degraded", "critical").
const char *healthName(ServiceHealth H);

/// The ServiceStats field table, one row per field in member order:
///   X(Field, Type, JsonKey, AbiField, InSignature, MetricKind,
///     MetricName, Help)
/// JsonKey is the snapshot key (docs/SERVICE.md#telemetry-schema) and
/// AbiField the effsan_service_stats member. InSignature marks the
/// fields activitySignature() hashes: it leaves out the counters the
/// drainer advances on its own (ticks, snapshots, watchdog samples)
/// and the derived health, so an idle service skips snapshots.
/// MetricKind (Counter or Gauge), MetricName and Help give the row's
/// Prometheus series.
#define EFFSAN_SERVICE_STATS(X)                                                \
  /* Occupied slots (open or evicted). */                                      \
  X(TenantsOpen, uint64_t, tenants_open, tenants_open, 1, Gauge,               \
    "effsan_service_tenants_open", "Occupied tenant slots")                    \
  X(TenantsOpenedTotal, uint64_t, tenants_opened_total, tenants_opened_total,  \
    1, Counter, "effsan_service_tenants_opened_total",                         \
    "Tenant slots ever opened")                                                \
  /* Evictions (incl. explicit closes). */                                     \
  X(TenantsEvicted, uint64_t, tenants_evicted, tenants_evicted, 1, Counter,    \
    "effsan_service_tenants_evicted_total",                                    \
    "Tenant evictions, including explicit closes")                             \
  /* Slots fully recycled. */                                                  \
  X(TenantsClosed, uint64_t, tenants_closed, tenants_closed, 1, Counter,       \
    "effsan_service_tenants_closed_total", "Tenant slots fully recycled")      \
  X(LeasesGranted, uint64_t, leases_granted, checkouts_granted, 1, Counter,    \
    "effsan_service_leases_granted_total", "Shard leases granted")             \
  X(LeasesRefused, uint64_t, leases_refused, checkouts_refused, 1, Counter,    \
    "effsan_service_leases_refused_total",                                     \
    "Shard leases refused at the quota gate")                                  \
  X(DrainTicks, uint64_t, drain_ticks, drain_ticks, 0, Counter,                \
    "effsan_service_drain_ticks_total", "Drain-loop ticks completed")          \
  X(DrainedEvents, uint64_t, drained_events, drained_events, 1, Counter,       \
    "effsan_service_drained_events_total",                                     \
    "Error events drained from the pool ring")                                 \
  X(RingOverflows, uint64_t, ring_overflows, ring_overflows, 1, Counter,       \
    "effsan_service_ring_overflows_total",                                     \
    "Error-ring pushes refused because the ring was full")                     \
  X(PolicyDegrades, uint64_t, policy_degrades, policy_degrades, 1, Counter,    \
    "effsan_service_policy_degrades_total", "Governor degrade steps")          \
  X(PolicyRestores, uint64_t, policy_restores, policy_restores, 1, Counter,    \
    "effsan_service_policy_restores_total", "Governor restore steps")          \
  /* Central reporter's distinct issues. */                                    \
  X(IssuesFound, uint64_t, issues_found, issues_found, 1, Counter,             \
    "effsan_service_issues_found_total",                                       \
    "Distinct issues in the central reporter")                                 \
  X(SnapshotsEmitted, uint64_t, snapshots_emitted, snapshots_emitted, 0,       \
    Counter, "effsan_service_snapshots_emitted_total",                         \
    "Snapshot hook invocations")                                               \
  /* Snapshot cadences where the dirty flag found nothing changed              \
   * since the last emission, so the render + hook were skipped. */            \
  X(SnapshotsSkipped, uint64_t, snapshots_skipped, snapshots_skipped, 0,       \
    Counter, "effsan_service_snapshots_skipped_total",                         \
    "Snapshot cadences skipped by the dirty flag")                             \
  /* Full-ring events delivered through the locked fallback (no loss). */      \
  X(RingFallbacks, uint64_t, ring_fallbacks, ring_fallbacks, 1, Counter,       \
    "effsan_service_ring_fallbacks_total",                                     \
    "Overflowed error events delivered via the locked fallback")               \
  /* Full-ring events dropped after the retry budget (accounted loss). */      \
  X(RingDrops, uint64_t, ring_drops, ring_drops, 1, Counter,                   \
    "effsan_service_ring_drops_total",                                         \
    "Overflowed error events dropped (opt-in accounted loss)")                 \
  /* Drain-thread restarts performed by the watchdog. */                       \
  X(DrainRestarts, uint64_t, drain_restarts, drain_restarts, 1, Counter,       \
    "effsan_service_drain_restarts_total",                                     \
    "Dead drain threads restarted by the watchdog")                            \
  /* Watchdog liveness samples taken. */                                       \
  X(WatchdogChecks, uint64_t, watchdog_checks, watchdog_checks, 0, Counter,    \
    "effsan_service_watchdog_checks_total",                                    \
    "Watchdog liveness checks performed")                                      \
  /* Current service health. */                                                \
  X(Health, ServiceHealth, health, health, 0, Gauge, "effsan_service_health",  \
    "Service health state (0 healthy, 1 degraded, 2 critical)")

/// Service-wide counters (plain values; see stats()).
struct ServiceStats {
#define EFFSAN_X(Field, Type, ...) Type Field{};
  EFFSAN_SERVICE_STATS(EFFSAN_X)
#undef EFFSAN_X
};

class Supervisor {
public:
  explicit Supervisor(const ServiceOptions &Options = ServiceOptions());

  /// Stops the drain thread (final drain included) and tears down the
  /// pool. Outstanding leases must have been released.
  ~Supervisor();

  Supervisor(const Supervisor &) = delete;
  Supervisor &operator=(const Supervisor &) = delete;

  //===--------------------------------------------------------------===//
  // Tenants and leases
  //===--------------------------------------------------------------===//

  /// Opens a tenant on a free shard. Returns NoTenant when every shard
  /// is occupied.
  TenantId openTenant(std::string_view Name,
                      const TenantQuota &Quota = TenantQuota());

  /// Cooperative close: marks the tenant evicted (Explicit) and kicks
  /// a drain tick so the shard resets as soon as its last outstanding
  /// lease returns (immediately, when there is none). Returns false
  /// for a stale handle.
  bool closeTenant(TenantId Id);

  /// An RAII shard lease. Move-only; releases on destruction. Operator
  /// bool distinguishes a granted lease from a refusal.
  class Lease {
  public:
    Lease() = default;
    Lease(Lease &&O) noexcept : Owner(O.Owner), Id(O.Id), S(O.S) {
      O.Owner = nullptr;
      O.S = nullptr;
    }
    Lease &operator=(Lease &&O) noexcept {
      if (this != &O) {
        reset();
        Owner = O.Owner;
        Id = O.Id;
        S = O.S;
        O.Owner = nullptr;
        O.S = nullptr;
      }
      return *this;
    }
    ~Lease() { reset(); }

    Lease(const Lease &) = delete;
    Lease &operator=(const Lease &) = delete;

    explicit operator bool() const { return S != nullptr; }
    Sanitizer &session() { return *S; }
    Sanitizer *operator->() { return S; }

    void reset() {
      if (Owner)
        Owner->releaseLease(Id);
      Owner = nullptr;
      S = nullptr;
    }

  private:
    friend class Supervisor;
    Lease(Supervisor &Sup, TenantId Tenant, Sanitizer &Session)
        : Owner(&Sup), Id(Tenant), S(&Session) {}

    Supervisor *Owner = nullptr;
    TenantId Id = NoTenant;
    Sanitizer *S = nullptr;
  };

  /// The quota gate. Returns an empty lease when the handle is stale,
  /// the tenant is evicted, or a budget is exhausted (which evicts).
  Lease lease(TenantId Id);

  bool setQuota(TenantId Id, const TenantQuota &Quota);
  bool getQuota(TenantId Id, TenantQuota &Out) const;

  /// Live per-tenant accounting; false for a stale handle.
  bool tenantSnapshot(TenantId Id, TenantSnapshot &Out);

  /// The policy the tenant's shard currently runs (base policy
  /// possibly degraded by the governor). CheckPolicy::Off for a stale
  /// handle.
  CheckPolicy tenantPolicy(TenantId Id);

  /// The quota gate with a caller-side backoff hint: on refusal,
  /// \p RetryAfterMicros receives the suggested wait before retrying —
  /// one drain interval while the handle still names an occupied slot
  /// (an eviction/reset is in flight, or quotas may be raised), 0 when
  /// the handle is stale and retrying is pointless. On a granted lease
  /// the hint is 0.
  Lease lease(TenantId Id, uint64_t &RetryAfterMicros);

  //===--------------------------------------------------------------===//
  // Drain loop
  //===--------------------------------------------------------------===//

  /// Forces one full drain tick *starting after this call* and waits
  /// for it to complete (deterministic tests; also handy before
  /// reading stats). Returns the number of events that tick drained.
  uint64_t tick();

  void setDrainInterval(uint64_t Micros);
  uint64_t drainInterval();

  //===--------------------------------------------------------------===//
  // Introspection
  //===--------------------------------------------------------------===//

  ServiceStats stats();

  /// The service's current health (same value stats() carries, without
  /// the full stats walk): Critical once the drain-restart budget is
  /// exhausted or the abort threshold fired; Degraded while any
  /// occupied shard runs below the base policy, the drainer was ever
  /// restarted or wedged, or any error event was dropped; else Healthy.
  ServiceHealth health();

  /// The service-and-tenants JSON document the snapshot hook receives
  /// (rendered on demand here).
  std::string snapshotJson();

  /// Prometheus text exposition of the service: its counters and
  /// gauges read from stats(), the pool's check counters and the heap's
  /// stats at call time, its two histograms, then the process-global
  /// registry (check-latency histograms). The structured replacement
  /// for snapshotJson().
  std::string metricsText();

  concurrent::SessionPool &pool() { return Pool; }
  ErrorReporter &reporter() { return Pool.reporter(); }
  unsigned numShards() const { return NumShards; }

  /// Replaces the central reporter's sink (thin wrapper, like
  /// Sanitizer::setErrorCallback).
  void setErrorCallback(ErrorCallback Callback, void *UserData) {
    Pool.reporter().setCallback(Callback, UserData);
  }

  /// Installs/replaces the JSON snapshot hook at run time.
  void setSnapshotHook(void (*Hook)(const char *, void *), void *UserData,
                       unsigned EveryTicks);

private:
  friend class Lease;

  void drainLoop();
  /// The watchdog thread body: samples the drainer's liveness flag and
  /// heartbeat on its own cadence, restarts a dead drainer, and marks a
  /// wedged-but-alive one (stuck inside a tick) Degraded.
  void watchdogLoop();
  /// Joins the dead drain thread and spawns a fresh one, bounded by
  /// ServiceOptions::MaxDrainRestarts; past the budget it latches
  /// Critical and escalates once through the snapshot hook.
  void restartDrainer();
  /// One tick: drain + attribute, pending resets, governor, snapshot.
  /// Returns the events drained.
  uint64_t runTick();
  /// Pops every queued event, attributing each to the owning shard's
  /// tenant, into the central reporter. Drain thread (or dtor, after
  /// the join) only.
  uint64_t drainAttributed();
  /// Wakes the drain thread without waiting for the tick.
  void poke();
  void releaseLease(TenantId Id);
  uint64_t checkSumOf(unsigned Shard);
  /// Hash of every externally driven signal the snapshot renders
  /// (tenant/lease/error totals, per-shard check sums, heap traffic) —
  /// NOT of drainer-self-inflicted counters (tick/snapshot counts),
  /// which advance even when the service is idle. Equal signatures
  /// mean an emission would duplicate the previous document.
  uint64_t activitySignature();

  concurrent::SessionPool Pool;
  unsigned NumShards;
  CheckPolicy BasePolicy;
  TenantRegistry Tenants;
  LoadGovernor Governor;
  bool GovernorEnabled;

  uint64_t AbortAfter;
  void (*AbortHandler)(uint64_t, void *);
  void *AbortUserData;
  /// Set by the drain thread; read by health() from any thread.
  std::atomic<bool> AbortFired{false};

  /// Snapshot hook state (HookLock: replaced by API threads, read by
  /// the drainer).
  std::mutex HookLock;
  void (*SnapshotHook)(const char *, void *);
  void *SnapshotUserData;
  unsigned SnapshotEveryTicks;
  unsigned TicksSinceSnapshot = 0; ///< Drain thread only.
  /// Dirty-flag state for snapshot emission (drain thread only).
  uint64_t LastSnapshotSignature = 0;
  bool HaveSnapshotSignature = false;

  /// Per-shard previous-tick baselines for the governor's deltas
  /// (drain thread only).
  std::vector<uint64_t> LastCheckSum;
  std::vector<uint64_t> LastAllocCount;

  /// Drainer-owned counters, atomic so stats() reads them from any
  /// thread. (Tenant/lease totals live in the registry.)
  std::atomic<uint64_t> DrainTicks{0};
  std::atomic<uint64_t> DrainedEvents{0};
  std::atomic<uint64_t> PolicyDegrades{0};
  std::atomic<uint64_t> PolicyRestores{0};
  std::atomic<uint64_t> SnapshotsEmitted{0};
  std::atomic<uint64_t> SnapshotsSkipped{0};

  /// The service's histograms, observed by armed drain ticks; the
  /// ring-occupancy gauge's last tick-start sample (percent); and one
  /// bit per size class that ever had carved bytes, so a class's gauge,
  /// once rendered, stays.
  obs::MetricsRegistry Registry;
  obs::Histogram &DrainTickTicks;
  obs::Histogram &RingOccupancyPctHist;
  std::atomic<uint64_t> RingOccupancyPct{0};
  std::atomic<uint64_t> CarvedClasses{0};

  /// Drain-thread machinery. TickLock orders poke/shutdown against the
  /// loop; InTick marks the window where the thread runs a tick with
  /// the lock dropped (a tick() caller arriving then needs the *next*
  /// full tick to be sure its writes were observed).
  std::mutex TickLock;
  std::condition_variable TickCV;     ///< Wakes the drain thread.
  std::condition_variable TickDoneCV; ///< Wakes tick() waiters.
  uint64_t IntervalMicros;
  uint64_t CompletedTicks = 0;
  uint64_t LastTickEvents = 0;
  bool Poke = false;
  bool InTick = false;
  bool Stop = false;
  std::thread Drainer;

  /// Self-healing machinery. The drain thread keeps DrainerAlive true
  /// for exactly the span of drainLoop() and stamps Heartbeat once per
  /// completed tick; the watchdog samples both on its own cadence and
  /// restarts a dead drainer (bounded, then the Critical latch plus one
  /// escalation through the snapshot hook). A wedged-but-alive drainer
  /// (stuck inside one tick across several checks) is never restarted —
  /// the ring's single-consumer contract forbids a second drainer — it
  /// only degrades health.
  std::atomic<bool> DrainerAlive{false};
  std::atomic<uint64_t> Heartbeat{0};
  std::atomic<uint64_t> DrainRestarts{0};
  std::atomic<uint64_t> WatchdogChecks{0};
  std::atomic<bool> CriticalLatch{false};
  std::atomic<bool> DrainWedged{false};
  bool EscalationFired = false; ///< Watchdog thread only.
  unsigned WedgedStreak = 0;    ///< Watchdog thread only.
  uint64_t LastSeenBeat = 0;    ///< Watchdog thread only.
  /// Serializes restartDrainer() against the destructor's final join.
  std::mutex RestartLock;
  bool WatchdogEnabled;
  uint64_t WatchdogMicros;
  unsigned MaxDrainRestarts;
  std::mutex WatchdogLock;
  std::condition_variable WatchdogCV;
  bool WatchdogStop = false;
  std::thread Watchdog;
};

} // namespace service
} // namespace effective

#endif // EFFECTIVE_SERVICE_SUPERVISOR_H

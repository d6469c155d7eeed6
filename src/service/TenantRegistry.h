//===- service/TenantRegistry.h - Tenant slots, quotas, accounting -*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tenant bookkeeping for the service layer. A tenant is a metered
/// client of the Supervisor, bound 1:1 to one SessionPool shard while
/// open — the shard's arena slice, check counters and degradation
/// state ARE the tenant's, which is what makes eviction a plain
/// resetShard() and per-tenant accounting a per-shard snapshot delta.
///
/// Lifecycle:
///
///   open     -> a free shard slot is claimed; baselines are recorded
///   lease    -> quota gate; refused once a budget is exhausted
///   evict    -> over-quota (or explicit): no new leases; once the
///               last outstanding lease returns, the Supervisor's
///               drain tick resets the shard and frees the slot
///   close    -> cooperative evict with the same reset-then-free path
///
/// The registry is the cold path (open/close/evict/quota are per
/// request or rarer, never per check), so one mutex guards it; the
/// lease gate takes that mutex once per checkout.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_SERVICE_TENANTREGISTRY_H
#define EFFECTIVE_SERVICE_TENANTREGISTRY_H

#include "core/Runtime.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace effective {
namespace service {

/// Tenant handle: slot index + generation, so a handle kept past
/// close/evict can never alias the slot's next occupant.
using TenantId = uint64_t;
constexpr TenantId NoTenant = ~0ull;

/// Per-tenant budgets; 0 = unlimited. All are cumulative since open
/// except MaxAllocBytes, which meters the tenant's *live* footprint.
struct TenantQuota {
  uint64_t MaxAllocBytes = 0;
  uint64_t MaxErrorEvents = 0;
  uint64_t MaxChecks = 0;
};

enum class TenantStatus : uint8_t {
  Closed,   ///< Slot free (or handle stale).
  Open,     ///< Serving leases.
  Evicted,  ///< Over-quota or closing; refusing leases, reset pending.
};

/// Why a tenant was evicted (Evicted/Closed slots only).
enum class EvictReason : uint8_t {
  None,
  AllocBytes,
  ErrorEvents,
  Checks,
  Explicit,
};

/// A point-in-time view of one tenant's accounting (the budget inputs
/// plus lease traffic), taken under the registry lock.
struct TenantSnapshot {
  TenantStatus Status = TenantStatus::Closed;
  unsigned Shard = 0;
  TenantQuota Quota;
  EvictReason Reason = EvictReason::None;
  uint64_t Checks = 0;        ///< Cumulative since open (baseline-relative).
  uint64_t AllocBytes = 0;    ///< Live block bytes on the shard.
  uint64_t ErrorEvents = 0;   ///< Drainer-attributed error events.
  uint64_t LeasesGranted = 0;
  uint64_t LeasesRefused = 0;
  uint64_t LeasesOutstanding = 0;
  std::string Name;
};

/// The slot table. Thread-safe; every method takes the registry mutex.
/// Shard <-> slot is identity (slot I meters shard I).
class TenantRegistry {
public:
  explicit TenantRegistry(unsigned NumShards);

  /// Cumulative registry traffic (ServiceStats inputs).
  struct Totals {
    uint64_t Opened = 0;
    uint64_t Evicted = 0; ///< Quota trips + explicit closes.
    uint64_t Closed = 0;  ///< Slots fully recycled.
    uint64_t LeasesGranted = 0;
    uint64_t LeasesRefused = 0;
  };
  Totals totals() const;

  /// Claims a free slot for \p Name with \p Quota. Returns NoTenant
  /// when every shard is occupied.
  TenantId open(std::string Name, const TenantQuota &Quota);

  /// Records the shard's check-counter sum at open time (the zero
  /// point of the tenant's check budget). The Supervisor calls this
  /// right after open(), once it knows which shard was claimed.
  bool setCheckBaseline(TenantId Id, uint64_t Baseline);

  /// Marks the tenant evicted (no new leases). The slot is freed later
  /// by finishReset() once the drain thread has reset the shard.
  /// Returns false for a stale/closed handle.
  bool evict(TenantId Id, EvictReason Reason);

  /// The lease gate: checks the handle, status, and every budget
  /// against the live inputs. On success increments the outstanding-
  /// lease count and returns the shard index; on refusal returns false
  /// and (if a budget tripped) marks the tenant evicted with the
  /// matching reason. \p LiveAllocBytes and \p CheckSum are the
  /// caller-sampled shard stats (the registry stays heap-agnostic).
  bool checkout(TenantId Id, uint64_t LiveAllocBytes, uint64_t CheckSum,
                unsigned &ShardOut);

  /// Returns a lease taken with checkout().
  void release(TenantId Id);

  /// Credits one drainer-attributed error event to the tenant bound to
  /// \p Shard (if any). Returns the tenant's cumulative event count,
  /// or 0 when the shard is unbound.
  uint64_t noteErrorEvent(unsigned Shard);

  /// Slots in Evicted state with no outstanding leases — the drain
  /// thread resets these shards and then calls finishReset().
  std::vector<unsigned> shardsAwaitingReset();

  /// Completes an eviction after the shard reset: frees the slot.
  void finishReset(unsigned Shard);

  bool setQuota(TenantId Id, const TenantQuota &Quota);
  bool getQuota(TenantId Id, TenantQuota &Out) const;

  /// Live accounting for one tenant. \p LiveAllocBytes / \p CheckSum
  /// as in checkout(). Returns false for a stale handle.
  bool snapshot(TenantId Id, uint64_t LiveAllocBytes, uint64_t CheckSum,
                TenantSnapshot &Out) const;

  /// The tenant currently bound to \p Shard (NoTenant when free).
  TenantId tenantOf(unsigned Shard) const;

  /// Open + evicted (still occupying a shard) tenant count.
  unsigned occupied() const;

  /// Handles of every occupied slot, in shard order (telemetry).
  std::vector<TenantId> occupiedTenants() const;

private:
  struct Slot {
    TenantStatus Status = TenantStatus::Closed;
    EvictReason Reason = EvictReason::None;
    uint32_t Generation = 0;
    std::string Name;
    TenantQuota Quota;
    uint64_t CheckBaseline = 0;
    uint64_t ErrorEvents = 0;
    uint64_t LeasesGranted = 0;
    uint64_t LeasesRefused = 0;
    uint64_t LeasesOutstanding = 0;
  };

  TenantId idOf(unsigned Index, const Slot &S) const {
    return (static_cast<uint64_t>(S.Generation) << 32) | Index;
  }
  /// Resolves a handle to its slot; null when stale or out of range.
  Slot *resolve(TenantId Id, unsigned *IndexOut = nullptr);
  const Slot *resolve(TenantId Id, unsigned *IndexOut = nullptr) const;

  mutable std::mutex Lock;
  std::vector<Slot> Slots;
  Totals Counts;
};

} // namespace service
} // namespace effective

#endif // EFFECTIVE_SERVICE_TENANTREGISTRY_H

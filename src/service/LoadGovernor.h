//===- service/LoadGovernor.h - Adaptive per-shard policy control -*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service layer's load-shedding brain: pure decision logic that
/// consumes one pressure sample per shard per drain tick and walks the
/// shard's CheckPolicy down the degradation ladder
///
///   Full -> BoundsOnly -> CountOnly
///
/// under sustained pressure, and back up when load subsides. The paper
/// family's cost ordering makes each step a real shed: BoundsOnly
/// drops type checking and narrowing (Section 6.2's EffectiveSan-
/// bounds), CountOnly drops every probe and keeps only counters, so a
/// degraded tenant keeps its throughput while the service keeps its
/// telemetry.
///
/// The governor itself owns no threads and reads no shared state — the
/// Supervisor's drain loop samples the pool (check throughput and
/// allocation rate deltas, error-ring occupancy) and feeds it one
/// ShardSample per shard per tick. Hysteresis is consecutive-tick
/// counting: a shard must be pressured for DegradeTicks ticks in a row
/// before one downgrade step, and calm for RestoreTicks ticks in a row
/// before one upgrade step, so a bursty tenant does not flap between
/// dispatch tables.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_SERVICE_LOADGOVERNOR_H
#define EFFECTIVE_SERVICE_LOADGOVERNOR_H

#include "api/CheckPolicy.h"

#include <cstdint>
#include <vector>

namespace effective {
namespace service {

/// Tuning knobs for the governor. A tick is "pressured" when ANY
/// signal sits at or above its high-water mark, and "calm" when EVERY
/// signal sits below RestoreFraction of that mark — the gap between
/// the two thresholds is the second half of the hysteresis (the first
/// being the consecutive-tick counts).
struct GovernorOptions {
  /// Checks executed on the shard per tick that count as pressure.
  uint64_t CheckRateHigh = 2'000'000;
  /// Heap allocations on the shard per tick that count as pressure.
  uint64_t AllocRateHigh = 200'000;
  /// Pool error-ring occupancy (fraction of capacity, sampled at tick
  /// start) that counts as pressure. The ring is pool-wide, so a
  /// brimming ring pressures every shard — the drainer is the shared
  /// resource the tenants are overrunning.
  double RingOccupancyHigh = 0.5;
  /// Calm means every signal < (its high mark * RestoreFraction).
  double RestoreFraction = 0.5;
  /// Consecutive pressured ticks before one degrade step.
  unsigned DegradeTicks = 2;
  /// Consecutive calm ticks before one restore step.
  unsigned RestoreTicks = 4;
  /// Effective window (in ticks) of the EWMA applied to each pressure
  /// signal before the thresholds are evaluated: alpha = 2/(N+1), the
  /// usual span convention, seeded with the first sample. 0 or 1
  /// disables smoothing (raw per-tick deltas — the pre-EWMA
  /// behaviour). Smoothing makes short drain intervals less twitchy: a
  /// single-tick spike in an otherwise calm stream no longer resets
  /// the restore streak, and an alternating hot/cold load averages to
  /// its mean instead of flapping the ladder.
  unsigned EwmaTicks = 0;
};

/// One shard's pressure sample for one drain tick (deltas since the
/// previous tick, except the occupancy which is instantaneous).
struct ShardSample {
  uint64_t Checks = 0;
  uint64_t Allocs = 0;
  double RingOccupancy = 0.0;
};

/// The degradation ladder. Level 0 is the service's base policy; each
/// deeper level sheds more check cost. Levels past the ladder's end
/// clamp to CountOnly — the governor never turns checking fully Off
/// (the service's contract is "cheaper checks under load", not "no
/// sanitizer").
unsigned maxDegradeLevel(CheckPolicy Base);
CheckPolicy policyAtLevel(CheckPolicy Base, unsigned Level);

/// Per-shard degradation state machine. Not thread-safe: driven only
/// from the Supervisor's drain thread.
class LoadGovernor {
public:
  LoadGovernor(const GovernorOptions &Options, unsigned NumShards,
               CheckPolicy BasePolicy);

  struct Decision {
    unsigned Level;  ///< Degradation level after this tick.
    bool Degraded;   ///< This tick stepped the shard down.
    bool Restored;   ///< This tick stepped the shard up.
  };

  /// Feeds shard \p Shard's sample for the current tick and advances
  /// its state machine by at most one ladder step.
  Decision observe(unsigned Shard, const ShardSample &Sample);

  unsigned level(unsigned Shard) const { return States[Shard].Level; }
  CheckPolicy policyOf(unsigned Shard) const {
    return policyAtLevel(Base, States[Shard].Level);
  }

  /// Forgets a shard's pressure history and drops it back to the base
  /// policy (tenant eviction / close: the next tenant starts Full).
  void resetShard(unsigned Shard);

  const GovernorOptions &options() const { return Opts; }

private:
  /// A shard's signals after EWMA smoothing (== the raw sample when
  /// EwmaTicks <= 1).
  struct Smoothed {
    double Checks = 0.0;
    double Allocs = 0.0;
    double RingOccupancy = 0.0;
  };

  bool pressured(const Smoothed &S) const;
  bool calm(const Smoothed &S) const;

  struct ShardState {
    unsigned Level = 0;
    unsigned HotTicks = 0;
    unsigned CalmTicks = 0;
    /// EWMA accumulators; seeded from the first observed sample so a
    /// fresh shard does not "warm up" from zero (which would read as
    /// spuriously calm under load).
    Smoothed Avg;
    bool Seeded = false;
  };

  /// Folds \p Sample into \p St's EWMA and returns the smoothed
  /// signals the thresholds should see this tick.
  Smoothed smooth(ShardState &St, const ShardSample &Sample) const;

  GovernorOptions Opts;
  CheckPolicy Base;
  std::vector<ShardState> States;
};

} // namespace service
} // namespace effective

#endif // EFFECTIVE_SERVICE_LOADGOVERNOR_H

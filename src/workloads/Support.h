//===- workloads/Support.h - Workload helpers -------------------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for workload kernels: policy-aware allocation (typed
/// low-fat allocation under instrumented policies, plain malloc with
/// footprint accounting under the uninstrumented baseline, so Figure 9
/// compares real memory numbers), a deterministic PRNG, and the
/// checksum mixer.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_WORKLOADS_SUPPORT_H
#define EFFECTIVE_WORKLOADS_SUPPORT_H

#include "core/CheckedPtr.h"
#include "support/Hashing.h"

#include <atomic>
#include <cstdlib>
#include <malloc.h>

namespace effective {
namespace workloads {

/// Footprint accounting for the uninstrumented (plain malloc) baseline;
/// stands in for the RSS measurements of Figure 9.
class MallocTally {
public:
  static void noteAlloc(void *Ptr) {
    uint64_t Size = malloc_usable_size(Ptr);
    uint64_t Now =
        current().fetch_add(Size, std::memory_order_relaxed) + Size;
    uint64_t Prev = peak().load(std::memory_order_relaxed);
    while (Now > Prev &&
           !peak().compare_exchange_weak(Prev, Now,
                                         std::memory_order_relaxed)) {
    }
  }

  static void noteFree(void *Ptr) {
    current().fetch_sub(malloc_usable_size(Ptr),
                        std::memory_order_relaxed);
  }

  static void reset() {
    current().store(0, std::memory_order_relaxed);
    peak().store(0, std::memory_order_relaxed);
  }

  static uint64_t peakBytes() {
    return peak().load(std::memory_order_relaxed);
  }

private:
  static std::atomic<uint64_t> &current() {
    static std::atomic<uint64_t> Value{0};
    return Value;
  }
  static std::atomic<uint64_t> &peak() {
    static std::atomic<uint64_t> Value{0};
    return Value;
  }
};

/// True when the policy carries any instrumentation; seeded bug phases
/// run only then (under the uninstrumented baseline an out-of-bounds
/// write would corrupt real malloc memory).
template <typename P> constexpr bool isInstrumented() {
  return P::CheckInputs || P::CheckCasts || P::CheckBounds;
}

/// Allocates an array of \p Count objects of type \p T under policy
/// \p P: typed low-fat allocation when instrumented, plain malloc (with
/// tally) for the uninstrumented baseline.
template <typename T, typename P>
CheckedPtr<T, P> allocArray(Runtime &RT, size_t Count) {
  if constexpr (!isInstrumented<P>()) {
    T *Raw = static_cast<T *>(std::malloc(Count * sizeof(T)));
    MallocTally::noteAlloc(Raw);
    return CheckedPtr<T, P>::withBounds(Raw, detail::NoBounds());
  } else {
    return allocateChecked<T, P>(RT, Count);
  }
}

/// Allocates a single object.
template <typename T, typename P> CheckedPtr<T, P> allocOne(Runtime &RT) {
  return allocArray<T, P>(RT, 1);
}

/// Frees an allocation made by allocArray/allocOne.
template <typename T, typename P>
void freeArray(Runtime &RT, CheckedPtr<T, P> Ptr) {
  if constexpr (!isInstrumented<P>()) {
    if (Ptr.raw()) {
      MallocTally::noteFree(Ptr.raw());
      std::free(Ptr.raw());
    }
  } else {
    RT.deallocate(Ptr.raw());
  }
}

/// Models a pointer crossing a function-call boundary (Figure 3 rules
/// (g) then (a)): the caller's escaping pointer is re-checked by the
/// callee against its declared parameter type. Kernels call this at the
/// top of each phase that a real program would structure as a separate
/// function, so the Full variant performs a type_check per call and the
/// -bounds variant a bounds_get, exactly as the instrumented binaries
/// in Section 6 do.
template <typename T, typename P>
CheckedPtr<T, P> enterFunction(CheckedPtr<T, P> Ptr) {
  if constexpr (isInstrumented<P>())
    return CheckedPtr<T, P>::input(Ptr.escape());
  else
    return Ptr;
}

/// Deterministic xorshift PRNG (all workloads must behave identically
/// across policies and runs).
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed ? Seed : 0x9e3779b9) {}

  uint64_t next() {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return State;
  }

  /// Uniform value in [0, Bound).
  uint64_t next(uint64_t Bound) { return next() % Bound; }

  double nextDouble() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

private:
  uint64_t State;
};

/// Accumulates a workload checksum.
inline uint64_t mixChecksum(uint64_t Acc, uint64_t Value) {
  return hashCombine(Acc, Value);
}

} // namespace workloads
} // namespace effective

#endif // EFFECTIVE_WORKLOADS_SUPPORT_H

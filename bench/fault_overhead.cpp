//===- bench/fault_overhead.cpp - Fault-injection hot-path overhead -------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// What the resilience layer's fault points cost on the hot paths they
/// are compiled into (allocator bump/refill/quarantine, ring push,
/// site registration): the SPEC mix (bench/BenchUtil.h) with the
/// fault registry disarmed (one relaxed load per point — the shipped
/// default) and armed with every point Off (the worst case short of
/// firing: each point consults its per-point mode atomically and
/// counts the evaluation).
///
/// The contract this bench gates (docs/RESILIENCE.md#overhead):
/// disarmed fault points cost <= 1% on the check-bound mix (the armed
/// figure bounds it from above), and an EFFSAN_FAULT_OFF build costs
/// nothing at all — the macro is a compile-time false, both passes run
/// identical code, and the JSON reports compiled_out so CI knows not
/// to read an overhead into the noise.
///
/// Usage: fault_overhead [--json=FILE]
///
///   --json=FILE  emit the measurements as JSON (the BENCH_fault
///                artifact; the CI bench job gates .overhead_pct)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "resilience/Fault.h"

using namespace effective;

int main(int argc, char **argv) {
  resilience::FaultRegistry &Faults = resilience::FaultRegistry::instance();
  Faults.disarm();
  bool Vacuous = false;
  return bench::runArmedOverhead(
      argc, argv,
      {"fault_overhead",
       "Fault-point overhead: SPEC mix, disarmed vs armed-never-firing",
       "fault", 1, resilience::compiledIn() ? nullptr : "EFFSAN_FAULT_OFF"},
      [&] { Faults.arm(/*Seed=*/1234); }, // Every point stays Off.
      [&] {
        uint64_t Evals = 0;
        for (unsigned P = 0; P < resilience::NumFaultPointValues; ++P)
          Evals += Faults.evaluations(static_cast<resilience::FaultPoint>(P));
        Vacuous |= Evals == 0;
        Faults.disarm();
      },
      [&](bench::JsonWriter &) {
        if (!resilience::compiledIn() || !Vacuous)
          return true;
        std::fprintf(stderr, "fault_overhead: an armed round evaluated no "
                             "fault points — the measurement is vacuous\n");
        return false;
      });
}

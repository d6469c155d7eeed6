//===- bench/obs_overhead.cpp - Observability hot-path overhead -----------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// What arming the observability layer costs on the check hot path:
/// the SPEC mix (bench/BenchUtil.h) with observability disarmed
/// (flags clear — the shipped default) and armed (tracing + metrics +
/// profiling all on: every type check pays the decimation test, every
/// 1024th check runs timed, every 16th cache hit bumps a profiler
/// slot, and allocator slow paths record trace events).
///
/// The contract this bench gates (docs/OBSERVABILITY.md#overhead):
/// armed observability costs <= 3% on the check-bound mix, and an
/// EFFSAN_OBS_OFF build costs nothing at all (the flag accessors are
/// constant false, so both passes here run identical code — the JSON
/// reports compiled_out so CI knows not to read an overhead into the
/// noise).
///
/// Usage: obs_overhead [--json=FILE]
///
///   --json=FILE  emit the measurements as JSON (the BENCH_obs
///                artifact; the CI bench job gates .overhead_pct)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "obs/Trace.h"

using namespace effective;

int main(int argc, char **argv) {
  // The rings are set up once and drained after every armed round, so
  // neither ring allocation nor a full ring lands in a timed round.
  obs::Tracer &Tracer = obs::Tracer::instance();
  Tracer.start();
  obs::setFlags(0);
  return bench::runArmedOverhead(
      argc, argv,
      {"obs_overhead", "Observability overhead: SPEC mix, disarmed vs armed",
       "obs", 3, obs::compiledIn() ? nullptr : "EFFSAN_OBS_OFF"},
      [] {
        obs::setFlags(obs::TraceFlag | obs::MetricsFlag | obs::ProfileFlag);
      },
      [&] {
        obs::setFlags(0);
        Tracer.collect();
      },
      [&](bench::JsonWriter &Json) {
        std::printf("%18s %14llu collected, %llu dropped\n", "trace events",
                    static_cast<unsigned long long>(Tracer.collectedSize()),
                    static_cast<unsigned long long>(Tracer.dropped()));
        Json.count("events_collected", Tracer.collectedSize())
            .count("events_dropped", Tracer.dropped());
        return true;
      });
}

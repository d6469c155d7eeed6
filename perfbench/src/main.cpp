//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Usage: perfbench --workload spec|spec_mt|minic|service --seed N
///                  --seconds S [--trace 0|1] [--trace-out FILE]
///
/// Prints an environment line and then one JSON line with the operation
/// counts and the metric values (units live in BENCHMARK.json; run.py
/// attaches them). A traced run also writes a Chrome trace to FILE.
///
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload spec|spec_mt|minic|service "
               "--seed N --seconds S [--trace 0|1] [--trace-out FILE]\n");
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    if (I + 1 >= Argc)
      usage();
    const char *Flag = Argv[I];
    const char *Value = Argv[++I];
    char *End = nullptr;
    if (!std::strcmp(Flag, "--workload"))
      A.Workload = Value;
    else if (!std::strcmp(Flag, "--seed"))
      A.Seed = std::strtoull(Value, &End, 10);
    else if (!std::strcmp(Flag, "--seconds"))
      A.Seconds = std::strtod(Value, &End);
    else if (!std::strcmp(Flag, "--trace"))
      A.Trace = std::strtoul(Value, &End, 10) != 0;
    else if (!std::strcmp(Flag, "--trace-out"))
      A.TraceOut = Value;
    else
      usage();
    if (End && *End)
      usage();
  }
  if (A.Workload.empty() || !(A.Seconds > 0) ||
      (A.Trace && A.TraceOut.empty()))
    usage();
  return A;
}

std::string metricsJson(Result &R) {
  std::string Out = "{";
  char Buf[64];
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    double V = R.Metrics[I].second;
    if (!std::isfinite(V)) {
      R.fail("metric %s is not finite", R.Metrics[I].first.c_str());
      V = 0;
    }
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Out += (I ? ", \"" : "\"") + R.Metrics[I].first + "\": " + Buf;
  }
  return Out + "}";
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  requireQuietRuntime();

  Result R;
  if (A.Workload == "spec")
    R = runSpec(A, /*Threaded=*/false);
  else if (A.Workload == "spec_mt")
    R = runSpec(A, /*Threaded=*/true);
  else if (A.Workload == "minic")
    R = runMinic(A);
  else if (A.Workload == "service")
    R = runService(A);
  else
    usage();

  // Every workload's process runs only that workload, so the peak is
  // the workload's own footprint.
  if (!A.Trace)
    R.set("peak_rss_mb", peakRssMB());

  std::string Metrics = metricsJson(R);
  std::string Env = environmentJson(A);
  if (A.Trace) {
    char Counts[96];
    std::snprintf(Counts, sizeof(Counts),
                  "\"attempted\": %llu, \"failed\": %llu",
                  (unsigned long long)R.Attempted,
                  (unsigned long long)R.Failed);
    std::string Other = "{\"env\": " + Env + ", " + Counts +
                        ", \"metrics\": " + Metrics + "}";
    if (!Tracer::instance().write(A.TraceOut, Other)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   A.TraceOut.c_str());
      return 1;
    }
  }
  std::printf("{\"env\": %s, \"rounds\": %llu}\n", Env.c_str(),
              (unsigned long long)R.Rounds);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              R.Failed ? "false" : "true", (unsigned long long)R.Attempted,
              (unsigned long long)R.Failed, Metrics.c_str());
  return 0;
}

//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every perfbench workload shares: command-line arguments, the
/// seeded generator, the time-boxed round loop, order statistics, and
/// the Result a workload hands back to main() for printing.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  /// Measuring budget. Rounds of fixed work repeat until it is spent.
  double Seconds = 10;
  /// Traced run: per-layer metrics and a Chrome trace instead of the
  /// end-to-end metrics.
  bool Trace = false;
  std::string TraceOut;
};

/// splitmix64: small, seedable, identical on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi].
  uint64_t range(uint64_t Lo, uint64_t Hi) {
    return Lo + next() % (Hi - Lo + 1);
  }

private:
  uint64_t State;
};

double median(std::vector<double> Values);
/// Nearest-rank percentile, \p P in [0, 100].
double percentile(std::vector<double> Values, double P);
double geomean(const std::vector<double> &Values);

/// What a workload measured. Metric units are fixed by BENCHMARK.json;
/// the workload only supplies names and values.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Untraced rounds measured: the sample count behind every median.
  uint64_t Rounds = 0;
  std::vector<std::pair<std::string, double>> Metrics;

  void set(std::string Name, double Value) {
    Metrics.emplace_back(std::move(Name), Value);
  }
  /// Records one failed operation with its reason on stderr.
  void fail(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));
};

/// The first set-up samples, taken before anything else runs. Workloads
/// add one more after every untraced round, so the reported median
/// follows the machine over the whole run instead of its first moments.
template <typename Fn> std::vector<double> initialSetups(Fn &&SetUp) {
  std::vector<double> Samples;
  for (unsigned I = 0; I < 9; ++I)
    Samples.push_back(SetUp());
  return Samples;
}

/// Runs \p Round (taking the round index) until \p Seconds have elapsed
/// and at least \p MinRounds rounds have completed. Every round does
/// the same committed work; only the number of rounds depends on speed.
template <typename Fn>
unsigned runRounds(double Seconds, unsigned MinRounds, Fn &&Round) {
  Clock::time_point Start = Clock::now();
  unsigned N = 0;
  while (N < MinRounds || secondsSince(Start) < Seconds)
    Round(N++);
  return N;
}

/// Seconds one fixed reference computation takes: branchy,
/// allocation-heavy code that never calls the repository, so dividing a
/// pass's time by it cancels the machine's speed drift but not a change
/// in the code under test.
double referenceSeconds();

/// The thread count of the multi-threaded workloads: one core is left
/// for the service drainer and the coordinating thread.
unsigned workerThreads();

/// Peak resident set size of this process image, in MB (0 when
/// /proc is unavailable).
double peakRssMB();

/// Refuses to measure when an ambient knob would change what is timed:
/// observability flags set, a fault point armed (EFFSAN_FAULTS), or a
/// build with either layer compiled differently. Exits with code 3.
void requireQuietRuntime();

/// The environment line printed with every result: build type,
/// compiler, nproc, seed, workload.
std::string environmentJson(const Args &A);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H

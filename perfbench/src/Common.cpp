//===- perfbench/src/Common.cpp - Shared benchmark plumbing ---------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "obs/Trace.h"
#include "resilience/Fault.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

/// Keeps the reference computation's result observable.
static volatile uint64_t ReferenceSink;

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  size_t Mid = Values.size() / 2;
  std::nth_element(Values.begin(), Values.begin() + Mid, Values.end());
  double Hi = Values[Mid];
  if (Values.size() % 2)
    return Hi;
  double Lo = *std::max_element(Values.begin(), Values.begin() + Mid);
  return (Lo + Hi) / 2;
}

double perfbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * Values.size()));
  return Values[std::clamp<size_t>(Rank, 1, Values.size()) - 1];
}

double perfbench::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / Values.size());
}

void Result::fail(const char *Fmt, ...) {
  // The first failures explain the problem; a systematic one would
  // otherwise print once per operation.
  constexpr uint64_t MaxPrinted = 20;
  if (++Failed > MaxPrinted)
    return;
  std::fputs("perfbench: FAILED: ", stderr);
  va_list Ap;
  va_start(Ap, Fmt);
  std::vfprintf(stderr, Fmt, Ap);
  va_end(Ap);
  std::fputc('\n', stderr);
}

double perfbench::referenceSeconds() {
  // Branchy, allocation-heavy work of the same character as compiling
  // and interpreting: sort a fixed random array, build and probe an
  // ordered map.
  Clock::time_point Start = Clock::now();
  Rng R(0x7e57);
  std::vector<uint32_t> V(1u << 13);
  for (uint32_t &X : V)
    X = uint32_t(R.next());
  std::sort(V.begin(), V.end());
  std::map<uint32_t, uint32_t> M;
  for (uint32_t I = 0; I < (1u << 11); ++I)
    M[V[(I * 2654435761u) & (V.size() - 1)]] = I;
  uint64_t Acc = 0;
  for (uint32_t I = 0; I < (1u << 12); ++I) {
    auto It = M.lower_bound(uint32_t(R.next()));
    Acc += It == M.end() ? 0 : It->second;
  }
  ReferenceSink = Acc;
  return secondsSince(Start);
}

unsigned perfbench::workerThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return std::clamp(N > 1 ? N - 1 : 1u, 2u, 3u);
}

double perfbench::peakRssMB() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak whenever
  // that exceeds this one's.
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  double KiB = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %lf kB", &KiB) == 1)
      break;
  std::fclose(F);
  return KiB / 1024.0;
}

void perfbench::requireQuietRuntime() {
  const char *Why = nullptr;
  if (std::getenv("EFFSAN_FAULTS"))
    Why = "EFFSAN_FAULTS is set; fault injection would change the timings";
  else if (effective::resilience::faultsArmed())
    Why = "a fault point is armed";
  else if (effective::obs::flags() != 0)
    Why = "observability flags are set";
  else if (!effective::obs::compiledIn() ||
           !effective::resilience::compiledIn())
    Why = "built with EFFSAN_OBS_OFF or EFFSAN_FAULT_OFF; the benchmark "
          "measures the default build";
  if (!Why)
    return;
  std::fprintf(stderr, "perfbench: refusing to measure: %s\n", Why);
  std::exit(3);
}

std::string perfbench::environmentJson(const Args &A) {
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "{\"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"nproc\": %u, \"threads\": %u, \"seed\": %llu, "
                "\"workload\": \"%s\", \"seconds\": %g, \"trace\": %s}",
                PERFBENCH_BUILD_TYPE, __VERSION__,
                std::thread::hardware_concurrency(), workerThreads(),
                (unsigned long long)A.Seed, A.Workload.c_str(), A.Seconds,
                A.Trace ? "true" : "false");
  return Buf;
}

//===- bench/BenchUtil.h - Shared bench timing, pairing, JSON ---*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every bench/ binary that times by hand shares: the clock,
/// calibration of repetitions to a minimum time per timed cell,
/// order-alternating paired ratios with their median, quartiles and
/// geometric mean, the `[N] --json=FILE` command line, a small JSON
/// object writer, and the paired disarmed-vs-armed SPEC-mix
/// measurement the overhead benches gate.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_BENCH_BENCHUTIL_H
#define EFFECTIVE_BENCH_BENCHUTIL_H

#include "core/Effective.h"
#include "support/StringUtils.h"
#include "workloads/Harness.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace effective {
namespace bench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Wall seconds of one call of \p Body.
template <typename Fn> double timeSeconds(Fn &&Body) {
  Clock::time_point Start = Clock::now();
  Body();
  return secondsSince(Start);
}

/// Wall seconds for \p Threads threads each running `Body(ThreadIndex)`,
/// from the first spawn to the last join.
template <typename Fn> double timeThreads(unsigned Threads, Fn &&Body) {
  return timeSeconds([&] {
    std::vector<std::thread> Workers;
    Workers.reserve(Threads);
    for (unsigned T = 0; T < Threads; ++T)
      Workers.emplace_back([&Body, T] { Body(T); });
    for (std::thread &W : Workers)
      W.join();
  });
}

/// The repetition count at which one timed cell lasts at least
/// \p MinSeconds. `Cell(Reps)` runs the work \p Reps times and returns
/// the seconds that took. Trials start at \p Reps; each that falls
/// short grows the count toward 1.25x the minimum (at most tenfold a
/// step, so one timer-resolution trial cannot overshoot wildly), and
/// the first trial that reaches the minimum fixes the count.
template <typename Fn>
unsigned calibrateReps(double MinSeconds, Fn &&Cell, unsigned Reps = 1) {
  for (;;) {
    double Secs = Cell(Reps);
    if (Secs >= MinSeconds)
      return Reps;
    double Grow = Secs > 0 ? 1.25 * MinSeconds / Secs : 10.0;
    Reps = static_cast<unsigned>(std::ceil(Reps * std::min(Grow, 10.0)));
  }
}

/// A timed Figure 8/10 cell of \p W under \p V (a fresh session per
/// run, kernel time only): each call returns seconds per run over runs
/// lasting at least \p MinSeconds together. Every call recalibrates
/// from the last count and times the trial that reaches the minimum,
/// because the first calibration runs cold and a later, warm cell at
/// that count could fall short.
inline auto workloadCell(const workloads::Workload &W, Variant V,
                         unsigned Scale, double MinSeconds) {
  return [&W, V, Scale, MinSeconds, Reps = 1u]() mutable {
    double Secs = 0;
    auto Trial = [&](unsigned N) {
      Secs = 0;
      for (unsigned I = 0; I < N; ++I)
        Secs += workloads::runWorkload(W, V, Scale).Seconds;
      return Secs;
    };
    Reps = calibrateReps(MinSeconds, Trial, Reps);
    return Secs / Reps;
  };
}

/// The \p Q quantile (0..1) of non-empty \p Values, interpolating linearly
/// between order statistics (numpy's default), so the median of an
/// even count is the mean of the middle two.
inline double quantile(std::vector<double> Values, double Q) {
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] +
         (Pos - static_cast<double>(Lo)) * (Values[Hi] - Values[Lo]);
}

inline double median(const std::vector<double> &Values) {
  return quantile(Values, 0.5);
}

inline double geomean(const std::vector<double> &Values) {
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

/// Median and quartiles of a sample.
struct Summary {
  double Q1 = 0, Median = 0, Q3 = 0;
  double iqr() const { return Q3 - Q1; }
};

inline Summary summarize(const std::vector<double> &Values) {
  return Summary{quantile(Values, 0.25), quantile(Values, 0.5),
                 quantile(Values, 0.75)};
}

/// Both sides of a paired measurement, one entry per pair.
struct Paired {
  std::vector<double> A, B;
  /// B / A per pair.
  std::vector<double> Ratios;
};

/// Runs \p Pairs pairs of \p RunA and \p RunB, each of which times one
/// cell and returns its seconds. A pair sums \p Rounds cells of each
/// side, run back to back A/B, and the side that goes first flips
/// every round, so drift, or a cost that falls on whichever side runs
/// second, lands on both sides alike and drops out of the ratio.
template <typename FnA, typename FnB>
Paired runPaired(unsigned Pairs, FnA &&RunA, FnB &&RunB,
                 unsigned Rounds = 1) {
  Paired P;
  for (unsigned I = 0; I < Pairs; ++I) {
    double A = 0, B = 0;
    for (unsigned R = 0; R < Rounds; ++R) {
      if ((I * Rounds + R) % 2 == 0) {
        A += RunA();
        B += RunB();
      } else {
        B += RunB();
        A += RunA();
      }
    }
    P.A.push_back(A);
    P.B.push_back(B);
    P.Ratios.push_back(B / A);
  }
  return P;
}

/// One `--NAME=VALUE` option a bench takes besides `--json=FILE`.
struct Flag {
  const char *Prefix; ///< Including the '=', e.g. "--trace=".
  const char **Value;
};

/// Parses the shared bench command line: an optional positional count
/// into \p *N (0 reads as 1), `--json=FILE` into \p *Json, and each of
/// \p Flags; a bench without a count or JSON output passes null. On
/// any other argument prints \p Usage to stderr and returns false.
inline bool parseArgs(int Argc, char **Argv, const char *Usage, unsigned *N,
                      const char **Json,
                      std::initializer_list<Flag> Flags = {}) {
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    auto Take = [&](std::string_view Prefix, const char **Value) {
      if (!Value || !startsWith(Arg, Prefix))
        return false;
      *Value = Argv[I] + Prefix.size();
      return true;
    };
    if (Take("--json=", Json) ||
        std::any_of(Flags.begin(), Flags.end(),
                    [&](Flag F) { return Take(F.Prefix, F.Value); }))
      continue;
    char *End = nullptr;
    unsigned long Count = std::strtoul(Argv[I], &End, 10);
    if (!N || Arg.empty() || *End != '\0' || Count > UINT_MAX) {
      std::fprintf(stderr, "usage: %s %s\n", Argv[0], Usage);
      return false;
    }
    *N = Count ? static_cast<unsigned>(Count) : 1;
  }
  return true;
}

/// Prints a bench's title block: \p Fmt (printf-style) between rules.
__attribute__((format(printf, 1, 2))) inline void banner(const char *Fmt,
                                                         ...) {
  const char *Rule = "================================================"
                     "========================";
  std::va_list Args;
  va_start(Args, Fmt);
  std::string Title = formatStringV(Fmt, Args);
  va_end(Args);
  std::printf("%s\n%s\n%s\n\n", Rule, Title.c_str(), Rule);
}

/// Writes \p Data to \p Path; on failure says so on stderr, naming
/// \p Bench, and returns false.
inline bool writeFile(const char *Path, std::string_view Data,
                      const char *Bench) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "%s: cannot write %s\n", Bench, Path);
    return false;
  }
  bool Ok = std::fwrite(Data.data(), 1, Data.size(), F) == Data.size();
  return std::fclose(F) == 0 && Ok;
}

/// A JSON document built as one object: members are written in call
/// order, nested objects and arrays open with object()/array() and close
/// with end(). Inside an array, object() takes no key.
class JsonWriter {
public:
  JsonWriter &num(const char *Key, double V, int Precision = 3) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.*f", Precision, V);
    return raw(Key, std::isfinite(V) ? Buf : "null");
  }
  JsonWriter &count(const char *Key, uint64_t V) {
    return raw(Key, std::to_string(V));
  }
  JsonWriter &flag(const char *Key, bool V) {
    return raw(Key, V ? "true" : "false");
  }
  JsonWriter &str(const char *Key, std::string_view V) {
    raw(Key, "\"").Out.append(jsonEscape(V)).append(1, '"');
    return *this;
  }
  JsonWriter &object(const char *Key = nullptr) { return open(Key, '{', '}'); }
  JsonWriter &array(const char *Key) { return open(Key, '[', ']'); }
  JsonWriter &end() {
    if (HasMembers) // Empty containers close on the same line.
      newline(Closers.size());
    Out += Closers.back();
    Closers.pop_back();
    HasMembers = true;
    return *this;
  }

  /// The host a sample was measured on: hardware threads and compiler.
  JsonWriter &host() {
    count("hardware_threads", std::thread::hardware_concurrency());
#ifdef __clang__
    return str("compiler", __VERSION__); // Names clang itself.
#else
    return str("compiler", "gcc " __VERSION__);
#endif
  }

  /// The finished document; every object() and array() must be end()ed.
  std::string text() const { return Out + "\n}\n"; }

  bool write(const char *Path, const char *Bench) const {
    return writeFile(Path, text(), Bench);
  }

private:
  void newline(size_t Depth) { Out.append("\n").append(2 * Depth, ' '); }

  JsonWriter &raw(const char *Key, std::string_view Value) {
    if (HasMembers)
      Out += ',';
    newline(Closers.size() + 1);
    if (Key)
      Out.append("\"").append(jsonEscape(Key)).append("\": ");
    Out += Value;
    HasMembers = true;
    return *this;
  }

  JsonWriter &open(const char *Key, char Opener, char Closer) {
    raw(Key, std::string_view(&Opener, 1));
    Closers.push_back(Closer);
    HasMembers = false;
    return *this;
  }

  std::string Out = "{";
  /// The closers of the open objects and arrays, outermost first (the
  /// document's own brace excluded).
  std::string Closers;
  /// Whether the innermost open container has a member yet.
  bool HasMembers = false;
};

/// Session options for a measured run: errors are counted, never
/// formatted or printed.
inline SessionOptions countingSession() {
  SessionOptions Options;
  Options.Reporter.Mode = ReportMode::Count;
  return Options;
}

/// What one overhead bench names and gates.
struct ArmedLayer {
  const char *Bench;    ///< Binary name, e.g. "obs_overhead".
  const char *Title;    ///< Banner line naming both sides.
  const char *Key;      ///< Row label and JSON key prefix, e.g. "obs".
  double GatePct;       ///< The CI gate on overhead_pct.
  /// The compile-out option when this build has the layer compiled
  /// out (e.g. "EFFSAN_OBS_OFF"), else null.
  const char *CompiledOut;
};

/// The one measurement behind obs_overhead and fault_overhead: the
/// full SPEC workload mix (all 19 stand-in kernels under the Full
/// policy), timed over one counting session with a runtime layer
/// disarmed and armed. A pass repeats the mix for as many rounds as
/// calibration says take at least 0.5 s; seven disarmed/armed pairs of
/// passes are timed, each pair interleaving its two passes round by
/// round, and the overhead is the median of the per-pair time ratios.
/// Interleaving cancels the drift in host speed (frequency scaling,
/// noisy neighbours) that moves whole passes by tens of percent on a
/// shared runner; the median discards outlier pairs; the quartiles
/// tell a gate miss from noise.
///
/// The whole of an overhead bench: parses `[--json=FILE]`, measures the
/// mix with `Arm()` called before and `Disarm()` after each armed round,
/// prints the rows, and writes the JSON — `reps` (mix rounds per pass),
/// `compiled_out`, each side's fastest-pass checks per second,
/// `overhead_pct` (median) and `overhead_iqr_pct`, then whatever
/// `Finish(Json)` adds. Returns the exit code; `Finish` returning false
/// fails the run.
template <typename ArmFn, typename DisarmFn, typename FinishFn>
int runArmedOverhead(int Argc, char **Argv, const ArmedLayer &L,
                     ArmFn &&Arm, DisarmFn &&Disarm, FinishFn &&Finish) {
  constexpr double MinPassSeconds = 0.5;
  constexpr unsigned Pairs = 7;
  const char *JsonPath = nullptr;
  if (!parseArgs(Argc, Argv, "[--json=FILE]", nullptr, &JsonPath))
    return 2;

  std::string CompiledIn =
      L.CompiledOut ? formatString("no (%s - both passes run identical code)",
                                   L.CompiledOut)
                    : "yes";
  banner("%s (passes >= %.1f s, median of %u pairs)\ncompiled in: %s",
         L.Title, MinPassSeconds, Pairs, CompiledIn.c_str());

  Sanitizer Session(TypeContext::global(), countingSession());
  SanitizerScope Scope(Session);
  Runtime &RT = Session.runtime();

  uint64_t Sink = 0, Checks = 0;
  auto Pass = [&](unsigned Reps) {
    CheckCounters::Snapshot Before = RT.counters().snapshot();
    double Secs = timeSeconds([&] {
      for (unsigned R = 0; R < Reps; ++R)
        for (const workloads::Workload &W : workloads::specWorkloads())
          Sink += W.RunCounted(RT, /*Scale=*/1); // Counts every check.
    });
    CheckCounters::Snapshot After = RT.counters().snapshot();
    Checks = (After.TypeChecks - Before.TypeChecks) +
             (After.BoundsChecks - Before.BoundsChecks) +
             (After.BoundsNarrows - Before.BoundsNarrows) +
             (After.BoundsGets - Before.BoundsGets);
    return Secs;
  };
  auto ArmedPass = [&](unsigned Reps) {
    Arm();
    double Secs = Pass(Reps);
    Disarm();
    return Secs;
  };

  // Calibrating warms the disarmed side (layout tables, site caches);
  // one armed round settles the armed side's allocations before timing.
  unsigned Reps = calibrateReps(MinPassSeconds, Pass);
  ArmedPass(1);
  Paired P = runPaired(
      Pairs, [&] { return Pass(1); }, [&] { return ArmedPass(1); }, Reps);
  if (Sink == uint64_t(-1))
    std::printf("impossible\n"); // Keep the sink alive.

  double PassChecks = double(Checks) * Reps; // Checks holds one round's.
  double Off = PassChecks / *std::min_element(P.A.begin(), P.A.end());
  double On = PassChecks / *std::min_element(P.B.begin(), P.B.end());
  Summary Ratio = summarize(P.Ratios);
  double Pct = (Ratio.Median - 1.0) * 100.0, IqrPct = Ratio.iqr() * 100.0;
  std::string Key = L.Key;
  std::printf("%18s %14.2f M checks/s\n", (Key + " disarmed").c_str(),
              Off / 1e6);
  std::printf("%18s %14.2f M checks/s\n", (Key + " armed").c_str(),
              On / 1e6);
  std::printf("%18s %14.2f %%   (CI gate: <= %.0f%%; IQR %.2f points)\n",
              "overhead", Pct, L.GatePct, IqrPct);

  JsonWriter Json;
  Json.str("bench", L.Bench)
      .count("reps", Reps)
      .num("min_pass_s", MinPassSeconds)
      .count("pairs", Pairs)
      .flag("compiled_out", L.CompiledOut != nullptr)
      .num((Key + "_off_checks_per_sec").c_str(), Off, 2)
      .num((Key + "_on_checks_per_sec").c_str(), On, 2)
      .num("overhead_pct", Pct)
      .num("overhead_iqr_pct", IqrPct);
  if (!Finish(Json))
    return 1;
  return JsonPath && !Json.write(JsonPath, L.Bench) ? 1 : 0;
}

} // namespace bench
} // namespace effective

#endif // EFFECTIVE_BENCH_BENCHUTIL_H

//===- bench/ablation_instrumentation.cpp - Pass-optimization ablation ----===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Ablation of the instrumentation-pass optimizations Section 6 lists
/// ("removing dynamic type checks that can never fail, removing
/// subsumed bounds checks, and removing redundant bounds narrowing"),
/// plus the used-pointers-only rule of Section 4, measured on MiniC
/// programs: static check counts, dynamically executed checks and VM
/// wall-clock (median of the runs), at O0 (schema-literal) vs. each
/// optimization individually vs. all together.
///
/// Usage: ablation_instrumentation [reps] [--engine=tree|bytecode]
///        (defaults: 5 runs per configuration, the bytecode VM)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "api/Sanitizer.h"
#include "bytecode/VM.h"
#include "instrument/Pipeline.h"
#include "interp/Interp.h"

#include <cstring>

using namespace effective;
using namespace effective::instrument;

namespace {

/// A check-dense workload exercising each optimization's target
/// pattern: matrix multiply (bounds checks), a linked list traversal
/// (input type checks), a cast-and-return helper (used-pointers-only),
/// struct-prefix upcasts in a loop (never-fail elision) and repeated
/// field read/write (subsumed checks).
constexpr const char *Program = R"(
struct cell { long weight; struct cell *next; };
struct base { long id; long kind; };
struct derived { struct base b; long payload[4]; };

char *as_bytes(struct cell *c) { return (char *)c; }

long traverse(struct cell *head) {
  long acc = 0;
  while (head != NULL) {
    char *bytes = as_bytes(head);
    acc = acc + head->weight;
    head = head->next;
  }
  return acc;
}

long churn(struct derived *d, int rounds) {
  long acc = 0;
  int i;
  for (i = 0; i < rounds; i = i + 1) {
    struct base *up = (struct base *)d;   /* upcast: never fails */
    acc = acc + up->id + up->kind;
    d->b.id = d->b.id + 1;                /* repeated access: subsumable */
    d->b.id = d->b.id + acc % 3;
  }
  return acc;
}

long matmul(long *a, long *b, long *c, int n) {
  int i; int j; int k;
  for (i = 0; i < n; i = i + 1) {
    for (j = 0; j < n; j = j + 1) {
      long acc = 0;
      for (k = 0; k < n; k = k + 1)
        acc = acc + a[i * n + k] * b[k * n + j];
      c[i * n + j] = acc;
    }
  }
  return c[(n - 1) * n + (n - 1)];
}

int main() {
  int n = 24;
  long *a = (long *)malloc(n * n * sizeof(long));
  long *b = (long *)malloc(n * n * sizeof(long));
  long *c = (long *)malloc(n * n * sizeof(long));
  int i;
  for (i = 0; i < n * n; i = i + 1) {
    a[i] = i % 7;
    b[i] = i % 5;
  }
  long m = matmul(a, b, c, n);

  struct cell *head = NULL;
  for (i = 0; i < 200; i = i + 1) {
    struct cell *fresh = (struct cell *)malloc(sizeof(struct cell));
    fresh->weight = i;
    fresh->next = head;
    head = fresh;
  }
  long t = traverse(head);
  while (head != NULL) {
    struct cell *next = head->next;
    free(head);
    head = next;
  }

  struct derived *d = (struct derived *)malloc(sizeof(struct derived));
  d->b.id = 1;
  d->b.kind = 2;
  long u = churn(d, 500);
  free(d);

  free(a); free(b); free(c);
  return (int)((m + t + u) % 97);
}
)";

struct Config {
  const char *Name;
  InstrumentOptions Opts;
};

} // namespace

int main(int argc, char **argv) {
  unsigned Reps = 5;
  const char *Engine = "bytecode";
  if (!bench::parseArgs(argc, argv, "[reps] [--engine=tree|bytecode]", &Reps,
                        nullptr, {{"--engine=", &Engine}}))
    return 2;
  bool Tree = std::strcmp(Engine, "tree") == 0;
  if (!Tree && std::strcmp(Engine, "bytecode") != 0) {
    std::fprintf(stderr, "unknown engine '%s' (tree|bytecode)\n", Engine);
    return 2;
  }

  InstrumentOptions O0;
  O0.OnlyUsedPointers = false;
  O0.ElideNeverFailingChecks = false;
  O0.ElideSubsumedChecks = false;

  InstrumentOptions UsedOnly = O0;
  UsedOnly.OnlyUsedPointers = true;

  InstrumentOptions NeverFail = O0;
  NeverFail.ElideNeverFailingChecks = true;

  InstrumentOptions Subsumed = O0;
  Subsumed.ElideSubsumedChecks = true;

  const Config Configs[] = {
      {"O0 (schema literal)", O0},
      {"+ used-pointers-only", UsedOnly},
      {"+ never-fail elision", NeverFail},
      {"+ subsumed-check removal", Subsumed},
      {"O1 (all, the default)", InstrumentOptions()},
  };

  bench::banner("Ablation: instrumentation-pass optimizations (Section 4/6)\n"
                "MiniC workload: 24x24 matmul + 200-node list, full variant, "
                "median of %u\nengine: %s",
                Reps, Tree ? "tree-walker" : "bytecode VM");
  std::printf("%-26s %9s %9s %12s %12s %9s\n", "configuration", "static",
              "elided", "exec.type", "exec.bounds", "time");

  for (const Config &C : Configs) {
    // A fresh session per configuration: private types, heap, counters.
    Sanitizer Session(bench::countingSession());
    DiagnosticEngine Diags;
    CompileResult R =
        compileMiniC(Program, Session.types(), Diags, C.Opts);
    if (!R.M || !R.BC) {
      Diags.print(stderr, "<ablation>");
      return 1;
    }
    interp::RunResult Run;
    std::vector<double> Runs;
    for (unsigned Rep = 0; Rep < Reps; ++Rep)
      Runs.push_back(bench::timeSeconds([&] {
        Run = Tree ? interp::run(*R.M, Session) : bytecode::run(*R.BC, Session);
      }));
    if (!Run.Ok) {
      std::fprintf(stderr, "%s: the workload failed to run\n", C.Name);
      return 1;
    }
    double Sec = bench::median(Runs);
    uint64_t Static = R.Stats.TypeChecks + R.Stats.BoundsChecks +
                      R.Stats.BoundsGets + R.Stats.BoundsNarrows;
    uint64_t Elided = R.Stats.ElidedNeverFail + R.Stats.ElidedSubsumed +
                      R.Stats.UnusedPointers;
    std::printf("%-26s %9llu %9llu %12llu %12llu %8.3fs\n", C.Name,
                (unsigned long long)Static, (unsigned long long)Elided,
                (unsigned long long)Run.Checks.TypeChecks,
                (unsigned long long)(Run.Checks.BoundsChecks +
                                     Run.Checks.BoundsGets),
                Sec);
  }

  std::printf("\nExpected shape: every optimization reduces executed "
              "checks vs. O0;\nthe default configuration executes the "
              "fewest and runs fastest.\n");
  return 0;
}

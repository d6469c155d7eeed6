//===- examples/minic_sanitizer.cpp - The sanitizer driver ----------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The compiler-driver face of the reproduction: compiles a MiniC
/// source file through the two-step pipeline (type-annotated IR, then
/// the Figure 3 instrumentation pass) and executes it on the VM over
/// the real runtime — the moral equivalent of
///
///   effective-clang -fsanitize=effective prog.c && ./a.out
///
/// Usage:
///   minic_sanitizer [options] file.mc
///     -variant=full|bounds|type|count|none   check policy (drives both
///                                      the pass and the session)
///     -emit-ir                         print instrumented IR, don't run
///     -O0                              schema-literal instrumentation
///                                      (no check optimizations)
///     -max-steps=N                     VM instruction budget
///
/// With no file argument a built-in demo program (containing one
/// sub-object overflow and one use-after-free) is compiled and run.
///
//===----------------------------------------------------------------------===//

#include "api/Sanitizer.h"
#include "instrument/Pipeline.h"
#include "interp/Interp.h"
#include "ir/Printer.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace effective;
using namespace effective::instrument;

namespace {

constexpr const char *DemoProgram = R"(
/* Demo: a list-sum kernel with two seeded errors. */
struct node { int values[4]; struct node *next; };

struct node *push(struct node *head) {
  struct node *n = (struct node *)malloc(sizeof(struct node));
  int i;
  for (i = 0; i <= 4; i = i + 1)   /* BUG 1: off-by-one into 'next' */
    n->values[i] = i;
  n->next = head;
  return n;
}

int total(struct node *xs) {
  int t = 0;
  while (xs != NULL) {
    t = t + xs->values[0];
    xs = xs->next;
  }
  return t;
}

int main() {
  struct node *head = NULL;
  int i;
  for (i = 0; i < 3; i = i + 1)
    head = push(head);
  int t = total(head);
  struct node *first = head;
  while (head != NULL) {
    struct node *next = head->next;
    free(head);
    head = next;
  }
  t = t + total(first);            /* BUG 2: use after free */
  print_int(t);
  return 0;
}
)";

void usage() {
  std::fprintf(stderr,
               "usage: minic_sanitizer "
               "[-variant=full|bounds|type|count|none] "
               "[-emit-ir] [-O0]\n                       "
               "[-max-steps=N] [file.mc]\n");
}

} // namespace

int main(int argc, char **argv) {
  InstrumentOptions BaseOpts;
  CheckPolicy Policy = CheckPolicy::Full;
  interp::RunOptions RunOpts;
  bool EmitIR = false;
  std::string Source = DemoProgram;
  std::string FileName = "<demo>";

  for (int I = 1; I < argc; ++I) {
    std::string_view Arg = argv[I];
    if (Arg == "-emit-ir") {
      EmitIR = true;
    } else if (Arg == "-O0") {
      BaseOpts.OnlyUsedPointers = false;
      BaseOpts.ElideNeverFailingChecks = false;
      BaseOpts.ElideSubsumedChecks = false;
    } else if (Arg.rfind("-variant=", 0) == 0) {
      // One CheckPolicy value drives both the instrumentation pass and
      // the runtime session below.
      std::optional<CheckPolicy> Parsed =
          parseCheckPolicy(Arg.substr(9));
      if (!Parsed) {
        usage();
        return 2;
      }
      Policy = *Parsed;
    } else if (Arg.rfind("-max-steps=", 0) == 0) {
      RunOpts.MaxSteps = std::strtoull(Arg.data() + 11, nullptr, 10);
    } else if (!Arg.empty() && Arg[0] == '-') {
      usage();
      return 2;
    } else {
      std::ifstream In{std::string(Arg)};
      if (!In) {
        std::fprintf(stderr, "error: cannot open '%s'\n", argv[I]);
        return 1;
      }
      std::ostringstream Buf;
      Buf << In.rdbuf();
      Source = Buf.str();
      FileName = std::string(Arg);
    }
  }

  // The session: a private type context and heap, logging each issue.
  SessionOptions SessionOpts;
  SessionOpts.Policy = Policy;
  SessionOpts.Reporter.Mode = ReportMode::Log;
  SessionOpts.Reporter.Stream = stderr;
  Sanitizer Session(SessionOpts);

  InstrumentOptions Opts = instrumentOptionsFor(Policy, BaseOpts);
  DiagnosticEngine Diags;
  CompileResult C =
      compileMiniC(Source, Session.types(), Diags, Opts, FileName);
  if (Diags.hasErrors() || !C.M) {
    Diags.print(stderr, FileName);
    return 1;
  }

  std::printf("== %s: compiled under %s ==\n", FileName.c_str(),
              variantName(Opts.V));
  std::printf("static instrumentation: %llu type_check, %llu "
              "bounds_check, %llu bounds_get, %llu narrow "
              "(%llu never-fail elided, %llu subsumed)\n",
              (unsigned long long)C.Stats.TypeChecks,
              (unsigned long long)C.Stats.BoundsChecks,
              (unsigned long long)C.Stats.BoundsGets,
              (unsigned long long)C.Stats.BoundsNarrows,
              (unsigned long long)C.Stats.ElidedNeverFail,
              (unsigned long long)C.Stats.ElidedSubsumed);

  if (EmitIR) {
    std::printf("\n%s", ir::printModule(*C.M).c_str());
    return 0;
  }

  interp::RunResult R = interp::run(*C.M, Session, RunOpts);
  if (!R.Ok) {
    std::fprintf(stderr, "vm fault: %s\n", R.Fault.c_str());
    return 1;
  }
  if (!R.Output.empty())
    std::printf("\n-- program output --\n%s", R.Output.c_str());
  std::printf("\nexit code: %lld\n", (long long)R.ExitCode);
  std::printf("executed checks: %llu type, %llu bounds, %llu "
              "bounds_get, %llu narrow\n",
              (unsigned long long)R.Checks.TypeChecks,
              (unsigned long long)R.Checks.BoundsChecks,
              (unsigned long long)R.Checks.BoundsGets,
              (unsigned long long)R.Checks.BoundsNarrows);
  std::printf("issues reported: %llu\n",
              (unsigned long long)R.IssuesReported);
  return 0;
}

//===- api/effsan_run.cpp - C ABI program execution entry points ----------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// effsan_run_minic (ABI 1.7): compile a MiniC buffer under the
/// session's policy and execute it on the session's engine — the
/// bytecode VM by default, the tree-walking interpreter on request.
/// Lives in the instrument archive (not core) because it pulls in the
/// whole frontend + engine stack; sessions that never run programs
/// don't carry it.
///
//===----------------------------------------------------------------------===//

#include "api/effsan.h"
#include "api/effsan_internal.h"
#include "bytecode/VM.h"
#include "instrument/Pipeline.h"
#include "interp/Interp.h"

#include <cstring>

using namespace effective;
using namespace effective::instrument;

namespace {

void setFault(effsan_run_result &R, const std::string &Message) {
  std::strncpy(R.fault, Message.c_str(), sizeof(R.fault) - 1);
  R.fault[sizeof(R.fault) - 1] = '\0';
}

} // namespace

extern "C" {

void effsan_run_options_init(effsan_run_options *options) {
  if (!options)
    return;
  std::memset(options, 0, sizeof(*options));
  options->struct_size = sizeof(effsan_run_options);
}

int effsan_run_minic(effsan_session *session, const char *source,
                     const effsan_run_options *options,
                     effsan_run_result *out) {
  auto Full = effsan_detail::zeroed<effsan_run_result>();

  if (!session || !source) {
    setFault(Full, "null session or source");
    effsan_detail::writePrefix(Full, out);
    return 0;
  }

  effsan_run_options Run =
      effsan_detail::readPrefix(options, effsan_run_options_init);
  Sanitizer &S = *session->S;

  // The instrumentation variant follows the session's policy, so the
  // compiled checks and the session's API-level checks tell one story
  // (CountOnly instruments like Full; the policy dispatch is what
  // keeps its checks from probing).
  DiagnosticEngine Diags;
  InstrumentOptions Opts = instrumentOptionsFor(S.policy());
  CompileResult C =
      compileMiniC(source, S.types(), Diags, Opts,
                   Run.file_name ? Run.file_name : "<minic>");
  if (!C.M || !C.BC) {
    std::string Message = "compile error";
    if (!Diags.diagnostics().empty()) {
      const Diagnostic &D = Diags.diagnostics().front();
      Message = std::to_string(D.Loc.Line) + ":" +
                std::to_string(D.Loc.Column) + ": " + D.Message;
    }
    setFault(Full, Message);
    effsan_detail::writePrefix(Full, out);
    return 0;
  }

  interp::RunOptions RunOpts;
  if (Run.max_steps)
    RunOpts.MaxSteps = Run.max_steps;
  if (Run.max_call_depth)
    RunOpts.MaxCallDepth = Run.max_call_depth;
  std::string_view Entry = Run.entry ? Run.entry : "main";

  interp::RunResult R = session->Engine == EFFSAN_ENGINE_TREE
                            ? interp::run(*C.M, S, RunOpts, Entry)
                            : bytecode::run(*C.BC, S, RunOpts, Entry);

  Full.ok = R.Ok ? 1 : 0;
  Full.exit_code = R.ExitCode;
  Full.steps = R.Steps;
  Full.type_checks = R.Checks.TypeChecks;
  Full.bounds_gets = R.Checks.BoundsGets;
  Full.bounds_checks = R.Checks.BoundsChecks;
  Full.bounds_narrows = R.Checks.BoundsNarrows;
  Full.issues_reported = R.IssuesReported;
  if (!R.Ok)
    setFault(Full, R.Fault);
  if (Run.output && !R.Output.empty())
    Run.output(R.Output.data(), R.Output.size(), Run.output_user_data);

  effsan_detail::writePrefix(Full, out);
  return 1;
}

} // extern "C"

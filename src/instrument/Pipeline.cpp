//===- instrument/Pipeline.cpp - Source-to-instrumented-IR driver ---------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "instrument/Pipeline.h"

#include "bytecode/Compiler.h"
#include "instrument/CheckOptimizer.h"
#include "instrument/Lowering.h"
#include "ir/Verifier.h"
#include "minic/Parser.h"
#include "minic/Sema.h"

using namespace effective;
using namespace effective::instrument;

InstrumentOptions
instrument::instrumentOptionsFor(CheckPolicy Policy,
                                 const InstrumentOptions &Base) {
  InstrumentOptions Opts = Base;
  Opts.V = variantOf(Policy);
  return Opts;
}

CompileResult instrument::compileMiniC(std::string_view Source,
                                       TypeContext &Types,
                                       DiagnosticEngine &Diags,
                                       const InstrumentOptions &Opts,
                                       std::string_view FileName) {
  CompileResult Result;

  minic::ASTContext Ctx(Types);
  minic::TranslationUnit Unit;
  minic::Parser P(Source, Ctx, Diags);
  if (!P.parseUnit(Unit))
    return Result;
  minic::Sema S(Ctx, Diags);
  if (!S.check(Unit))
    return Result;

  std::unique_ptr<ir::Module> M = lowerToIR(Unit, Types, Diags);
  if (!M)
    return Result;
  M->setSourceName(std::string(FileName));
  if (!ir::verifyModule(*M, Diags))
    return Result;

  // The stand-in for the -O2 pipeline the paper's pass runs inside:
  // canonicalize repeated address computations so the subsumed-check
  // rule sees them as one (see CheckOptimizer.h).
  localCSE(*M);
  if (!ir::verifyModule(*M, Diags))
    return Result;

  Result.Stats = instrumentModule(*M, Opts);
  if (!ir::verifyModule(*M, Diags))
    return Result;

  // Post-instrumentation: merge checks duplicated across blocks (CSE
  // unified their operands, so whole check instructions are now
  // structurally identical between blocks).
  if (Opts.MergeCrossBlockChecks && Opts.V != Variant::None) {
    MergeStats Merged = mergeCrossBlockChecks(*M);
    Result.Stats.ElidedCrossBlock = Merged.merged();
    Result.Stats.TypeChecks -= Merged.MergedTypeChecks;
    Result.Stats.BoundsGets -= Merged.MergedBoundsGets;
    Result.Stats.BoundsChecks -= Merged.MergedBoundsChecks;
    if (!ir::verifyModule(*M, Diags))
      return Result;
  }

  // Lower to bytecode while the IR is hot: the VM input is a pipeline
  // product, not a caller afterthought. Verified modules always fit
  // the encoding; a failure here is a compiler bug surfaced as a
  // diagnostic (M is still returned for the tree-walker).
  std::string BcError;
  Result.BC = bytecode::compile(*M, &BcError);
  if (!Result.BC)
    Diags.error(SourceLoc(), "bytecode lowering failed: " + BcError);

  Result.M = std::move(M);
  return Result;
}

//===- baselines/ErrorSuite.h - Figure 1 error scenarios --------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The error scenarios used to regenerate Figure 1. Each scenario
/// drives a SanitizerModel through an allocation/access/cast event
/// stream containing exactly one bug (or none, for the false-positive
/// controls) and records whether the model flagged it.
///
/// Scenario classes map to the figure's columns:
///   Types  — type confusion (downcasts, C casts, implicit casts, ...);
///   Bounds — object and sub-object overflows;
///   UAF    — use-after-free, reuse-after-free, double free;
///   Stack  — typed stack objects (use-after-return, stack overflow);
///   Global — module-registered globals (overflow, type confusion).
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_BASELINES_ERRORSUITE_H
#define EFFECTIVE_BASELINES_ERRORSUITE_H

#include "baselines/SanitizerModel.h"

#include <functional>
#include <string>
#include <vector>

namespace effective {
namespace baselines {

/// The Figure 1 columns.
enum class ErrorClass : uint8_t {
  Types,
  Bounds,
  Temporal,
  Stack,
  Global,
  Control
};

/// Returns "Types" / "Bounds" / "UAF" / "Stack" / "Global" / "Control".
const char *errorClassName(ErrorClass Class);

/// The types the scenarios use, prebuilt in one TypeContext.
struct ScenarioTypes {
  explicit ScenarioTypes(TypeContext &Ctx);

  TypeContext &Ctx;
  /// struct account { int number[8]; float balance; } (Section 1).
  RecordType *Account;
  /// Polymorphic hierarchy mirroring xalancbmk's Grammar classes.
  RecordType *Grammar;
  RecordType *SchemaGrammar;
  RecordType *DTDGrammar;
  /// struct container { int payload; long extra; } — container casts.
  RecordType *Container;
  /// The perlbench/povray struct-prefix "inheritance" pair.
  RecordType *BasePrefix;
  RecordType *DerivedPrefix;
};

/// One error scenario.
struct Scenario {
  const char *Id;
  const char *Summary;
  ErrorClass Class;
  std::function<void(SanitizerModel &, ScenarioTypes &)> Run;
};

/// The full scenario list (stable order).
const std::vector<Scenario> &errorSuite();

/// Per-model, per-class detection tally.
struct ClassTally {
  unsigned Detected = 0;
  unsigned Total = 0;
  /// Spurious errors flagged on control (bug-free) scenarios.
  unsigned FalsePositives = 0;
};

/// Figure 1 cell values.
enum class Capability : uint8_t { None, Partial, Full };

/// Renders a cell as the paper does.
const char *capabilityMark(Capability C);

/// The evaluated matrix row for one sanitizer.
struct MatrixRow {
  ModelKind Kind;
  ClassTally Types;
  ClassTally Bounds;
  ClassTally Temporal;
  ClassTally Stack;
  ClassTally Global;
  unsigned ControlFalsePositives = 0;

  Capability typesCapability() const;
  Capability boundsCapability() const;
  Capability temporalCapability() const;
  Capability stackCapability() const;
  Capability globalCapability() const;
};

/// Detailed per-scenario outcome for one model.
struct ScenarioOutcome {
  const Scenario *S;
  bool Detected;
};

/// Runs every scenario against a fresh model of \p Kind.
MatrixRow evaluateModel(ModelKind Kind,
                        std::vector<ScenarioOutcome> *Details = nullptr);

} // namespace baselines
} // namespace effective

#endif // EFFECTIVE_BASELINES_ERRORSUITE_H

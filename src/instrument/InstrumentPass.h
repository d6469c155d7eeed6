//===- instrument/InstrumentPass.h - Figure 3 schema ------------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic type check instrumentation pass — the Figure 3 schema of
/// the paper applied to our IR:
///
///   (a) pointer parameters are type-checked at function entry;
///   (b) pointer call returns are type-checked;
///   (c) pointers loaded from memory are type-checked;
///   (d) pointer casts are type-checked;
///   (e) field access narrows bounds (bounds_narrow);
///   (f) pointer arithmetic propagates bounds unchanged;
///   (g) every pointer use is bounds-checked, and so is every escape
///       (stores of pointer values, pointer call arguments).
///
/// The pass implements the paper's three evaluation variants plus the
/// uninstrumented baseline (Section 6.2):
///
///   * Full   — the schema above ("check everything");
///   * Bounds — rules (a)-(d) emit bounds_get instead of type_check and
///              rule (e) is dropped (allocation bounds only);
///   * Type   — rule (d) only, applied to every cast whether or not the
///              result is used; no bounds checking at all;
///   * None   — identity.
///
/// And the paper's optimizations (Section 6, "basic optimizations"):
/// instrumenting only used pointers, removing checks that can never
/// fail, and removing subsumed bounds checks. Each can be toggled for
/// the ablation benchmark.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_INSTRUMENT_INSTRUMENTPASS_H
#define EFFECTIVE_INSTRUMENT_INSTRUMENTPASS_H

#include "api/CheckPolicy.h"
#include "ir/IR.h"

namespace effective {
namespace instrument {

/// The paper's evaluation variants; the pass reads each one's schema
/// switches from VariantTable.
using effective::Variant;

/// Pass configuration.
struct InstrumentOptions {
  Variant V = Variant::Full;
  /// Instrument only pointers that are used or escape (paper default).
  bool OnlyUsedPointers = true;
  /// Elide type checks that can never fail (e.g. a cast that does not
  /// change the pointee type, or the cast of a fresh matching malloc).
  bool ElideNeverFailingChecks = true;
  /// Remove bounds checks subsumed by an earlier check of the same
  /// pointer against the same bounds within a block.
  bool ElideSubsumedChecks = true;
  /// Run the post-instrumentation cross-block merge: remove a check
  /// when an identical check is must-available on every path into its
  /// block (see CheckOptimizer.h). Applied by the pipeline driver,
  /// after instrumentModule.
  bool MergeCrossBlockChecks = true;
};

/// Static counts of what the pass did (per module).
struct InstrumentStats {
  uint64_t TypeChecks = 0;
  uint64_t BoundsGets = 0;
  uint64_t BoundsChecks = 0;
  uint64_t BoundsNarrows = 0;
  /// Checks not inserted thanks to the never-fail rule.
  uint64_t ElidedNeverFail = 0;
  /// bounds_checks removed by the subsumption rule.
  uint64_t ElidedSubsumed = 0;
  /// Checks removed by the cross-block merge pass (pipeline only).
  uint64_t ElidedCrossBlock = 0;
  /// Pointer registers that attracted no instrumentation because they
  /// are never used (the paper's cast-and-return case).
  uint64_t UnusedPointers = 0;
  /// Check-site ids allocated for this module (the dense SiteId space
  /// the runtime's type-check inline cache is indexed by).
  uint64_t CheckSites = 0;
};

/// Instruments \p M in place according to \p Opts.
InstrumentStats instrumentModule(ir::Module &M,
                                 const InstrumentOptions &Opts);

} // namespace instrument
} // namespace effective

#endif // EFFECTIVE_INSTRUMENT_INSTRUMENTPASS_H

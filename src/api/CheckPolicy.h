//===- api/CheckPolicy.h - Session check policies ---------------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The check policy a Sanitizer session runs under — the paper's
/// Section 6.2 evaluation variants as a *configuration value* instead of
/// divergent call sites — and the Figure 8 build variants with the one
/// table of what each instruments. A dependency-free header so lower
/// layers (CheckedPtr, the instrumentation pipeline) can map policies
/// without pulling in the session machinery.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_API_CHECKPOLICY_H
#define EFFECTIVE_API_CHECKPOLICY_H

#include <cstdint>
#include <iterator>
#include <optional>
#include <string_view>

namespace effective {

/// What a session checks. Selecting a policy at session construction is
/// the Section 6.2 ablation (full EffectiveSan vs. EffectiveSan-bounds
/// vs. EffectiveSan-type) plus two operational modes.
enum class CheckPolicy : uint8_t {
  /// Full EffectiveSan: type checks, sub-object bounds narrowing, and
  /// bounds checks ("check everything").
  Full,
  /// EffectiveSan-bounds: type checks degrade to bounds_get and field
  /// narrowing is disabled — allocation bounds only, the
  /// LowFat/ASan-comparable variant of Section 6.2.
  BoundsOnly,
  /// EffectiveSan-type: type checks only; no bounds checking.
  TypeOnly,
  /// Checks are counted but never performed — the cheapest way to
  /// profile check density without paying for meta data probes.
  CountOnly,
  /// Everything off; all checks return wide bounds and count nothing.
  Off,
};

/// Stable display name ("full", "bounds-only", ...).
constexpr std::string_view checkPolicyName(CheckPolicy Policy) {
  switch (Policy) {
  case CheckPolicy::Full:
    return "full";
  case CheckPolicy::BoundsOnly:
    return "bounds-only";
  case CheckPolicy::TypeOnly:
    return "type-only";
  case CheckPolicy::CountOnly:
    return "count-only";
  case CheckPolicy::Off:
    return "off";
  }
  return "?";
}

/// The paper's short variant spelling ("full", "bounds", "type",
/// "count", "off"), as the service snapshot renders it.
constexpr std::string_view checkPolicyShortName(CheckPolicy Policy) {
  switch (Policy) {
  case CheckPolicy::Full:
    return "full";
  case CheckPolicy::BoundsOnly:
    return "bounds";
  case CheckPolicy::TypeOnly:
    return "type";
  case CheckPolicy::CountOnly:
    return "count";
  case CheckPolicy::Off:
    return "off";
  }
  return "?";
}

/// Parses a policy name as spelled by checkPolicyName or
/// checkPolicyShortName (plus "none" for Off).
inline std::optional<CheckPolicy> parseCheckPolicy(std::string_view Name) {
  if (Name == "full")
    return CheckPolicy::Full;
  if (Name == "bounds-only" || Name == "bounds")
    return CheckPolicy::BoundsOnly;
  if (Name == "type-only" || Name == "type")
    return CheckPolicy::TypeOnly;
  if (Name == "count-only" || Name == "count")
    return CheckPolicy::CountOnly;
  if (Name == "off" || Name == "none")
    return CheckPolicy::Off;
  return std::nullopt;
}

/// The paper's four Figure 8 builds: uninstrumented, EffectiveSan-type,
/// EffectiveSan-bounds and full EffectiveSan. One enum shared by the
/// CheckedPtr workloads (core/CheckedPtr.h), the instrumentation pass
/// (instrument/InstrumentPass.h) and the workload harness.
enum class Variant : uint8_t { None, Type, Bounds, Full };

/// What one variant instruments, as the Figure 3 schema switches.
struct VariantTraits {
  /// Rules (a)-(c): pointers entering checked code get bounds, by
  /// type_check when CheckCasts is also set, else by bounds_get.
  bool CheckInputs;
  /// Rule (d): casts are type-checked.
  bool CheckCasts;
  /// Rule (g): uses and escapes are bounds-checked.
  bool CheckBounds;
  /// Pointers carry a BOUNDS value (rule (f) propagation).
  bool StoresBounds;
  /// Rule (e): field access narrows to the member.
  bool NarrowFields;
  /// Display name ("Uninstrumented", "EffectiveSan-type", ...).
  const char *Name;
  /// The session check policy a run of this build uses.
  CheckPolicy Policy;
};

/// One row per Variant, in enumerator order.
inline constexpr VariantTraits VariantTable[] = {
    {false, false, false, false, false, "Uninstrumented", CheckPolicy::Off},
    {false, true, false, false, false, "EffectiveSan-type",
     CheckPolicy::TypeOnly},
    // Section 6.2: type checks degrade to bounds_get and there is no
    // rule-(e) narrowing, making the variant comparable to
    // LowFat/ASan-class tools.
    {true, false, true, true, false, "EffectiveSan-bounds",
     CheckPolicy::BoundsOnly},
    {true, true, true, true, true, "EffectiveSan (full)", CheckPolicy::Full},
};

constexpr const VariantTraits &traitsOf(Variant V) {
  return VariantTable[static_cast<uint8_t>(V)];
}

constexpr const char *variantName(Variant V) { return traitsOf(V).Name; }

constexpr CheckPolicy checkPolicyFor(Variant V) { return traitsOf(V).Policy; }

/// The build a session policy instruments as. CountOnly maps to Full:
/// the checks must execute to be counted.
constexpr Variant variantOf(CheckPolicy Policy) {
  for (uint8_t V = 0; V < std::size(VariantTable); ++V)
    if (VariantTable[V].Policy == Policy)
      return static_cast<Variant>(V);
  return Variant::Full;
}

} // namespace effective

#endif // EFFECTIVE_API_CHECKPOLICY_H

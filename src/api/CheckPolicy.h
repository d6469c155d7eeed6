//===- api/CheckPolicy.h - Session check policies ---------------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The check policy a Sanitizer session runs under — the paper's
/// Section 6.2 evaluation variants as a *configuration value* instead of
/// divergent call sites. A dependency-free header so lower layers (the
/// instrumentation pipeline) can map policies without pulling in the
/// session machinery.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_API_CHECKPOLICY_H
#define EFFECTIVE_API_CHECKPOLICY_H

#include <cstdint>
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

} // namespace effective

#endif // EFFECTIVE_API_CHECKPOLICY_H

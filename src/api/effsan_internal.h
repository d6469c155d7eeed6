//===- api/effsan_internal.h - C ABI handle internals -----------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared internals of the effsan C ABI implementation: the session
/// handle layout, the C error sinks, the enum translations, and the
/// copies between the C structs and their C++ sources, used by the
/// session, pool, service and program-run entry points. Not installed;
/// not part of the ABI.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_API_EFFSAN_INTERNAL_H
#define EFFECTIVE_API_EFFSAN_INTERNAL_H

#include "api/Sanitizer.h"
#include "api/effsan.h"

#include <cstring>
#include <memory>

namespace effective {
namespace effsan_detail {

/// The C error callbacks a session, pool or service handle holds, and
/// the one C++ reporter callback that translates each event for them.
/// The v1 and v2 sinks are independent and may both be installed.
struct ErrorSinks {
  effsan_error_callback V1 = nullptr;
  void *V1UserData = nullptr;
  effsan_error_callback_v2 V2 = nullptr;
  void *V2UserData = nullptr;

  ErrorSinks() = default;
  /// The reporter holds this object's address while a sink is set.
  ErrorSinks(const ErrorSinks &) = delete;
  ErrorSinks &operator=(const ErrorSinks &) = delete;

  /// Replaces one sink on \p Reporter: detach the trampoline (under the
  /// reporter lock, so no invocation is mid-flight), update the
  /// callback/user-data pair, then re-attach while any sink is set — an
  /// erring thread can never observe a half-updated pair.
  void set(ErrorReporter &Reporter, effsan_error_callback Callback,
           void *UserData) {
    Reporter.setCallback(nullptr, nullptr);
    V1 = Callback;
    V1UserData = UserData;
    attach(Reporter);
  }
  void set(ErrorReporter &Reporter, effsan_error_callback_v2 Callback,
           void *UserData) {
    Reporter.setCallback(nullptr, nullptr);
    V2 = Callback;
    V2UserData = UserData;
    attach(Reporter);
  }

private:
  void attach(ErrorReporter &Reporter) {
    if (V1 || V2)
      Reporter.setCallback(trampoline, this);
  }
  /// Fires the v1 then the v2 sink; a 1.2 caller that never installs a
  /// v2 callback observes exactly the 1.2 behavior.
  static void trampoline(const ErrorInfo &Info, const char *Message,
                         void *UserData);
};

} // namespace effsan_detail
} // namespace effective

/// The opaque session handle: a Sanitizer (owned, or a view of a pool
/// shard) plus the installed C callbacks.
struct effsan_session {
  std::unique_ptr<effective::Sanitizer> Owned; ///< Null for pool shards.
  effective::Sanitizer *S;
  /// Execution engine for effsan_run_minic (an effsan_engine value;
  /// fixed at creation — session options, or pool options for shards).
  uint32_t Engine = EFFSAN_ENGINE_BYTECODE;
  effective::effsan_detail::ErrorSinks Sinks;

  explicit effsan_session(const effective::SessionOptions &Options,
                          uint32_t Engine = EFFSAN_ENGINE_BYTECODE)
      : Owned(std::make_unique<effective::Sanitizer>(Options)),
        S(Owned.get()), Engine(Engine) {}

  explicit effsan_session(effective::Sanitizer &Shard,
                          uint32_t Engine = EFFSAN_ENGINE_BYTECODE)
      : S(&Shard), Engine(Engine) {}
};

namespace effective {
namespace effsan_detail {

// Each C enum numbers its values exactly as the C++ enum it mirrors
// (as the service's tenant-status, evict-reason and health enums do),
// so the translations below are casts. These pins keep the two in step.
static_assert(EFFSAN_POLICY_FULL == uint32_t(CheckPolicy::Full) &&
              EFFSAN_POLICY_BOUNDS_ONLY == uint32_t(CheckPolicy::BoundsOnly) &&
              EFFSAN_POLICY_TYPE_ONLY == uint32_t(CheckPolicy::TypeOnly) &&
              EFFSAN_POLICY_COUNT_ONLY == uint32_t(CheckPolicy::CountOnly) &&
              EFFSAN_POLICY_OFF == uint32_t(CheckPolicy::Off));
static_assert(
    EFFSAN_ERROR_TYPE == uint32_t(ErrorKind::TypeError) &&
    EFFSAN_ERROR_BOUNDS == uint32_t(ErrorKind::BoundsError) &&
    EFFSAN_ERROR_USE_AFTER_FREE == uint32_t(ErrorKind::UseAfterFree) &&
    EFFSAN_ERROR_DOUBLE_FREE == uint32_t(ErrorKind::DoubleFree) &&
    EFFSAN_ERROR_STACK_USE_AFTER_RETURN ==
        uint32_t(ErrorKind::StackUseAfterReturn) &&
    EFFSAN_ERROR_RESOURCE_EXHAUSTED == uint32_t(ErrorKind::ResourceExhausted));
static_assert(EFFSAN_CHECK_TYPE == uint32_t(CheckSiteKind::TypeCheck) &&
              EFFSAN_CHECK_BOUNDS_GET == uint32_t(CheckSiteKind::BoundsGet) &&
              EFFSAN_CHECK_BOUNDS == uint32_t(CheckSiteKind::BoundsCheck) &&
              EFFSAN_CHECK_BOUNDS_NARROW ==
                  uint32_t(CheckSiteKind::BoundsNarrow));

/// A C caller's policy value; unknown values run Full.
inline CheckPolicy policyFromValue(uint32_t Value) {
  return Value <= EFFSAN_POLICY_OFF ? static_cast<CheckPolicy>(Value)
                                    : CheckPolicy::Full;
}

inline uint32_t policyValue(CheckPolicy Policy) {
  return static_cast<uint32_t>(Policy);
}

inline uint32_t errorKindValue(ErrorKind Kind) {
  return static_cast<uint32_t>(Kind);
}

inline uint32_t checkKindValue(CheckSiteKind Kind) {
  return static_cast<uint32_t>(Kind);
}

/// A C caller's check kind; unknown values read as a type check.
inline CheckSiteKind checkKindFromValue(uint32_t Value) {
  return Value <= EFFSAN_CHECK_BOUNDS_NARROW
             ? static_cast<CheckSiteKind>(Value)
             : CheckSiteKind::TypeCheck;
}

/// Fills the ABI's v2 error struct from a reporter event (shared by
/// the session and pool trampolines).
inline void fillErrorV2(const ErrorInfo &Info, const char *Message,
                        effsan_error_v2 &Out) {
  Out.kind = errorKindValue(Info.Kind);
  Out.pointer = Info.Pointer;
  Out.offset = Info.Offset;
  // Rendered reports are never empty; an empty message means the
  // defer_error_rendering option elided it (since 1.4) — pass NULL.
  Out.message = (Message && Message[0]) ? Message : nullptr;
  Out.site = EFFSAN_NO_SITE;
  Out.file = nullptr;
  Out.line = 0;
  Out.column = 0;
  Out.function = nullptr;
  Out.check_kind = EFFSAN_CHECK_TYPE;
  Out.static_type =
      reinterpret_cast<effsan_type>(Info.StaticType);
  Out.alloc_type = reinterpret_cast<effsan_type>(Info.AllocType);
  if (const SiteInfo *W = Info.Where) {
    Out.site = W->Site;
    Out.file = W->File;
    Out.line = W->Line;
    Out.column = W->Column;
    Out.function = W->Function[0] != '\0' ? W->Function : nullptr;
    Out.check_kind = checkKindValue(W->Kind);
  }
}

inline void ErrorSinks::trampoline(const ErrorInfo &Info,
                                    const char *Message, void *UserData) {
  const auto *Sinks = static_cast<const ErrorSinks *>(UserData);
  if (Sinks->V1) {
    effsan_error Error;
    Error.kind = errorKindValue(Info.Kind);
    Error.pointer = Info.Pointer;
    Error.offset = Info.Offset;
    // Rendered reports are never empty, so an empty message can only
    // mean defer_error_rendering elided it — surface that as NULL.
    Error.message = (Message && Message[0]) ? Message : nullptr;
    Sinks->V1(&Error, Sinks->V1UserData);
  }
  if (Sinks->V2) {
    effsan_error_v2 Error;
    fillErrorV2(Info, Message, Error);
    Sinks->V2(&Error, Sinks->V2UserData);
  }
}

/// Reads a caller-sized input struct (options, quotas) under the
/// tail-extension contract: the prefix the caller declared through
/// struct_size overlays the library's defaults from \p Init, so fields
/// newer than the caller's build keep their defaults. A zero or
/// oversized struct_size reads the whole struct the library knows.
template <typename T> T readPrefix(const T *In, void (*Init)(T *)) {
  T Out;
  Init(&Out);
  if (In) {
    size_t N = In->struct_size;
    if (N == 0 || N > sizeof(T))
      N = sizeof(T);
    std::memcpy(&Out, In, N);
  }
  return Out;
}

/// Writes \p Full to a caller-sized output struct under the growable
/// contract: exactly the prefix the caller declared through
/// struct_size, with struct_size itself left as declared. A caller
/// built against a future, larger struct gets the tail this library
/// predates zeroed, so every declared byte is defined (unknown
/// counters read as 0, never as stack garbage). Returns false, writing
/// nothing, when \p Out is null or declares fewer bytes than its own
/// struct_size field.
template <typename T> bool writePrefix(const T &Full, T *Out) {
  if (!Out || Out->struct_size < sizeof(uint32_t))
    return false;
  uint32_t Declared = Out->struct_size;
  size_t N = Declared;
  if (N > sizeof(T)) {
    std::memset(reinterpret_cast<char *>(Out) + sizeof(T), 0, N - sizeof(T));
    N = sizeof(T);
  }
  std::memcpy(Out, &Full, N);
  Out->struct_size = Declared;
  return true;
}

/// The reporter settings the session, pool and service options share.
template <typename T> ReporterOptions reporterOptions(const T &Options) {
  ReporterOptions Out;
  Out.Mode = Options.log_errors ? ReportMode::Log : ReportMode::Count;
  Out.Stream = Options.log_stream ? Options.log_stream : stderr;
  Out.MaxReportsPerBucket = Options.max_reports_per_location;
  Out.MaxTotalReports = Options.max_total_reports;
  return Out;
}

/// A zero-filled ABI struct to build a copy-out in.
template <typename T> T zeroed() {
  T Out;
  std::memset(&Out, 0, sizeof(Out));
  return Out;
}

/// Fills effsan_counters (fixed layout, no struct_size) from a check
/// counter snapshot and the reporter that owns the issue counts.
inline void fillCounters(const CheckCounters::Snapshot &In,
                         ErrorReporter &Reporter, effsan_counters &Out) {
#define EFFSAN_X(Field, Abi, InAbi, ...) EFFSAN_IF(InAbi, Out.Abi = In.Field;)
  EFFSAN_CHECK_COUNTERS(EFFSAN_X)
#undef EFFSAN_X
  Out.issues_found = Reporter.numIssues();
  Out.error_events = Reporter.numEvents();
  Out.reports_suppressed = Reporter.numSuppressed();
}

/// Fills the caller-sized effsan_heap_stats from a lowfat::HeapStats
/// snapshot.
inline void fillHeapStats(const lowfat::HeapStats &In,
                          effsan_heap_stats *Out) {
  auto Full = zeroed<effsan_heap_stats>();
#define EFFSAN_X(Field, Abi, ...) Full.Abi = In.Field;
  EFFSAN_HEAP_STATS(EFFSAN_X)
#undef EFFSAN_X
  writePrefix(Full, Out);
}

} // namespace effsan_detail
} // namespace effective

#endif // EFFECTIVE_API_EFFSAN_INTERNAL_H

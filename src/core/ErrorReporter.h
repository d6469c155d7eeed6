//===- core/ErrorReporter.h - Error logging and bucketing -------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Error reporting for the EffectiveSan runtime. Matches the paper's
/// Section 6 methodology: errors are *bucketed by type and offset* so the
/// same issue is counted once; the runtime can log every new bucket
/// (logging mode), count silently (counting mode, used for performance
/// measurements), and optionally abort after N errors.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_CORE_ERRORREPORTER_H
#define EFFECTIVE_CORE_ERRORREPORTER_H

#include "core/SiteTable.h"
#include "core/TypeInfo.h"

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace effective {

/// Classes of errors the runtime detects.
enum class ErrorKind : uint8_t {
  /// type_check found no matching (sub-)object (Figure 6 line 22).
  TypeError,
  /// bounds_check failed — (sub-)object bounds overflow.
  BoundsError,
  /// Access through a pointer whose object has the FREE dynamic type.
  UseAfterFree,
  /// type_free of an already-freed object, or of a block the heap
  /// never handed out.
  DoubleFree,
  /// Access through a dangling pointer into a stack frame that has
  /// returned (the object's dynamic type is the STACK-FREE flavor of
  /// FREE; see TypeKind::StackFree).
  StackUseAfterReturn,
  /// An allocation the program requested could not be satisfied (heap
  /// OOM or an induced exhaustion fault). The failed request degrades
  /// to a diagnosable null — never UB, never an abort on its own.
  ResourceExhausted,
};

/// Returns a stable name for \p Kind ("type", "bounds", ...).
const char *errorKindName(ErrorKind Kind);

/// How the reporter reacts to errors.
enum class ReportMode : uint8_t {
  /// Log each new bucket to the stream (default; Section 6 "logging
  /// mode is used to find errors").
  Log,
  /// Count only ("counting mode is used for measuring performance").
  Count,
};

/// One detected error event. A plain value: everything it points to is
/// either interned (types), owned by a session-lifetime registry
/// (Where) or a string literal (Detail), so events can be copied whole
/// into a concurrent::ErrorRing and rendered later by a central
/// drainer without borrowing anything from the erring thread.
struct ErrorInfo {
  ErrorKind Kind = ErrorKind::TypeError;
  /// The static type the program used (null when not applicable).
  const TypeInfo *StaticType = nullptr;
  /// The dynamic (allocation) type of the object (null for legacy).
  const TypeInfo *AllocType = nullptr;
  /// Byte offset of the pointer within the allocation.
  int64_t Offset = 0;
  /// The offending pointer.
  const void *Pointer = nullptr;
  /// Optional free-form detail appended to the log line.
  const char *Detail = nullptr;
  /// The erring check's site identity (rebased; NoSite when the error
  /// did not come from a sited check). Part of the dedup bucket key,
  /// so issues are counted per *site*, not per raw pointer value.
  SiteId Site = NoSite;
  /// Source attribution for Site, resolved by the runtime at report
  /// time (null for pseudo-sites and unregistered ids). Points into
  /// the session's SiteTableRegistry — stable across ring drains.
  const SiteInfo *Where = nullptr;

  /// An address inside the object the report names: Pointer less its
  /// Offset within the allocation. That is the checked object, or for a
  /// failed bounds check the object its bounds came from, while Pointer
  /// may lie in a neighbouring or never-allocated block. Pointer itself
  /// when no META names an object (Offset 0), e.g. a legacy pointer.
  const void *object() const {
    return reinterpret_cast<const void *>(
        reinterpret_cast<uintptr_t>(Pointer) - static_cast<uintptr_t>(Offset));
  }
};

/// One deduplicated issue (the paper's Figure 7 "#Issues-found" counts
/// these buckets).
struct ErrorBucket {
  ErrorKind Kind;
  const TypeInfo *StaticType;
  const TypeInfo *AllocType;
  int64_t Offset;
  /// The check site the bucket is keyed by (NoSite for unsited paths).
  SiteId Site = NoSite;
  /// Source attribution of the first event (null when unattributed).
  const SiteInfo *Where = nullptr;
  uint64_t Events = 0;
  std::string Message;
};

/// Pluggable error sink: invoked for every *emitted* report (i.e. after
/// bucketing and the per-bucket / total caps below have been applied),
/// with the rendered message. Called with the reporter lock held — the
/// callback must not call back into the same reporter.
using ErrorCallback = void (*)(const ErrorInfo &Info, const char *Message,
                               void *UserData);

/// Lock-free intercept for the reporting hot path. When installed,
/// report() hands the raw event to this hook *before* taking the
/// reporter lock; a true return means the event was consumed (e.g.
/// pushed onto a concurrent::ErrorRing for a central drainer) and the
/// locked bucketing/emission path is skipped entirely. Returning false
/// falls through to the normal locked path. The hook must be safe to
/// call from any thread.
using ErrorEnqueueFn = bool (*)(const ErrorInfo &Info, void *UserData);

/// Reporter configuration.
struct ReporterOptions {
  ReportMode Mode = ReportMode::Log;
  std::FILE *Stream = stderr;
  /// Abort the process after this many error events; 0 = never.
  uint64_t AbortAfter = 0;
  /// Emit (log + callback) at most this many events per bucket — the
  /// per-location dedup cap that keeps looping workloads from flooding
  /// the output. 1 reproduces the paper's "report each issue once";
  /// 0 = unlimited.
  uint64_t MaxReportsPerBucket = 1;
  /// Hard cap on reports emitted across all buckets; one suppression
  /// notice is logged when the cap is hit. 0 = unlimited.
  uint64_t MaxTotalReports = 0;
  /// Opt-in: skip rendering the human-readable message for buckets
  /// that are only *counted* (Count mode with no emission need).
  /// Rendering formats type spellings and source locations into a
  /// heap string per new bucket — pure waste for CountOnly-policy
  /// pools whose ErrorRing drain only tallies issues. When deferred,
  /// ErrorBucket::Message stays empty and callbacks receive an empty
  /// message (the C ABI maps it to NULL); Log mode still renders,
  /// since it prints. Default off: behavior is unchanged unless asked
  /// for.
  bool DeferMessageRendering = false;
  /// Optional error sink, fired in both Log and Count modes.
  ErrorCallback Callback = nullptr;
  void *CallbackUserData = nullptr;
  /// Optional lock-free intercept (see ErrorEnqueueFn). Configure at
  /// construction; never mutated by the reporter.
  ErrorEnqueueFn Enqueue = nullptr;
  void *EnqueueUserData = nullptr;
};

/// Collects, deduplicates, and renders runtime errors. Thread-safe.
class ErrorReporter {
public:
  explicit ErrorReporter(const ReporterOptions &Options = ReporterOptions())
      : Options(Options) {}

  /// Records one error event; logs it if its bucket is new and the mode
  /// is Log.
  void report(const ErrorInfo &Info);

  /// Number of distinct issues (buckets) — the Figure 7 metric.
  uint64_t numIssues() const;

  /// Number of distinct issues of one kind.
  uint64_t numIssues(ErrorKind Kind) const;

  /// Total error events (multiple events may map to one bucket).
  uint64_t numEvents() const;

  /// Events that were counted but not emitted because of the
  /// per-bucket or total report caps.
  uint64_t numSuppressed() const;

  /// Error events recorded at check site \p Site (the per-site error
  /// counter the C ABI exposes; 0 for sites that never erred).
  uint64_t numEventsAtSite(SiteId Site) const;

  /// Snapshot of all buckets (sorted by first occurrence).
  std::vector<ErrorBucket> buckets() const;

  /// True if some bucket's message contains \p Needle (test helper).
  bool hasIssueMatching(std::string_view Needle) const;

  /// Drops all recorded issues and counters.
  void clear();

  /// Swaps the error sink under the reporter lock, so the
  /// callback/user-data pair can never be observed half-updated by a
  /// concurrently reporting thread.
  void setCallback(ErrorCallback Callback, void *UserData);

  /// Unsynchronized access to the options — configure before sharing
  /// the reporter across threads (use setCallback for the sink).
  ReporterOptions &options() { return Options; }

private:
  /// The dedup key: *site-keyed* — two checks at different source
  /// sites are distinct issues even when they trip over the same types
  /// and offset, while one site looping over the same offense stays
  /// one issue. Pseudo-sites are type-derived (a function of the
  /// static type, which is already in the key), so unsited API paths
  /// keep their type+offset bucketing exactly.
  struct BucketKey {
    ErrorKind Kind;
    const TypeInfo *StaticType;
    const TypeInfo *AllocType;
    int64_t Offset;
    SiteId Site;
    bool operator<(const BucketKey &O) const {
      if (Kind != O.Kind)
        return Kind < O.Kind;
      if (StaticType != O.StaticType)
        return StaticType < O.StaticType;
      if (AllocType != O.AllocType)
        return AllocType < O.AllocType;
      if (Offset != O.Offset)
        return Offset < O.Offset;
      return Site < O.Site;
    }
  };

  std::string renderMessage(const ErrorInfo &Info) const;

  ReporterOptions Options;
  mutable std::mutex Lock;
  std::map<BucketKey, size_t> BucketIndex;
  std::vector<ErrorBucket> Buckets;
  /// Events per sited check (pseudo- and unsited events not tracked).
  std::map<SiteId, uint64_t> SiteEvents;
  uint64_t Events = 0;
  uint64_t Emitted = 0;
  uint64_t Suppressed = 0;
  bool CapNoticePrinted = false;
};

} // namespace effective

#endif // EFFECTIVE_CORE_ERRORREPORTER_H

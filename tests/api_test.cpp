//===- tests/api_test.cpp - Session API and C ABI tests -------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Covers the instance-scoped public API: session isolation (two
/// concurrent sessions with independent counters and error sinks), the
/// policy matrix (one buggy program under all five CheckPolicy values
/// in one process), the session-aware CheckedPtr constructor, the
/// injectable default runtime, the stable effsan C ABI, and the
/// reporter's per-location dedup caps.
///
//===----------------------------------------------------------------------===//

#include "api/Sanitizer.h"
#include "api/effsan.h"
#include "core/Effective.h"
#include "instrument/Pipeline.h"
#include "interp/Interp.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace effective;

namespace api_test {

struct Account {
  int Number[8];
  float Balance;
};

} // namespace api_test

EFFECTIVE_REFLECT(api_test::Account, Number, Balance);

namespace {

SessionOptions quietOptions(CheckPolicy Policy = CheckPolicy::Full) {
  SessionOptions Options;
  Options.Policy = Policy;
  Options.Reporter.Mode = ReportMode::Count;
  return Options;
}

/// The shared buggy program: one type confusion, one sub-object
/// overflow (only narrowing catches it), one allocation overflow.
/// What surfaces depends entirely on the session's policy.
void runBuggyProgram(Sanitizer &S) {
  TypeContext &Ctx = S.types();
  const TypeInfo *AccT = TypeOf<api_test::Account>::get(Ctx);
  void *P = S.malloc(sizeof(api_test::Account), AccT);
  char *Raw = static_cast<char *>(P);

  // Type confusion: no double lives at offset 0.
  S.typeCheck(P, Ctx.getDouble());

  // Sub-object overflow: Number[8] is one past the int[8] field.
  Bounds NB = S.typeCheck(P, Ctx.getInt());
  S.boundsCheck(Raw + 8 * sizeof(int), sizeof(int), NB);

  // Allocation overflow: past the whole object.
  Bounds AB = S.boundsGet(P);
  S.boundsCheck(Raw + sizeof(api_test::Account) + 4, sizeof(int), AB);

  S.free(P);
}

void collectErrors(const ErrorInfo &, const char *Message, void *UserData) {
  static_cast<std::vector<std::string> *>(UserData)->push_back(Message);
}

//===----------------------------------------------------------------------===//
// Session isolation
//===----------------------------------------------------------------------===//

TEST(SessionTest, ConcurrentSessionsAreIsolated) {
  Sanitizer A(quietOptions());
  Sanitizer B(quietOptions());

  std::vector<std::string> AErrors, BErrors;
  A.setErrorCallback(collectErrors, &AErrors);
  B.setErrorCallback(collectErrors, &BErrors);

  uint64_t DefaultIssuesBefore = Sanitizer::defaultSession().issuesFound();

  // A runs the buggy program once, B ten times, concurrently.
  std::thread TA([&] { runBuggyProgram(A); });
  std::thread TB([&] {
    for (int I = 0; I < 10; ++I)
      runBuggyProgram(B);
  });
  TA.join();
  TB.join();

  // Independent issue buckets and counters.
  EXPECT_EQ(A.issuesFound(), 3u);
  EXPECT_EQ(B.issuesFound(), 3u); // Buckets dedup across iterations...
  EXPECT_EQ(A.reporter().numEvents(), 3u);
  EXPECT_EQ(B.reporter().numEvents(), 30u); // ...events do not.
  EXPECT_EQ(A.counters().snapshot().TypeChecks, 2u);
  EXPECT_EQ(B.counters().snapshot().TypeChecks, 20u);

  // Independent error sinks: one emitted report per bucket (default
  // per-location cap of 1).
  EXPECT_EQ(AErrors.size(), 3u);
  EXPECT_EQ(BErrors.size(), 3u);

  // Nothing leaked into the process-wide default session.
  EXPECT_EQ(Sanitizer::defaultSession().issuesFound(),
            DefaultIssuesBefore);
}

TEST(SessionTest, SessionsCanShareATypeContext) {
  TypeContext Shared;
  Sanitizer A(Shared, quietOptions());
  Sanitizer B(Shared, quietOptions());
  // Interned types are pointer-identical across the sharing sessions.
  EXPECT_EQ(TypeOf<api_test::Account>::get(A.types()),
            TypeOf<api_test::Account>::get(B.types()));
  runBuggyProgram(A);
  EXPECT_EQ(A.issuesFound(), 3u);
  EXPECT_EQ(B.issuesFound(), 0u);
}

//===----------------------------------------------------------------------===//
// The policy matrix (Section 6.2 as a constructor argument)
//===----------------------------------------------------------------------===//

struct PolicyExpectation {
  CheckPolicy Policy;
  uint64_t TypeChecks;
  uint64_t BoundsGets;
  uint64_t BoundsChecks;
  uint64_t Issues;
};

TEST(SessionTest, PolicyMatrix) {
  // One buggy program, five sessions in one process; the findings are
  // decided by policy alone:
  //   Full       — type confusion + sub-object + allocation overflow;
  //   BoundsOnly — allocation overflow only (the ASan/LowFat scope);
  //   TypeOnly   — type confusion only;
  //   CountOnly  — checks counted, nothing probed or reported;
  //   Off        — nothing at all.
  const PolicyExpectation Expectations[] = {
      {CheckPolicy::Full, 2, 1, 2, 3},
      {CheckPolicy::BoundsOnly, 0, 3, 2, 1},
      {CheckPolicy::TypeOnly, 2, 0, 0, 1},
      {CheckPolicy::CountOnly, 2, 1, 2, 0},
      {CheckPolicy::Off, 0, 0, 0, 0},
  };

  for (const PolicyExpectation &E : Expectations) {
    SCOPED_TRACE(std::string("policy = ") +
                 std::string(checkPolicyName(E.Policy)));
    Sanitizer S(quietOptions(E.Policy));
    runBuggyProgram(S);
    CheckCounters::Snapshot Snap = S.counters().snapshot();
    EXPECT_EQ(Snap.TypeChecks, E.TypeChecks);
    EXPECT_EQ(Snap.BoundsGets, E.BoundsGets);
    EXPECT_EQ(Snap.BoundsChecks, E.BoundsChecks);
    EXPECT_EQ(S.issuesFound(), E.Issues);
  }
}

TEST(SessionTest, ResetRecyclesArenaCountersAndIssues) {
  Sanitizer S(quietOptions());
  void *First = S.malloc(64, TypeOf<int>::get(S.types()));
  runBuggyProgram(S);
  ASSERT_EQ(S.issuesFound(), 3u);
  ASSERT_GT(S.counters().snapshot().TypeChecks, 0u);

  S.reset();

  // Counters and issue buckets are gone...
  EXPECT_EQ(S.issuesFound(), 0u);
  EXPECT_EQ(S.reporter().numEvents(), 0u);
  CheckCounters::Snapshot Snap = S.counters().snapshot();
  EXPECT_EQ(Snap.TypeChecks + Snap.BoundsChecks + Snap.BoundsGets, 0u);
  // ...and the arena is rewound: the very first address is served
  // again to the next tenant.
  void *Fresh = S.malloc(64, TypeOf<int>::get(S.types()));
  EXPECT_EQ(Fresh, First);
  // The recycled session works end to end.
  runBuggyProgram(S);
  EXPECT_EQ(S.issuesFound(), 3u);
  S.free(Fresh);
}

TEST(SessionTest, OverflowingAllocationSizesReturnNull) {
  // malloc, calloc and realloc sizes that wrap past SIZE_MAX (with the
  // META header, or as Count * Size) return null with one
  // resource-exhausted event each, as an exhausted heap does.
  Sanitizer S(quietOptions());
  const TypeInfo *Int = TypeOf<int>::get(S.types());
  EXPECT_EQ(S.malloc(SIZE_MAX - 8, Int), nullptr);
  EXPECT_EQ(S.calloc(SIZE_MAX / 2, 4, Int), nullptr);
  int *P = static_cast<int *>(S.malloc(4 * sizeof(int), Int));
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(S.realloc(P, SIZE_MAX - 8, Int), nullptr);
  EXPECT_EQ(S.reporter().numEvents(), 3u);
  EXPECT_EQ(S.reporter().numIssues(ErrorKind::ResourceExhausted),
            S.issuesFound());
  EXPECT_EQ(S.dynamicTypeOf(P), Int) << "a refused realloc keeps the block";
  S.free(P);
}

TEST(SessionTest, FullPolicyFindsTheExpectedKinds) {
  Sanitizer S(quietOptions(CheckPolicy::Full));
  runBuggyProgram(S);
  EXPECT_EQ(S.reporter().numIssues(ErrorKind::TypeError), 1u);
  EXPECT_EQ(S.reporter().numIssues(ErrorKind::BoundsError), 2u);
}

TEST(SessionTest, InterpreterRespectsSessionPolicy) {
  // One MiniC program with an off-by-one, compiled once per policy via
  // instrumentOptionsFor and run through the session-scoped VM entry.
  constexpr const char *Program = R"(
int main() {
  int *a = (int *)malloc(4 * sizeof(int));
  int i;
  for (i = 0; i <= 4; i = i + 1)
    a[i] = i;
  free(a);
  return 0;
}
)";
  struct Case {
    CheckPolicy Policy;
    bool ExpectIssues;
  } Cases[] = {
      {CheckPolicy::Full, true},
      {CheckPolicy::CountOnly, false},
      {CheckPolicy::Off, false},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(std::string(checkPolicyName(C.Policy)));
    Sanitizer S(quietOptions(C.Policy));
    DiagnosticEngine Diags;
    instrument::CompileResult R = instrument::compileMiniC(
        Program, S.types(), Diags, instrument::instrumentOptionsFor(C.Policy));
    ASSERT_TRUE(R.M != nullptr);
    interp::RunResult Run = interp::run(*R.M, S);
    ASSERT_TRUE(Run.Ok) << Run.Fault;
    EXPECT_EQ(Run.IssuesReported > 0, C.ExpectIssues);
    if (C.Policy == CheckPolicy::CountOnly) {
      EXPECT_GT(Run.Checks.BoundsChecks, 0u); // Counted, not probed.
    }
  }
}

//===----------------------------------------------------------------------===//
// CheckedPtr injection
//===----------------------------------------------------------------------===//

TEST(SessionTest, CheckedPtrSessionAwareConstructor) {
  Sanitizer S(quietOptions());
  auto *Raw = static_cast<int *>(
      S.malloc(10 * sizeof(int), TypeOf<int>::get(S.types())));

  // The session-aware constructor checks against S (via its Runtime
  // conversion), not whatever the thread default is.
  CheckedPtr<int> P(Raw, S);
  EXPECT_EQ(P.bounds(), Bounds::forObject(Raw, 10 * sizeof(int)));
  EXPECT_EQ(S.counters().snapshot().TypeChecks, 1u);

  // Dereference checks flow through the bound scope.
  {
    SanitizerScope Scope(S);
    CheckedPtr<int> End = P + 10;
    *End; // One past the end: a bounds error into S.
  }
  EXPECT_EQ(S.reporter().numIssues(ErrorKind::BoundsError), 1u);
  S.free(Raw);
}

TEST(SessionTest, DefaultRuntimeInjection) {
  TypeContext Ctx;
  RuntimeOptions Quiet;
  Quiet.Reporter.Mode = ReportMode::Count;
  Runtime RT(Ctx, Quiet);

  Runtime *Prev = setDefaultRuntime(&RT);
  EXPECT_EQ(&currentRuntime(), &RT);
  // A scope binding still wins over the injected default.
  {
    Sanitizer S(quietOptions());
    SanitizerScope Scope(S);
    EXPECT_EQ(&currentRuntime(), &S.runtime());
  }
  EXPECT_EQ(&currentRuntime(), &RT);
  setDefaultRuntime(Prev);
}

//===----------------------------------------------------------------------===//
// Reporter dedup caps
//===----------------------------------------------------------------------===//

TEST(ReporterTest, PerBucketCapSuppressesFloods) {
  SessionOptions Options = quietOptions();
  Options.Reporter.MaxReportsPerBucket = 3;
  Sanitizer S(Options);
  std::vector<std::string> Errors;
  S.setErrorCallback(collectErrors, &Errors);

  void *P = S.malloc(4 * sizeof(int), TypeOf<int>::get(S.types()));
  Bounds B = S.boundsGet(P);
  const char *Raw = static_cast<const char *>(P);
  for (int I = 0; I < 100; ++I)
    S.boundsCheck(Raw + 100, 4, B); // Same bucket every time.

  EXPECT_EQ(Errors.size(), 3u);                   // Capped emission.
  EXPECT_EQ(S.reporter().numEvents(), 100u);      // Full count kept.
  EXPECT_EQ(S.reporter().numSuppressed(), 97u);
  EXPECT_EQ(S.issuesFound(), 1u);
  S.free(P);
}

TEST(ReporterTest, TotalCapAcrossBuckets) {
  SessionOptions Options = quietOptions();
  Options.Reporter.MaxTotalReports = 2;
  Sanitizer S(Options);
  std::vector<std::string> Errors;
  S.setErrorCallback(collectErrors, &Errors);

  runBuggyProgram(S); // Three distinct buckets; only two get emitted.
  EXPECT_EQ(Errors.size(), 2u);
  EXPECT_EQ(S.issuesFound(), 3u);
  EXPECT_EQ(S.reporter().numSuppressed(), 1u);
}

TEST(ReporterTest, DeferredRenderingLeavesCountingBucketsUnrendered) {
  // Render-on-demand (opt-in): counting-mode buckets skip the string
  // build; all bucketing, dedup and counting behave identically.
  SessionOptions Options = quietOptions();
  Options.Reporter.DeferMessageRendering = true;
  Sanitizer S(Options);
  runBuggyProgram(S);
  EXPECT_EQ(S.issuesFound(), 3u);
  for (const ErrorBucket &B : S.reporter().buckets())
    EXPECT_TRUE(B.Message.empty()) << B.Message;

  // Log mode renders regardless — it has to print something.
  std::FILE *Tmp = std::tmpfile();
  ASSERT_NE(Tmp, nullptr);
  SessionOptions LogOptions;
  LogOptions.Reporter.Mode = ReportMode::Log;
  LogOptions.Reporter.Stream = Tmp;
  LogOptions.Reporter.DeferMessageRendering = true;
  Sanitizer LogS(LogOptions);
  runBuggyProgram(LogS);
  EXPECT_EQ(LogS.issuesFound(), 3u);
  for (const ErrorBucket &B : LogS.reporter().buckets())
    EXPECT_FALSE(B.Message.empty());
  std::fclose(Tmp);
}

//===----------------------------------------------------------------------===//
// The stable C ABI
//===----------------------------------------------------------------------===//

void abiCallback(const effsan_error *Error, void *UserData) {
  auto *Kinds = static_cast<std::vector<uint32_t> *>(UserData);
  Kinds->push_back(Error->kind);
  EXPECT_NE(Error->message, nullptr);
}

TEST(EffsanAbiTest, VersionAndSessionLifecycle) {
  EXPECT_EQ(effsan_abi_version(), (uint32_t)EFFSAN_ABI_VERSION);

  effsan_options Options;
  effsan_options_init(&Options);
  EXPECT_EQ(Options.struct_size, sizeof(effsan_options));
  Options.log_errors = 0;
  Options.policy = EFFSAN_POLICY_BOUNDS_ONLY;

  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(effsan_session_policy(S), (uint32_t)EFFSAN_POLICY_BOUNDS_ONLY);
  effsan_session_destroy(S);
}

TEST(EffsanAbiTest, TypedAllocationAndChecks) {
  effsan_options Options;
  effsan_options_init(&Options);
  Options.log_errors = 0;
  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);

  std::vector<uint32_t> Kinds;
  effsan_set_error_callback(S, abiCallback, &Kinds);

  // struct account { int number[8]; float balance; } via the builder.
  effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);
  effsan_type FloatTy = effsan_type_primitive(S, EFFSAN_PRIM_FLOAT);
  effsan_struct_builder *B = effsan_struct_begin(S, "account");
  effsan_struct_field(B, "number", effsan_type_array(S, IntTy, 8));
  effsan_struct_field(B, "balance", FloatTy);
  effsan_type AccountTy = effsan_struct_end(B);
  ASSERT_NE(AccountTy, nullptr);
  EXPECT_EQ(effsan_type_size(AccountTy), 36u);

  char Name[64];
  EXPECT_STREQ(effsan_type_name(AccountTy, Name, sizeof(Name)),
               "struct account");

  void *P = effsan_malloc(S, (size_t)effsan_type_size(AccountTy),
                          AccountTy);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(effsan_type_of(S, P), AccountTy);

  // type_check as int[] narrows to the number[] sub-object; number[8]
  // is the paper's off-by-one.
  effsan_bounds Bounds = effsan_type_check(S, P, IntTy);
  char *Raw = static_cast<char *>(P);
  EXPECT_EQ(Bounds.hi - Bounds.lo, 8 * sizeof(int));
  effsan_bounds_check(S, Raw + 8 * sizeof(int), sizeof(int), Bounds);

  // Double free through the ABI.
  effsan_free(S, P);
  effsan_free(S, P);

  effsan_counters Counters;
  effsan_get_counters(S, &Counters);
  EXPECT_EQ(Counters.type_checks, 1u);
  EXPECT_EQ(Counters.bounds_checks, 1u);
  EXPECT_EQ(Counters.issues_found, 2u);
  ASSERT_EQ(Kinds.size(), 2u);
  EXPECT_EQ(Kinds[0], (uint32_t)EFFSAN_ERROR_BOUNDS);
  EXPECT_EQ(Kinds[1], (uint32_t)EFFSAN_ERROR_DOUBLE_FREE);

  effsan_session_destroy(S);
}

TEST(EffsanAbiTest, OverflowingAllocationSizesReturnNull) {
  effsan_options Options;
  effsan_options_init(&Options);
  Options.log_errors = 0;
  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);
  std::vector<uint32_t> Kinds;
  effsan_set_error_callback(S, abiCallback, &Kinds);
  effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);

  EXPECT_EQ(effsan_malloc(S, SIZE_MAX - 8, IntTy), nullptr);
  EXPECT_EQ(effsan_calloc(S, SIZE_MAX / 2, 4, IntTy), nullptr);
  void *P = effsan_malloc(S, 16, IntTy);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(effsan_realloc(S, P, SIZE_MAX - 8, IntTy), nullptr);
  EXPECT_EQ(effsan_type_of(S, P), IntTy);
  // The typed stack and globals refuse such sizes the same way.
  effsan_stack_mark Mark = effsan_stack_enter(S);
  EXPECT_EQ(effsan_stack_alloc_typed(S, SIZE_MAX - 8, IntTy, 0), nullptr);
  effsan_stack_leave(S, Mark);
  effsan_global_def Huge = {"huge", UINT64_MAX - 8, IntTy};
  void *Address = &Huge;
  EXPECT_EQ(effsan_globals_register(S, &Huge, 1, &Address), 1u);
  EXPECT_EQ(Address, nullptr);

  effsan_counters Counters;
  effsan_get_counters(S, &Counters);
  EXPECT_EQ(Counters.error_events, 5u);
  for (uint32_t Kind : Kinds)
    EXPECT_EQ(Kind, (uint32_t)EFFSAN_ERROR_RESOURCE_EXHAUSTED);
  EXPECT_FALSE(Kinds.empty());
  effsan_free(S, P);
  effsan_session_destroy(S);
}

TEST(EffsanAbiTest, UnionBuilderThroughTheAbi) {
  // ABI 1.2: unions share the struct builder protocol.
  effsan_options Options;
  effsan_options_init(&Options);
  Options.log_errors = 0;
  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);

  effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);
  effsan_type DoubleTy = effsan_type_primitive(S, EFFSAN_PRIM_DOUBLE);
  effsan_struct_builder *B = effsan_union_begin(S, "number");
  effsan_struct_field(B, "i", IntTy);
  effsan_struct_field(B, "d", DoubleTy);
  effsan_type UnionTy = effsan_struct_end(B);
  ASSERT_NE(UnionTy, nullptr);
  EXPECT_EQ(effsan_type_size(UnionTy), 8u)
      << "union size is the widest member";
  char Name[64];
  EXPECT_STREQ(effsan_type_name(UnionTy, Name, sizeof(Name)),
               "union number");

  void *P = effsan_malloc(S, (size_t)effsan_type_size(UnionTy), UnionTy);
  ASSERT_NE(P, nullptr);
  // Every member's static type matches at offset 0...
  effsan_bounds BI = effsan_type_check(S, P, IntTy);
  effsan_bounds BD = effsan_type_check(S, P, DoubleTy);
  EXPECT_EQ(BD.hi - BD.lo, 8u);
  EXPECT_LE(BI.hi - BI.lo, 8u);
  // ...and no type error was raised.
  effsan_counters Counters;
  effsan_get_counters(S, &Counters);
  EXPECT_EQ(Counters.issues_found, 0u);

  effsan_free(S, P);
  effsan_session_destroy(S);
}

TEST(EffsanAbiTest, FlexibleArrayMemberThroughTheAbi) {
  // ABI 1.2: a FAM tail on the struct builder. struct msg { long len;
  // int data[]; } allocated with a 12-element tail.
  effsan_options Options;
  effsan_options_init(&Options);
  Options.log_errors = 0;
  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);

  effsan_type LongTy = effsan_type_primitive(S, EFFSAN_PRIM_LONG);
  effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);
  effsan_struct_builder *B = effsan_struct_begin(S, "msg");
  effsan_struct_field(B, "len", LongTy);
  effsan_struct_flexible_array(B, "data", IntTy);
  effsan_type MsgTy = effsan_struct_end(B);
  ASSERT_NE(MsgTy, nullptr);
  // The FAM is represented as int[1]: sizeof(msg) == 8 + 4 (+ padding
  // to long alignment).
  EXPECT_EQ(effsan_type_size(MsgTy), 16u);

  size_t Alloc = 8 + 12 * sizeof(int);
  char *P = static_cast<char *>(effsan_malloc(S, Alloc, MsgTy));
  ASSERT_NE(P, nullptr);

  // Element-base pointers into the tail type-check as int[], with
  // bounds clamped to the allocation (element 1's base doubles as the
  // in-struct member's one-past-the-end and keeps that narrower entry,
  // per the paper's FAM-as-member[1] approximation).
  for (int Elem : {0, 2, 5, 11}) {
    effsan_bounds Bd =
        effsan_type_check(S, P + 8 + Elem * sizeof(int), IntTy);
    EXPECT_LE(Bd.lo, reinterpret_cast<uintptr_t>(P + 8)) << Elem;
    EXPECT_EQ(Bd.hi, reinterpret_cast<uintptr_t>(P) + Alloc) << Elem;
  }
  effsan_counters Counters;
  effsan_get_counters(S, &Counters);
  EXPECT_EQ(Counters.issues_found, 0u)
      << "tail elements must not be type errors";

  // An access past the allocation is still caught by bounds_check.
  effsan_bounds Bd = effsan_type_check(S, P + 8, IntTy);
  effsan_bounds_check(S, P + Alloc, sizeof(int), Bd);
  effsan_get_counters(S, &Counters);
  EXPECT_EQ(Counters.issues_found, 1u);

  effsan_free(S, P);
  effsan_session_destroy(S);
}

TEST(EffsanAbiTest, SiteCacheStatsThroughTheAbi) {
  effsan_options Options;
  effsan_options_init(&Options);
  Options.log_errors = 0;
  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);

  effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);
  int *P = (int *)effsan_malloc(S, 100 * sizeof(int), IntTy);
  // Even element indices all normalize to offset 0 (index 1 would be
  // the sizeof(T) domain position with its own resolution).
  for (int I = 0; I < 10; ++I)
    effsan_type_check(S, P + 2 * I, IntTy);
  EXPECT_EQ(effsan_type_check_cache_misses(S), 1u);
  EXPECT_EQ(effsan_type_check_cache_hits(S), 9u);

  effsan_counters Counters;
  effsan_get_counters(S, &Counters);
  EXPECT_EQ(effsan_type_check_cache_hits(S) +
                effsan_type_check_cache_misses(S) +
                Counters.legacy_type_checks,
            Counters.type_checks);

  // Disabling the cache through the 1.2 tail option forces the slow
  // path on every check.
  Options.site_cache_entries = 0;
  effsan_session *S2 = effsan_session_create(&Options);
  ASSERT_NE(S2, nullptr);
  effsan_type IntTy2 = effsan_type_primitive(S2, EFFSAN_PRIM_INT);
  int *Q = (int *)effsan_malloc(S2, 64, IntTy2);
  for (int I = 0; I < 5; ++I)
    effsan_type_check(S2, Q, IntTy2);
  EXPECT_EQ(effsan_type_check_cache_hits(S2), 0u);
  EXPECT_EQ(effsan_type_check_cache_misses(S2), 5u);
  effsan_free(S2, Q);
  effsan_session_destroy(S2);

  effsan_free(S, P);
  effsan_session_destroy(S);
}

TEST(EffsanAbiTest, InvertedBoundsAdmitNoAccess) {
  // effsan_bounds with lo > hi contain nothing: every check against
  // them reports, including ones whose pointer lies between hi and lo
  // or equals lo with size 0.
  for (uint32_t Policy : {EFFSAN_POLICY_FULL, EFFSAN_POLICY_BOUNDS_ONLY}) {
    effsan_options Options;
    effsan_options_init(&Options);
    Options.log_errors = 0;
    Options.policy = Policy;
    effsan_session *S = effsan_session_create(&Options);
    ASSERT_NE(S, nullptr);
    std::vector<uint32_t> Kinds;
    effsan_set_error_callback(S, abiCallback, &Kinds);

    effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);
    int *P = static_cast<int *>(effsan_malloc(S, 4 * sizeof(int), IntTy));
    uintptr_t Lo = reinterpret_cast<uintptr_t>(P);
    effsan_bounds Inverted = {Lo + 4 * sizeof(int), Lo};
    effsan_bounds_check(S, P, sizeof(int), Inverted);
    effsan_bounds_check(S, P + 2, sizeof(int), Inverted);
    effsan_bounds_check(S, P + 4, 0, Inverted);
    effsan_bounds_check_at(S, P + 1, sizeof(int), Inverted, EFFSAN_NO_SITE);
    effsan_bounds_check(S, P + 1, sizeof(int), {Lo + 1, Lo});

    effsan_counters Counters;
    effsan_get_counters(S, &Counters);
    EXPECT_EQ(Counters.bounds_checks, 5u) << Policy;
    EXPECT_EQ(Counters.error_events, 5u) << Policy;
    for (uint32_t Kind : Kinds)
      EXPECT_EQ(Kind, (uint32_t)EFFSAN_ERROR_BOUNDS) << Policy;

    // A type-only session checks no bounds, inverted or not.
    effsan_session_set_policy(S, EFFSAN_POLICY_TYPE_ONLY);
    effsan_bounds_check(S, P, sizeof(int), Inverted);
    effsan_get_counters(S, &Counters);
    EXPECT_EQ(Counters.error_events, 5u) << Policy;

    effsan_free(S, P);
    effsan_session_destroy(S);
  }
}

TEST(EffsanAbiTest, SessionResetThroughTheAbi) {
  effsan_options Options;
  effsan_options_init(&Options);
  Options.log_errors = 0;
  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);

  effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);
  void *First = effsan_malloc(S, 4 * sizeof(int), IntTy);
  effsan_bounds Bounds = effsan_bounds_get(S, First);
  effsan_bounds_check(S, static_cast<int *>(First) + 10, sizeof(int),
                      Bounds);

  effsan_counters Counters;
  effsan_get_counters(S, &Counters);
  ASSERT_EQ(Counters.issues_found, 1u);
  ASSERT_EQ(Counters.bounds_gets, 1u);

  effsan_session_reset(S);

  effsan_get_counters(S, &Counters);
  EXPECT_EQ(Counters.issues_found, 0u);
  EXPECT_EQ(Counters.error_events, 0u);
  EXPECT_EQ(Counters.bounds_gets, 0u);
  EXPECT_EQ(Counters.bounds_checks, 0u);

  // Arena recycled: the first tenant's first address comes back, and
  // type handles stay valid across the reset.
  void *Fresh = effsan_malloc(S, 4 * sizeof(int), IntTy);
  EXPECT_EQ(Fresh, First);
  EXPECT_EQ(effsan_type_of(S, Fresh), IntTy);
  effsan_free(S, Fresh);
  effsan_session_destroy(S);
}

TEST(EffsanAbiTest, PoolCheckoutDrainAndMergedCounters) {
  effsan_pool_options Options;
  effsan_pool_options_init(&Options);
  EXPECT_EQ(Options.struct_size, sizeof(effsan_pool_options));
  Options.shards = 2;
  Options.log_errors = 0;
  effsan_pool *Pool = effsan_pool_create(&Options);
  ASSERT_NE(Pool, nullptr);
  ASSERT_EQ(effsan_pool_num_shards(Pool), 2u);

  std::vector<uint32_t> Kinds;
  effsan_pool_set_error_callback(Pool, abiCallback, &Kinds);

  // Two worker threads, each on its own checked-out shard, trip the
  // same overflow; one supervisor drain reports it once.
  auto Work = [Pool] {
    effsan_session *S = effsan_pool_checkout(Pool);
    ASSERT_NE(S, nullptr);
    EXPECT_EQ(S, effsan_pool_checkout(Pool)) << "sticky per thread";
    effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);
    int *P = static_cast<int *>(effsan_malloc(S, 4 * sizeof(int), IntTy));
    effsan_bounds Bounds = effsan_type_check(S, P, IntTy);
    effsan_bounds_check(S, P + 4, sizeof(int), Bounds);
    effsan_free(S, P);
  };
  std::thread A(Work), B(Work);
  A.join();
  B.join();

  effsan_counters Counters;
  effsan_pool_get_counters(Pool, &Counters); // Implies a drain.
  EXPECT_EQ(Counters.type_checks, 2u);
  EXPECT_EQ(Counters.bounds_checks, 2u);
  EXPECT_EQ(Counters.error_events, 2u);
  EXPECT_EQ(Counters.issues_found, 1u)
      << "same issue from both shards buckets once";
  EXPECT_EQ(Kinds.size(), 1u) << "dedup cap of 1 emits one report";

  // Destroying a checked-out session is a guarded no-op; the pool owns
  // its shards.
  effsan_session_destroy(effsan_pool_shard(Pool, 0));
  EXPECT_NE(effsan_pool_shard(Pool, 1), nullptr);
  EXPECT_EQ(effsan_pool_shard(Pool, 2), nullptr);
  effsan_pool_destroy(Pool);
}

TEST(EffsanAbiTest, DedupCapThroughTheAbi) {
  effsan_options Options;
  effsan_options_init(&Options);
  Options.log_errors = 0;
  Options.max_reports_per_location = 2;
  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);

  std::vector<uint32_t> Kinds;
  effsan_set_error_callback(S, abiCallback, &Kinds);

  effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);
  int *P = static_cast<int *>(effsan_malloc(S, 4 * sizeof(int), IntTy));
  effsan_bounds Bounds = effsan_bounds_get(S, P);
  for (int I = 0; I < 50; ++I)
    effsan_bounds_check(S, P + 10, sizeof(int), Bounds);

  effsan_counters Counters;
  effsan_get_counters(S, &Counters);
  EXPECT_EQ(Kinds.size(), 2u);
  EXPECT_EQ(Counters.error_events, 50u);
  EXPECT_EQ(Counters.reports_suppressed, 48u);

  effsan_free(S, P);
  effsan_session_destroy(S);
}

//===----------------------------------------------------------------------===//
// ABI 1.3: site attribution and back-compat
//===----------------------------------------------------------------------===//

namespace {

struct V2Capture {
  std::vector<std::string> Messages;
  std::vector<uint32_t> Sites;
  std::vector<std::string> Files;
  std::vector<uint32_t> Lines;
};

void abiCallbackV2(const effsan_error_v2 *Error, void *UserData) {
  auto *C = static_cast<V2Capture *>(UserData);
  C->Messages.push_back(Error->message);
  C->Sites.push_back(Error->site);
  C->Files.push_back(Error->file ? Error->file : "");
  C->Lines.push_back(Error->line);
}

} // namespace

TEST(EffsanAbiTest, SiteAttributedReportsThroughTheAbi) {
  effsan_options Options;
  effsan_options_init(&Options);
  Options.log_errors = 0;
  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);

  V2Capture Capture;
  effsan_set_error_callback_v2(S, abiCallbackV2, &Capture);

  effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);
  effsan_site_info Sites[1];
  Sites[0].line = 41;
  Sites[0].column = 7;
  Sites[0].kind = EFFSAN_CHECK_BOUNDS;
  Sites[0].function = "hot_loop";
  Sites[0].static_type = IntTy;
  uint32_t Base = effsan_site_table_register(S, "spec.c", Sites, 1);
  ASSERT_NE(Base, EFFSAN_NO_SITE);

  int *P = static_cast<int *>(effsan_malloc(S, 10 * sizeof(int), IntTy));
  effsan_bounds B = effsan_type_check_at(S, P, IntTy, EFFSAN_NO_SITE);
  for (int I = 0; I < 3; ++I)
    effsan_bounds_check_at(S, P + 10, sizeof(int), B, Base);

  // One deduplicated, fully attributed report.
  ASSERT_EQ(Capture.Messages.size(), 1u);
  EXPECT_EQ(Capture.Messages[0],
            "BOUNDS ERROR at spec.c:41:7 in hot_loop: allocated (int), "
            "accessed via (bounds_check) at offset 40 "
            "[out-of-bounds access]");
  EXPECT_EQ(Capture.Sites[0], Base);
  EXPECT_EQ(Capture.Files[0], "spec.c");
  EXPECT_EQ(Capture.Lines[0], 41u);

  // Per-site counter: every event, not just emitted reports.
  EXPECT_EQ(effsan_site_error_events(S, Base), 3u);
  EXPECT_EQ(effsan_site_error_events(S, Base + 1), 0u);

  effsan_free(S, P);
  effsan_session_destroy(S);
}

TEST(EffsanAbiTest, AbiV13BackCompat) {
  // A caller compiled against the 1.2 header: it passes a 1.2-sized
  // options prefix, never mentions sites, and installs only the v1
  // callback. Everything must behave exactly as it did under 1.2.
  EXPECT_GE(effsan_abi_version(), (1u << 16) | 3u);

  effsan_options Options;
  effsan_options_init(&Options);
  Options.log_errors = 0;
  // The 1.2 struct ended with site_cache_entries; simulate the old
  // footprint by declaring the prefix size only.
  Options.struct_size = static_cast<uint32_t>(
      offsetof(effsan_options, site_cache_entries) +
      sizeof(Options.site_cache_entries));
  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);

  std::vector<uint32_t> Kinds;
  effsan_set_error_callback(S, abiCallback, &Kinds);

  effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);
  int *P = static_cast<int *>(effsan_malloc(S, 4 * sizeof(int), IntTy));
  effsan_bounds B = effsan_type_check(S, P, IntTy);
  effsan_bounds_check(S, P + 4, sizeof(int), B);

  // The v1 callback fires as before; the unsited report keeps the
  // legacy pointer-carrying format.
  ASSERT_EQ(Kinds.size(), 1u);
  EXPECT_EQ(Kinds[0], (uint32_t)EFFSAN_ERROR_BOUNDS);

  effsan_counters Counters;
  effsan_get_counters(S, &Counters);
  EXPECT_EQ(Counters.type_checks, 1u);
  EXPECT_EQ(Counters.bounds_checks, 1u);
  EXPECT_EQ(Counters.issues_found, 1u);

  // 1.2-era cache statistics still work.
  EXPECT_EQ(effsan_type_check_cache_hits(S) +
                effsan_type_check_cache_misses(S),
            1u);

  // Installing a v2 sink does not disturb the v1 sink: both fire for
  // the next fresh bucket (a double free).
  V2Capture Capture;
  effsan_set_error_callback_v2(S, abiCallbackV2, &Capture);
  effsan_free(S, P);
  effsan_free(S, P);
  EXPECT_EQ(Kinds.size(), 2u);
  ASSERT_EQ(Capture.Messages.size(), 1u);
  EXPECT_EQ(Capture.Sites[0], (uint32_t)EFFSAN_NO_SITE)
      << "unsited paths report no site";

  effsan_session_destroy(S);
}

//===----------------------------------------------------------------------===//
// ABI 1.4: allocator fast-path knobs, heap stats, deferred rendering
//===----------------------------------------------------------------------===//

namespace {

/// Drives one caller-sized out-struct through \p Fill with a short
/// and an oversized struct_size: the short caller gets exactly its
/// declared prefix of a full read (every byte past it untouched), and
/// the oversized caller gets the full struct plus a zeroed tail.
template <typename T, typename FillFn>
void expectPrefixContract(FillFn Fill, uint32_t ShortSize) {
  SCOPED_TRACE(ShortSize);
  T Full;
  std::memset(&Full, 0, sizeof(Full));
  Full.struct_size = sizeof(T);
  Fill(&Full);
  ASSERT_EQ(Full.struct_size, sizeof(T));

  T Partial;
  std::memset(&Partial, 0xee, sizeof(Partial));
  Partial.struct_size = ShortSize;
  Fill(&Partial);
  EXPECT_EQ(Partial.struct_size, ShortSize);
  const auto *P = reinterpret_cast<const unsigned char *>(&Partial);
  const auto *F = reinterpret_cast<const unsigned char *>(&Full);
  EXPECT_EQ(std::memcmp(P + sizeof(uint32_t), F + sizeof(uint32_t),
                        ShortSize - sizeof(uint32_t)),
            0)
      << "the declared prefix must match a full read";
  for (size_t I = ShortSize; I < sizeof(T); ++I)
    ASSERT_EQ(P[I], 0xee) << "byte " << I << " is past the declared prefix";

  struct {
    T Known;
    uint64_t Tail;
  } Grown;
  std::memset(&Grown, 0xee, sizeof(Grown));
  Grown.Known.struct_size = sizeof(Grown);
  Fill(&Grown.Known);
  EXPECT_EQ(Grown.Known.struct_size, sizeof(Grown));
  EXPECT_EQ(std::memcmp(reinterpret_cast<const unsigned char *>(&Grown) +
                            sizeof(uint32_t),
                        F + sizeof(uint32_t), sizeof(T) - sizeof(uint32_t)),
            0);
  EXPECT_EQ(Grown.Tail, 0u) << "declared-but-unknown tail must be zeroed";
}

} // namespace

TEST(EffsanAbiTest, HeapStatsAndMagazinesThroughTheAbi) {
  EXPECT_GE(effsan_abi_version(), (1u << 16) | 4u);

  effsan_options Options;
  effsan_options_init(&Options);
  EXPECT_EQ(Options.magazine_size, 16u) << "1.4 default";
  Options.log_errors = 0;
  Options.magazine_size = 8;
  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);

  effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);
  for (int I = 0; I < 50; ++I) {
    void *P = effsan_malloc(S, 64, IntTy);
    effsan_free(S, P);
  }

  effsan_heap_stats Stats;
  std::memset(&Stats, 0, sizeof(Stats));
  Stats.struct_size = sizeof(Stats);
  effsan_get_heap_stats(S, &Stats);
  EXPECT_EQ(Stats.num_allocs, 50u);
  EXPECT_EQ(Stats.num_frees, 50u);
  EXPECT_EQ(Stats.block_bytes_in_use, 0u);
  EXPECT_GT(Stats.magazine_hits, 40u)
      << "steady-state churn must be magazine-served";
  EXPECT_EQ(Stats.exhaust_fallbacks, 0u);

  // A caller-declared prefix (growability contract): only the prefix
  // is written.
  effsan_heap_stats Partial;
  std::memset(&Partial, 0xee, sizeof(Partial));
  Partial.struct_size =
      offsetof(effsan_heap_stats, num_allocs); // Pre-"1.5" caller.
  effsan_get_heap_stats(S, &Partial);
  EXPECT_EQ(Partial.block_bytes_in_use, 0u);
  EXPECT_EQ(Partial.num_allocs, 0xeeeeeeeeeeeeeeeeull)
      << "fields beyond the declared prefix must not be written";

  // A caller built against a FUTURE, larger struct: the tail this
  // library predates must read as zero, never as stack garbage.
  struct Future {
    effsan_heap_stats Known;
    uint64_t NewCounter;
  } Grown;
  std::memset(&Grown, 0xee, sizeof(Grown));
  Grown.Known.struct_size = sizeof(Grown);
  effsan_get_heap_stats(S, &Grown.Known);
  EXPECT_EQ(Grown.Known.num_allocs, 50u);
  EXPECT_EQ(Grown.NewCounter, 0u)
      << "declared-but-unknown tail must be zeroed";

  // The same contract on every other caller-sized out-struct.
  expectPrefixContract<effsan_object_stats>(
      [&](effsan_object_stats *Out) { effsan_get_object_stats(S, Out); },
      offsetof(effsan_object_stats, stack_retired));
  expectPrefixContract<effsan_run_result>(
      [&](effsan_run_result *Out) {
        EXPECT_NE(effsan_run_minic(S, "int main() { return 7; }", nullptr,
                                   Out),
                  0);
      },
      offsetof(effsan_run_result, steps));
  effsan_service_options ServiceOptions;
  effsan_service_options_init(&ServiceOptions);
  ServiceOptions.shards = 1;
  ServiceOptions.log_errors = 0;
  effsan_service *Service = effsan_service_create(&ServiceOptions);
  ASSERT_NE(Service, nullptr);
  effsan_tenant Tenant =
      effsan_service_tenant_open(Service, "prefix", nullptr);
  ASSERT_NE(Tenant, EFFSAN_NO_TENANT);
  expectPrefixContract<effsan_tenant_stats>(
      [&](effsan_tenant_stats *Out) {
        EXPECT_EQ(effsan_service_tenant_stats(Service, Tenant, Out), 1);
      },
      offsetof(effsan_tenant_stats, checks));
  effsan_service_destroy(Service);

  effsan_session_destroy(S);

  // magazine_size = 0 disables the TLS cache entirely.
  Options.magazine_size = 0;
  effsan_session *S0 = effsan_session_create(&Options);
  ASSERT_NE(S0, nullptr);
  effsan_type IntTy0 = effsan_type_primitive(S0, EFFSAN_PRIM_INT);
  for (int I = 0; I < 10; ++I) {
    void *P = effsan_malloc(S0, 64, IntTy0);
    effsan_free(S0, P);
  }
  std::memset(&Stats, 0, sizeof(Stats));
  Stats.struct_size = sizeof(Stats);
  effsan_get_heap_stats(S0, &Stats);
  EXPECT_EQ(Stats.magazine_hits, 0u);
  EXPECT_EQ(Stats.num_allocs, 10u);
  effsan_session_destroy(S0);
}

namespace {

/// Sink for the deferred-rendering test: records whether messages were
/// NULL (must not construct std::string from NULL).
struct DeferCapture {
  unsigned Calls = 0;
  unsigned NullMessages = 0;
};

void deferCallbackV2(const effsan_error_v2 *Error, void *UserData) {
  auto *C = static_cast<DeferCapture *>(UserData);
  ++C->Calls;
  if (!Error->message)
    ++C->NullMessages;
}

} // namespace

TEST(EffsanAbiTest, DeferredRenderingSkipsMessagesInCountMode) {
  effsan_options Options;
  effsan_options_init(&Options);
  Options.log_errors = 0; // Counting mode.
  Options.defer_error_rendering = 1;
  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);

  DeferCapture Capture;
  effsan_set_error_callback_v2(S, deferCallbackV2, &Capture);

  effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);
  int *P = (int *)effsan_malloc(S, 4 * sizeof(int), IntTy);
  effsan_bounds B = effsan_type_check(S, P, IntTy);
  effsan_bounds_check(S, P + 10, sizeof(int), B);

  EXPECT_EQ(Capture.Calls, 1u);
  EXPECT_EQ(Capture.NullMessages, 1u)
      << "deferred rendering must surface NULL, not an empty render";
  effsan_counters Counters;
  effsan_get_counters(S, &Counters);
  EXPECT_EQ(Counters.issues_found, 1u)
      << "counting is unaffected by deferred rendering";
  effsan_free(S, P);
  effsan_session_destroy(S);

  // Default (defer off): messages keep arriving rendered.
  Options.defer_error_rendering = 0;
  effsan_session *S2 = effsan_session_create(&Options);
  ASSERT_NE(S2, nullptr);
  DeferCapture Rendered;
  effsan_set_error_callback_v2(S2, deferCallbackV2, &Rendered);
  effsan_type IntTy2 = effsan_type_primitive(S2, EFFSAN_PRIM_INT);
  int *Q = (int *)effsan_malloc(S2, 4 * sizeof(int), IntTy2);
  effsan_bounds B2 = effsan_type_check(S2, Q, IntTy2);
  effsan_bounds_check(S2, Q + 10, sizeof(int), B2);
  EXPECT_EQ(Rendered.Calls, 1u);
  EXPECT_EQ(Rendered.NullMessages, 0u);
  effsan_free(S2, Q);
  effsan_session_destroy(S2);
}

TEST(EffsanAbiTest, PoolHeapStatsAndStealingThroughTheAbi) {
  effsan_pool_options Options;
  effsan_pool_options_init(&Options);
  EXPECT_EQ(Options.magazine_size, 16u);
  EXPECT_EQ(Options.enable_work_stealing, 0);
  Options.shards = 2;
  Options.log_errors = 0;
  Options.enable_work_stealing = 1;
  Options.magazine_size = 8;
  effsan_pool *Pool = effsan_pool_create(&Options);
  ASSERT_NE(Pool, nullptr);

  effsan_session *Shard0 = effsan_pool_shard(Pool, 0);
  effsan_type IntTy = effsan_type_primitive(Shard0, EFFSAN_PRIM_INT);
  for (int I = 0; I < 30; ++I) {
    void *P = effsan_malloc(Shard0, 64, IntTy);
    effsan_free(Shard0, P);
  }

  effsan_heap_stats ShardStats;
  std::memset(&ShardStats, 0, sizeof(ShardStats));
  ShardStats.struct_size = sizeof(ShardStats);
  effsan_get_heap_stats(Shard0, &ShardStats);
  EXPECT_EQ(ShardStats.num_allocs, 30u);
  EXPECT_GT(ShardStats.magazine_hits, 20u);

  effsan_heap_stats PoolStats;
  std::memset(&PoolStats, 0, sizeof(PoolStats));
  PoolStats.struct_size = sizeof(PoolStats);
  effsan_pool_get_heap_stats(Pool, &PoolStats);
  EXPECT_GE(PoolStats.num_allocs, ShardStats.num_allocs)
      << "pool stats sum over shards";
  EXPECT_EQ(PoolStats.steals, 0u) << "nothing exhausted here";

  effsan_pool_destroy(Pool);
}

} // namespace

//===----------------------------------------------------------------------===//
// Program execution through the ABI (since 1.7)
//===----------------------------------------------------------------------===//

namespace {

/// Collects effsan_run_minic output chunks into a std::string.
void collectOutput(const char *Data, size_t Len, void *UserData) {
  static_cast<std::string *>(UserData)->append(Data, Len);
}

} // namespace

TEST(EffsanAbiTest, RunMinicThroughBothEngines) {
  constexpr const char *Source = R"(
int main() {
  int *a = (int *)malloc(16 * sizeof(int));
  int i;
  for (i = 0; i < 16; i = i + 1)
    a[i] = i;
  int t = 0;
  for (i = 0; i < 16; i = i + 1)
    t = t + a[i];
  print_int(t);
  free(a);
  return t % 100;
}
)";
  effsan_run_result Results[2];
  std::string Outputs[2];
  const uint32_t Engines[2] = {EFFSAN_ENGINE_BYTECODE, EFFSAN_ENGINE_TREE};

  for (int E = 0; E < 2; ++E) {
    effsan_options Options;
    effsan_options_init(&Options);
    EXPECT_EQ(Options.engine, (uint32_t)EFFSAN_ENGINE_BYTECODE)
        << "the VM is the default engine";
    Options.log_errors = 0;
    Options.engine = Engines[E];
    effsan_session *S = effsan_session_create(&Options);
    ASSERT_NE(S, nullptr);
    EXPECT_EQ(effsan_session_engine(S), Engines[E]);

    effsan_run_options Run;
    effsan_run_options_init(&Run);
    Run.output = collectOutput;
    Run.output_user_data = &Outputs[E];

    std::memset(&Results[E], 0, sizeof(Results[E]));
    Results[E].struct_size = sizeof(Results[E]);
    ASSERT_NE(effsan_run_minic(S, Source, &Run, &Results[E]), 0)
        << Results[E].fault;
    EXPECT_NE(Results[E].ok, 0u) << Results[E].fault;
    effsan_session_destroy(S);
  }

  // Differential through the C surface: identical everything but steps.
  EXPECT_EQ(Results[0].exit_code, 120 % 100);
  EXPECT_EQ(Results[0].exit_code, Results[1].exit_code);
  EXPECT_EQ(Results[0].type_checks, Results[1].type_checks);
  EXPECT_EQ(Results[0].bounds_gets, Results[1].bounds_gets);
  EXPECT_EQ(Results[0].bounds_checks, Results[1].bounds_checks);
  EXPECT_EQ(Results[0].bounds_narrows, Results[1].bounds_narrows);
  EXPECT_EQ(Results[0].issues_reported, 0u);
  EXPECT_EQ(Results[1].issues_reported, 0u);
  EXPECT_EQ(Outputs[0], "120\n");
  EXPECT_EQ(Outputs[0], Outputs[1]);
  EXPECT_GT(Results[0].bounds_checks, 16u) << "checks actually executed";
  EXPECT_LT(Results[0].steps, Results[1].steps)
      << "superinstructions retire more work per step";
}

TEST(EffsanAbiTest, RunMinicReportsIntoTheSession) {
  effsan_options Options;
  effsan_options_init(&Options);
  Options.log_errors = 0;
  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);

  effsan_run_result R;
  std::memset(&R, 0, sizeof(R));
  R.struct_size = sizeof(R);
  ASSERT_NE(effsan_run_minic(S, R"(
int main() {
  int *p = (int *)malloc(8 * sizeof(int));
  float *q = (float *)p;   /* bad cast */
  float f = *q;
  free(p);
  return (int)f;
}
)",
                             nullptr, &R),
            0)
      << R.fault;
  EXPECT_NE(R.ok, 0u) << "logging mode: errors reported, run continues";
  EXPECT_GE(R.issues_reported, 1u);

  // The run's issues land in the session's counters, like API checks.
  effsan_counters Counters;
  effsan_get_counters(S, &Counters);
  EXPECT_GE(Counters.issues_found, 1u);
  EXPECT_GE(Counters.type_checks, 1u);
  effsan_session_destroy(S);
}

TEST(EffsanAbiTest, RunMinicCompileErrorAndFaultPaths) {
  effsan_options Options;
  effsan_options_init(&Options);
  Options.log_errors = 0;
  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);

  // Frontend error: returns 0, fault carries the diagnostic.
  effsan_run_result R;
  std::memset(&R, 0, sizeof(R));
  R.struct_size = sizeof(R);
  EXPECT_EQ(effsan_run_minic(S, "int main() { return missing; }",
                             nullptr, &R),
            0);
  EXPECT_EQ(R.ok, 0u);
  EXPECT_NE(std::string(R.fault).find("missing"), std::string::npos)
      << R.fault;

  // VM fault: budget exhaustion surfaces through ok=0 + fault text.
  effsan_run_options Run;
  effsan_run_options_init(&Run);
  Run.max_steps = 5000;
  std::memset(&R, 0, sizeof(R));
  R.struct_size = sizeof(R);
  ASSERT_NE(effsan_run_minic(S, "int main() { while (1) { } return 0; }",
                             &Run, &R),
            0);
  EXPECT_EQ(R.ok, 0u);
  EXPECT_NE(std::string(R.fault).find("budget"), std::string::npos)
      << R.fault;
  effsan_session_destroy(S);
}

TEST(EffsanAbiTest, PoolShardsInheritThePoolEngine) {
  effsan_pool_options Options;
  effsan_pool_options_init(&Options);
  EXPECT_EQ(Options.engine, (uint32_t)EFFSAN_ENGINE_BYTECODE);
  Options.log_errors = 0;
  Options.shards = 2;
  Options.engine = EFFSAN_ENGINE_TREE;
  effsan_pool *Pool = effsan_pool_create(&Options);
  ASSERT_NE(Pool, nullptr);
  for (uint32_t I = 0; I < effsan_pool_num_shards(Pool); ++I)
    EXPECT_EQ(effsan_session_engine(effsan_pool_shard(Pool, I)),
              (uint32_t)EFFSAN_ENGINE_TREE);

  // Shard sessions run programs like owned sessions do.
  effsan_run_result R;
  std::memset(&R, 0, sizeof(R));
  R.struct_size = sizeof(R);
  ASSERT_NE(effsan_run_minic(effsan_pool_shard(Pool, 0),
                             "int main() { return 7; }", nullptr, &R),
            0)
      << R.fault;
  EXPECT_NE(R.ok, 0u);
  EXPECT_EQ(R.exit_code, 7);
  effsan_pool_destroy(Pool);
}

//===- tests/stackglobal_test.cpp - Typed stack & global object tests -----===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The typed stack & global object error classes, end to end:
///
///  * a differential sweep of the four new error programs — stack
///    use-after-return, stack out-of-bounds, global out-of-bounds and
///    global type confusion — through the tree-walking interpreter and
///    the bytecode VM, under every instrumentation variant and with
///    superinstruction fusion on and off, asserting identical exit
///    codes, check counts, fault strings and error-report streams, and
///    pinning the exact paper-style report text;
///
///  * a TSan-targeted stress test of the per-thread stack pools (each
///    owned by the thread's CheckContext block) under concurrent frame
///    churn interleaved with Runtime::reset (the session-reset /
///    tenant-eviction / shard-recycle path): reset abandons every
///    pool, so nothing is replayed into the recycled arena;
///
///  * pool lifetime: a thread that outlives its runtime, a new runtime
///    at a dead one's address, and an exited thread's block adopted
///    with its counts;
///
///  * ABI 1.8 back-compat: 1.6/1.7-sized effsan_options and
///    effsan_pool_options prefixes are still accepted, the growable
///    effsan_object_stats tail follows the caller-sized prefix
///    contract, and the new stack/global entry points behave through
///    the C ABI exactly as they do in-process.
///
//===----------------------------------------------------------------------===//

#include "api/effsan.h"
#include "bytecode/Compiler.h"
#include "bytecode/VM.h"
#include "core/Runtime.h"
#include "instrument/Pipeline.h"
#include "interp/Interp.h"

#include <gtest/gtest.h>

#include <barrier>
#include <cctype>
#include <cstddef>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace effective;
using namespace effective::instrument;

namespace {

//===----------------------------------------------------------------------===//
// Differential harness (the bytecode_test.cpp contract)
//===----------------------------------------------------------------------===//

/// Replaces hex pointer renderings ("0x1a2b...") with "<ptr>" so legacy
/// (unattributed) report lines compare equal across runtimes with
/// different arena placements. Site-attributed reports are address-free
/// by design.
std::string normalizePointers(std::string_view In) {
  std::string Out;
  for (size_t I = 0; I < In.size();) {
    if (I + 1 < In.size() && In[I] == '0' &&
        (In[I + 1] == 'x' || In[I + 1] == 'X')) {
      size_t J = I + 2;
      while (J < In.size() && std::isxdigit(static_cast<unsigned char>(In[J])))
        ++J;
      if (J > I + 2) {
        Out += "<ptr>";
        I = J;
        continue;
      }
    }
    Out += In[I++];
  }
  return Out;
}

/// One engine's observable behavior: the RunResult plus the full
/// error-report stream and per-kind bucket counts.
struct EngineRun {
  interp::RunResult R;
  std::vector<std::string> Msgs;
  uint64_t TypeErrors = 0;
  uint64_t BoundsErrors = 0;
  uint64_t UafErrors = 0;
  uint64_t DoubleFrees = 0;
  uint64_t StackUarErrors = 0;
};

enum class Engine { Tree, Bytecode };

/// Runs \p C on \p E against a fresh runtime, capturing every emitted
/// report in order.
EngineRun runEngine(TypeContext &Types, const CompileResult &C, Engine E) {
  EngineRun Out;
  RuntimeOptions RTOpts;
  RTOpts.Reporter.Mode = ReportMode::Count;
  RTOpts.Reporter.Callback = [](const ErrorInfo &, const char *Message,
                                void *User) {
    static_cast<std::vector<std::string> *>(User)->push_back(
        normalizePointers(Message ? Message : ""));
  };
  RTOpts.Reporter.CallbackUserData = &Out.Msgs;
  Runtime RT(Types, RTOpts);

  Out.R = E == Engine::Bytecode ? bytecode::run(*C.BC, RT, {})
                                : interp::run(*C.M, RT, {});
  Out.TypeErrors = RT.reporter().numIssues(ErrorKind::TypeError);
  Out.BoundsErrors = RT.reporter().numIssues(ErrorKind::BoundsError);
  Out.UafErrors = RT.reporter().numIssues(ErrorKind::UseAfterFree);
  Out.DoubleFrees = RT.reporter().numIssues(ErrorKind::DoubleFree);
  Out.StackUarErrors =
      RT.reporter().numIssues(ErrorKind::StackUseAfterReturn);
  return Out;
}

/// Everything must match except Steps (fusion changes instruction
/// granularity, not behavior).
void expectSameBehavior(const EngineRun &T, const EngineRun &B,
                        const std::string &Label) {
  EXPECT_EQ(T.R.Ok, B.R.Ok) << Label;
  EXPECT_EQ(normalizePointers(T.R.Fault), normalizePointers(B.R.Fault))
      << Label;
  EXPECT_EQ(T.R.ExitCode, B.R.ExitCode) << Label;
  EXPECT_EQ(T.R.Output, B.R.Output) << Label;
  EXPECT_EQ(T.R.Checks.TypeChecks, B.R.Checks.TypeChecks) << Label;
  EXPECT_EQ(T.R.Checks.BoundsGets, B.R.Checks.BoundsGets) << Label;
  EXPECT_EQ(T.R.Checks.BoundsChecks, B.R.Checks.BoundsChecks) << Label;
  EXPECT_EQ(T.R.Checks.BoundsNarrows, B.R.Checks.BoundsNarrows) << Label;
  EXPECT_EQ(T.R.IssuesReported, B.R.IssuesReported) << Label;
  EXPECT_EQ(T.TypeErrors, B.TypeErrors) << Label;
  EXPECT_EQ(T.BoundsErrors, B.BoundsErrors) << Label;
  EXPECT_EQ(T.UafErrors, B.UafErrors) << Label;
  EXPECT_EQ(T.DoubleFrees, B.DoubleFrees) << Label;
  EXPECT_EQ(T.StackUarErrors, B.StackUarErrors) << Label;
  EXPECT_EQ(T.Msgs, B.Msgs) << Label;
}

constexpr Variant AllVariants[] = {Variant::None, Variant::Type,
                                   Variant::Bounds, Variant::Full};

/// Compiles \p Source under \p V (optionally without superinstruction
/// fusion), diffs the two engines, and returns the tree run for
/// content assertions.
EngineRun diffProgram(const char *Name, const char *Source, Variant V,
                      bool Fused = true) {
  std::string Label = std::string(Name) + " [" +
                      std::string(variantName(V)) +
                      (Fused ? "" : " unfused") + "]";
  TypeContext Types;
  DiagnosticEngine Diags;
  InstrumentOptions Opts;
  Opts.V = V;
  CompileResult C = compileMiniC(Source, Types, Diags, Opts);
  for (const Diagnostic &D : Diags.diagnostics())
    ADD_FAILURE() << Label << ": " << D.Loc.Line << ":" << D.Loc.Column
                  << ": " << D.Message;
  EXPECT_TRUE(C.M) << Label;
  EXPECT_TRUE(C.BC) << Label << ": pipeline produced no bytecode";
  if (!C.M || !C.BC)
    return EngineRun();

  if (!Fused) {
    std::string Error;
    bytecode::CompileOptions BcOpts;
    BcOpts.FuseChecks = false;
    C.BC = bytecode::compile(*C.M, &Error, BcOpts);
    EXPECT_TRUE(C.BC) << Label << ": " << Error;
    if (!C.BC)
      return EngineRun();
  }

  EngineRun T = runEngine(Types, C, Engine::Tree);
  EngineRun B = runEngine(Types, C, Engine::Bytecode);
  expectSameBehavior(T, B, Label);
  return T;
}

//===----------------------------------------------------------------------===//
// The four error-class programs
//===----------------------------------------------------------------------===//

/// An escaping frame-local used after its frame returned. The callee's
/// slot is rebound to STACK-FREE at frame pop and parks in the
/// use-after-return quarantine (main's frame is still live), so the
/// dangling pointer faults as a stack use-after-return — its own error
/// class, distinct from heap UAF.
constexpr const char *StackUarSource = R"(
int *escape() {
  int local[4];
  local[0] = 9;
  int *p = local;
  return p;
}
int main() {
  int *p = escape();
  return *p;
}
)";

/// An off-by-one on a frame-local array. Stack slots carry full METAs,
/// so the overflow reports exactly like a heap bounds error.
constexpr const char *StackOobSource = R"(
int main() {
  int a[4];
  int i;
  for (i = 0; i <= 4; i = i + 1)
    a[i] = i;
  return a[0];
}
)";

/// An off-by-one on a module global. Globals are registered through the
/// typed global allocator at module load, so base(p)/size(p) and the
/// META header work exactly as for heap objects.
constexpr const char *GlobalOobSource = R"(
int g_table[8];
int main() {
  int i;
  for (i = 0; i <= 8; i = i + 1)
    g_table[i] = i;
  return g_table[3];
}
)";

/// A C cast reinterpreting a global struct as the wrong type. The
/// global's dynamic type comes from its registered META, so the
/// type_check at the cast-derived use faults like any heap confusion.
constexpr const char *GlobalConfusionSource = R"(
struct config { int verbose; int flags; };
struct config g_config;
int main() {
  g_config.verbose = 1;
  double *d = (double *)&g_config;
  double v = *d;
  return v == 0.0;
}
)";

struct ErrorProgram {
  const char *Name;
  const char *Source;
};

constexpr ErrorProgram ErrorPrograms[] = {
    {"StackUseAfterReturn", StackUarSource},
    {"StackOutOfBounds", StackOobSource},
    {"GlobalOutOfBounds", GlobalOobSource},
    {"GlobalTypeConfusion", GlobalConfusionSource},
};

} // namespace

//===----------------------------------------------------------------------===//
// Differential sweep: both engines, all variants, fused and unfused
//===----------------------------------------------------------------------===//

TEST(StackGlobalDifferential, AllErrorClassesAllVariants) {
  for (const ErrorProgram &P : ErrorPrograms)
    for (Variant V : AllVariants)
      diffProgram(P.Name, P.Source, V);
}

TEST(StackGlobalDifferential, AllErrorClassesUnfused) {
  for (const ErrorProgram &P : ErrorPrograms)
    diffProgram(P.Name, P.Source, Variant::Full, /*Fused=*/false);
}

//===----------------------------------------------------------------------===//
// Exact paper-style reports, identical under both engines
//===----------------------------------------------------------------------===//

TEST(StackGlobalReports, StackUseAfterReturnIsItsOwnErrorClass) {
  EngineRun T = diffProgram("StackUseAfterReturn", StackUarSource,
                            Variant::Full);
  ASSERT_TRUE(T.R.Ok) << T.R.Fault;
  EXPECT_EQ(T.R.ExitCode, 9) << "the stale value is still readable "
                                "(quarantine delays reuse)";
  EXPECT_EQ(T.StackUarErrors, 1u);
  EXPECT_EQ(T.UafErrors, 0u) << "not a heap use-after-free";
  ASSERT_EQ(T.Msgs.size(), 1u);
  EXPECT_EQ(T.Msgs[0],
            "STACK USE-AFTER-RETURN ERROR at <minic>:9:12 in main: "
            "allocated (<stack-free>), used as (int) at offset 0 "
            "[use of stack object after frame return]");
}

TEST(StackGlobalReports, StackOutOfBounds) {
  EngineRun T = diffProgram("StackOutOfBounds", StackOobSource,
                            Variant::Full);
  ASSERT_TRUE(T.R.Ok) << T.R.Fault;
  EXPECT_EQ(T.BoundsErrors, 1u);
  ASSERT_EQ(T.Msgs.size(), 1u);
  EXPECT_EQ(T.Msgs[0],
            "BOUNDS ERROR at <minic>:6:10 in main: allocated (int), "
            "accessed via (bounds_check) at offset 16 "
            "[out-of-bounds access]");
}

TEST(StackGlobalReports, GlobalOutOfBounds) {
  EngineRun T = diffProgram("GlobalOutOfBounds", GlobalOobSource,
                            Variant::Full);
  ASSERT_TRUE(T.R.Ok) << T.R.Fault;
  EXPECT_EQ(T.R.ExitCode, 3);
  EXPECT_EQ(T.BoundsErrors, 1u);
  ASSERT_EQ(T.Msgs.size(), 1u);
  EXPECT_EQ(T.Msgs[0],
            "BOUNDS ERROR at <minic>:6:16 in main: allocated (int), "
            "accessed via (bounds_check) at offset 32 "
            "[out-of-bounds access]");
}

TEST(StackGlobalReports, GlobalTypeConfusion) {
  EngineRun T = diffProgram("GlobalTypeConfusion", GlobalConfusionSource,
                            Variant::Full);
  ASSERT_TRUE(T.R.Ok) << T.R.Fault;
  EXPECT_EQ(T.TypeErrors, 1u);
  ASSERT_EQ(T.Msgs.size(), 1u);
  EXPECT_EQ(T.Msgs[0],
            "TYPE ERROR at <minic>:6:15 in main: allocated "
            "(struct config), used as (double) at offset 0");
}

TEST(StackGlobalReports, VariantBlindSpotsMatchThePaper) {
  // -bounds instruments every access input event, so the STACK-FREE
  // type surfaces at its bounds_get; -type instruments casts only and
  // is blind to a cast-free use-after-return but sees the global
  // confusion. Uninstrumented sees nothing.
  EngineRun T;

  T = diffProgram("StackUseAfterReturn", StackUarSource, Variant::Bounds);
  EXPECT_EQ(T.StackUarErrors, 1u);
  ASSERT_EQ(T.Msgs.size(), 1u);
  EXPECT_EQ(T.Msgs[0],
            "STACK USE-AFTER-RETURN ERROR at <minic>:9:12 in main: "
            "allocated (<stack-free>), accessed via (bounds_get) at "
            "offset 0 [use of stack object after frame return]");
  T = diffProgram("StackUseAfterReturn", StackUarSource, Variant::Type);
  EXPECT_EQ(T.StackUarErrors, 0u) << "no cast to check";
  T = diffProgram("StackUseAfterReturn", StackUarSource, Variant::None);
  EXPECT_EQ(T.StackUarErrors, 0u);

  T = diffProgram("GlobalOutOfBounds", GlobalOobSource, Variant::Bounds);
  EXPECT_EQ(T.BoundsErrors, 1u);
  T = diffProgram("GlobalOutOfBounds", GlobalOobSource, Variant::Type);
  EXPECT_EQ(T.BoundsErrors, 0u);

  T = diffProgram("GlobalTypeConfusion", GlobalConfusionSource,
                  Variant::Type);
  EXPECT_EQ(T.TypeErrors, 1u) << "the C cast is checked";
  T = diffProgram("GlobalTypeConfusion", GlobalConfusionSource,
                  Variant::Bounds);
  EXPECT_EQ(T.TypeErrors, 0u);
  T = diffProgram("GlobalTypeConfusion", GlobalConfusionSource,
                  Variant::None);
  EXPECT_EQ(T.TypeErrors, 0u);
}

//===----------------------------------------------------------------------===//
// Block-owned stack pools under concurrent reset (TSan target)
//===----------------------------------------------------------------------===//

TEST(StackPoolStress, FrameChurnAcrossSessionResets) {
  // Worker threads churn stack frames on a shared runtime; between
  // barrier-delimited phases the main thread recycles the session with
  // Runtime::reset() (the tenant-eviction path). Every reset rewinds
  // the arena and abandons each worker's stack pool — its recorded
  // slots discarded, never freed or replayed into the recycled arena —
  // so each worker starts a fresh pool in the next phase. Run under
  // TSan, this pins that handoff; the counter checks below pin that
  // the final phase's pools were fresh.
  constexpr int Workers = 4;
  constexpr int Phases = 3;
  constexpr int FramesPerPhase = 64;
  constexpr int AllocsPerFrame = 4; // Alternating escaping/plain.

  TypeContext Types;
  RuntimeOptions Opts;
  Opts.Reporter.Mode = ReportMode::Count;
  Runtime RT(Types, Opts);
  const TypeInfo *IntTy = Types.getInt();

  std::barrier PhaseStart(Workers + 1);
  std::barrier PhaseEnd(Workers + 1);

  std::vector<std::thread> Threads;
  Threads.reserve(Workers);
  for (int W = 0; W < Workers; ++W)
    Threads.emplace_back([&, W] {
      for (int Ph = 0; Ph < Phases; ++Ph) {
        PhaseStart.arrive_and_wait();
        for (int F = 0; F < FramesPerPhase; ++F) {
          size_t Mark = RT.stackMark();
          int *Slots[AllocsPerFrame];
          for (int A = 0; A < AllocsPerFrame; ++A) {
            bool Escapes = (A & 1) != 0;
            Slots[A] = static_cast<int *>(
                RT.stackAllocate(8 * sizeof(int), IntTy, Escapes));
            Slots[A][0] = W * 100000 + Ph * 1000 + F;
            Slots[A][7] = A;
          }
          for (int A = 0; A < AllocsPerFrame; ++A) {
            EXPECT_EQ(Slots[A][0], W * 100000 + Ph * 1000 + F)
                << "live frame slot must never alias another frame";
            EXPECT_EQ(Slots[A][7], A);
          }
          RT.stackRelease(Mark);
        }
        // All frames closed before the main thread may reset.
        PhaseEnd.arrive_and_wait();
      }
    });

  for (int Ph = 0; Ph < Phases; ++Ph) {
    PhaseStart.arrive_and_wait();
    PhaseEnd.arrive_and_wait();
    // Workers are parked with no outstanding frames (the reset
    // precondition); recycle the session for the next "tenant".
    if (Ph + 1 < Phases)
      RT.reset();
  }
  for (std::thread &T : Threads)
    T.join();

  // reset() drops the pools and their counts, so the totals reflect
  // exactly the final phase run on post-reset (fresh) pools.
  CheckCounters::StackTotals OC = RT.counters().stackTotals();
  EXPECT_EQ(OC.Allocs,
            uint64_t(Workers) * FramesPerPhase * AllocsPerFrame);
  EXPECT_EQ(OC.Frames,
            uint64_t(Workers) * FramesPerPhase);
  EXPECT_EQ(OC.Retired,
            uint64_t(Workers) * FramesPerPhase * (AllocsPerFrame / 2))
      << "every escaping slot of the final phase retired through the "
         "quarantine";
}

TEST(StackPoolStress, ShardRecycleWithConcurrentSiblingChurn) {
  // Two runtimes over shards of one shared heap (the SessionPool
  // building block). Shard 1's workers churn frames continuously while
  // shard 0 is repeatedly recycled between its own quiescent points —
  // pinning that one shard's reset never disturbs a sibling shard's
  // live stack pools.
  constexpr int Cycles = 16;
  constexpr int FramesPerCycle = 32;

  TypeContext Types;
  lowfat::HeapOptions HeapOpts;
  HeapOpts.NumShards = 2;
  lowfat::LowFatHeap Heap(HeapOpts);
  RuntimeOptions Opts;
  Opts.Reporter.Mode = ReportMode::Count;
  Runtime RT0(Types, Heap, /*Shard=*/0, Opts);
  Runtime RT1(Types, Heap, /*Shard=*/1, Opts);
  const TypeInfo *IntTy = Types.getInt();

  std::atomic<bool> Stop{false};
  std::thread Sibling([&] {
    // At least a few hundred frames even if the recycling loop wins
    // the race, so the overlap window is never empty.
    uint64_t Seq = 0;
    while (Seq < 512 || !Stop.load(std::memory_order_acquire)) {
      size_t Mark = RT1.stackMark();
      auto *P = static_cast<uint64_t *>(
          RT1.stackAllocate(sizeof(uint64_t), IntTy, /*Escapes=*/true));
      *P = ++Seq;
      EXPECT_EQ(*P, Seq);
      RT1.stackRelease(Mark);
    }
  });

  for (int C = 0; C < Cycles; ++C) {
    for (int F = 0; F < FramesPerCycle; ++F) {
      size_t Mark = RT0.stackMark();
      auto *P = static_cast<int *>(
          RT0.stackAllocate(16 * sizeof(int), IntTy, /*Escapes=*/true));
      P[0] = C;
      P[15] = F;
      RT0.stackRelease(Mark);
    }
    RT0.reset(); // Shard 0 quiescent; shard 1 keeps running.
  }
  Stop.store(true, std::memory_order_release);
  Sibling.join();

  EXPECT_EQ(RT0.counters().stackTotals().Allocs, 0u)
      << "the final reset cleared shard 0's counters";
  EXPECT_GT(RT1.counters().stackTotals().Allocs, 0u);
}

//===----------------------------------------------------------------------===//
// Stack pool lifetime: one pool per (thread, runtime) block
//===----------------------------------------------------------------------===//

TEST(StackPoolLifetime, ThreadOutlivesItsRuntime) {
  // A thread leaves a frame open (an escaping and a plain slot) while
  // its runtime is destroyed, then exits. The runtime tears the pool
  // down while its heap still lives; thread exit must not touch the
  // pool or the dead heap (ASan reports a heap-use-after-free if it
  // does).
  TypeContext Types;
  RuntimeOptions Opts;
  Opts.Reporter.Mode = ReportMode::Count;
  auto RT = std::make_unique<Runtime>(Types, Opts);
  const TypeInfo *IntTy = Types.getInt();
  std::barrier Step(2);

  std::thread Worker([&] {
    RT->stackMark();
    auto *Escaping =
        static_cast<int *>(RT->stackAllocate(sizeof(int), IntTy, true));
    auto *Plain =
        static_cast<int *>(RT->stackAllocate(sizeof(int), IntTy, false));
    *Escaping = 1;
    *Plain = 2;
    Step.arrive_and_wait(); // Frame open.
    Step.arrive_and_wait(); // Runtime destroyed; exit with the frame open.
  });
  Step.arrive_and_wait();
  EXPECT_EQ(RT->counters().stackTotals().Allocs, 2u);
  RT.reset();
  Step.arrive_and_wait();
  Worker.join();
}

TEST(StackPoolLifetime, NewRuntimeAtDeadAddressGetsFreshPool) {
  // A thread's frame is left open in a runtime that is destroyed and
  // rebuilt in the same storage. The thread's next stack operation
  // sees the new runtime's own, empty pool.
  TypeContext Types;
  RuntimeOptions Opts;
  Opts.Reporter.Mode = ReportMode::Count;
  std::optional<Runtime> RT;
  RT.emplace(Types, Opts);
  const TypeInfo *IntTy = Types.getInt();
  std::barrier Step(2);

  std::thread Worker([&] {
    RT->stackMark();
    EXPECT_NE(RT->stackAllocate(8 * sizeof(int), IntTy, true), nullptr);
    EXPECT_EQ(RT->stackMark(), 1u);
    Step.arrive_and_wait(); // Frame open.
    Step.arrive_and_wait(); // A new runtime at the same address.
    EXPECT_EQ(RT->stackMark(), 0u) << "the dead runtime's pool leaked in";
    size_t Mark = RT->stackMark();
    auto *P = static_cast<int *>(RT->stackAllocate(sizeof(int), IntTy));
    ASSERT_NE(P, nullptr);
    *P = 7;
    EXPECT_EQ(RT->dynamicTypeOf(P), IntTy);
    RT->stackRelease(Mark);
  });
  Step.arrive_and_wait();
  Runtime *Old = &*RT;
  RT.reset();
  RT.emplace(Types, Opts);
  ASSERT_EQ(&*RT, Old);
  Step.arrive_and_wait();
  Worker.join();

  CheckCounters::StackTotals T = RT->counters().stackTotals();
  EXPECT_EQ(T.Allocs, 1u);
  EXPECT_EQ(T.Frames, 1u);
  EXPECT_EQ(T.Retired, 0u);
}

TEST(StackPoolLifetime, ExitedThreadsBlockIsAdoptedWithItsCounts) {
  // A thread exits with balanced frames; the runtime's next new thread
  // adopts its block, pool included, at mark 0. The exited thread's
  // stack counts stay in the summed stats.
  TypeContext Types;
  RuntimeOptions Opts;
  Opts.Reporter.Mode = ReportMode::Count;
  Runtime RT(Types, Opts);
  const TypeInfo *IntTy = Types.getInt();

  auto Frame = [&](bool Escapes) {
    size_t Mark = RT.stackMark();
    ASSERT_NE(RT.stackAllocate(sizeof(int), IntTy, Escapes), nullptr);
    RT.stackRelease(Mark);
  };
  std::thread([&] {
    Frame(true);
    Frame(false);
  }).join();
  ASSERT_EQ(RT.counters().numBlocks(), 1u);

  std::thread([&] {
    EXPECT_EQ(RT.stackMark(), 0u);
    EXPECT_EQ(RT.counters().numBlocks(), 1u)
        << "the new thread adopts the exited thread's block";
    Frame(true);
  }).join();

  CheckCounters::StackTotals T = RT.counters().stackTotals();
  EXPECT_EQ(T.Allocs, 3u);
  EXPECT_EQ(T.Frames, 3u);
  EXPECT_EQ(T.Retired, 2u);
}

//===----------------------------------------------------------------------===//
// ABI 1.8: back-compat prefixes and the new entry points
//===----------------------------------------------------------------------===//

namespace {

void kindCallback(const effsan_error *Error, void *UserData) {
  static_cast<std::vector<uint32_t> *>(UserData)->push_back(Error->kind);
}

} // namespace

TEST(StackGlobalAbi, StackObjectsThroughTheAbi) {
  EXPECT_GE(effsan_abi_version(), (1u << 16) | 8u);

  effsan_options Options;
  effsan_options_init(&Options);
  Options.log_errors = 0;
  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);
  std::vector<uint32_t> Kinds;
  effsan_set_error_callback(S, kindCallback, &Kinds);

  effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);

  // The caller (an instrumented function prologue) opens an outer
  // frame with a live local, then a callee frame whose escaping slot
  // outlives it.
  effsan_stack_mark Outer = effsan_stack_enter(S);
  int *Local = static_cast<int *>(
      effsan_stack_alloc_typed(S, 4 * sizeof(int), IntTy, /*escapes=*/0));
  ASSERT_NE(Local, nullptr);
  Local[0] = 7;

  effsan_stack_mark Inner = effsan_stack_enter(S);
  int *Escaped = static_cast<int *>(
      effsan_stack_alloc_typed(S, 4 * sizeof(int), IntTy, /*escapes=*/1));
  ASSERT_NE(Escaped, nullptr);
  Escaped[0] = 9;
  effsan_stack_leave(S, Inner);

  // The quarantine delayed reuse, so the dangling pointer still
  // addresses the (now STACK-FREE) block and the next input event
  // faults as a stack use-after-return.
  EXPECT_EQ(Escaped[0], 9);
  effsan_type_check(S, Escaped, IntTy);
  ASSERT_EQ(Kinds.size(), 1u);
  EXPECT_EQ(Kinds[0], (uint32_t)EFFSAN_ERROR_STACK_USE_AFTER_RETURN);

  // The live outer local is untouched by the callee's retirement.
  effsan_bounds B = effsan_type_check(S, Local, IntTy);
  effsan_bounds_check(S, Local, sizeof(int), B);
  EXPECT_EQ(Local[0], 7);
  EXPECT_EQ(Kinds.size(), 1u);

  effsan_stack_leave(S, Outer);

  effsan_object_stats Stats;
  std::memset(&Stats, 0, sizeof(Stats));
  Stats.struct_size = sizeof(Stats);
  effsan_get_object_stats(S, &Stats);
  EXPECT_EQ(Stats.stack_allocs, 2u);
  EXPECT_EQ(Stats.stack_frames, 2u);
  EXPECT_EQ(Stats.stack_retired, 1u) << "only the escaping slot";

  effsan_session_destroy(S);
}

TEST(StackGlobalAbi, GlobalsRegisterThroughTheAbi) {
  effsan_options Options;
  effsan_options_init(&Options);
  Options.log_errors = 0;
  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);
  std::vector<uint32_t> Kinds;
  effsan_set_error_callback(S, kindCallback, &Kinds);

  effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);
  effsan_type DblTy = effsan_type_primitive(S, EFFSAN_PRIM_DOUBLE);

  effsan_global_def Defs[2];
  Defs[0].name = "g_table";
  Defs[0].size = 8 * sizeof(int);
  Defs[0].type = IntTy;
  Defs[1].name = "g_scale";
  Defs[1].size = sizeof(double);
  Defs[1].type = DblTy;
  void *Addrs[2] = {nullptr, nullptr};
  ASSERT_EQ(effsan_globals_register(S, Defs, 2, Addrs), 2u);
  ASSERT_NE(Addrs[0], nullptr);
  ASSERT_NE(Addrs[1], nullptr);

  // Module globals are zero-initialized.
  int *Table = static_cast<int *>(Addrs[0]);
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(Table[I], 0);

  // base(p)/size(p) are O(1) for globals like any low-fat allocation:
  // a type_check mid-object yields the right sub-object bounds, and an
  // off-by-one access faults as a global out-of-bounds.
  effsan_bounds B = effsan_type_check(S, Table + 3, IntTy);
  effsan_bounds_check(S, Table + 3, sizeof(int), B);
  EXPECT_TRUE(Kinds.empty());
  effsan_bounds_check(S, Table + 8, sizeof(int), B);
  ASSERT_EQ(Kinds.size(), 1u);
  EXPECT_EQ(Kinds[0], (uint32_t)EFFSAN_ERROR_BOUNDS);

  // Global type confusion: the registered META drives the check.
  effsan_type_check(S, Addrs[0], DblTy);
  ASSERT_EQ(Kinds.size(), 2u);
  EXPECT_EQ(Kinds[1], (uint32_t)EFFSAN_ERROR_TYPE);

  effsan_object_stats Stats;
  std::memset(&Stats, 0, sizeof(Stats));
  Stats.struct_size = sizeof(Stats);
  effsan_get_object_stats(S, &Stats);
  EXPECT_EQ(Stats.global_objects, 2u);
  EXPECT_EQ(Stats.global_bytes, 8 * sizeof(int) + sizeof(double));

  // Degenerate inputs are rejected, not crashed on.
  EXPECT_EQ(effsan_globals_register(S, nullptr, 1, Addrs), 0u);
  EXPECT_EQ(effsan_globals_register(S, Defs, 0, Addrs), 0u);
  EXPECT_EQ(effsan_globals_register(S, Defs, 1, nullptr), 0u);

  effsan_session_destroy(S);
}

TEST(StackGlobalAbi, Abi17OptionsPrefixesStillAccepted) {
  // A caller compiled against the 1.7 header passes today's full
  // struct; a 1.6-era caller's struct ended before `engine`. Both
  // prefixes must create working sessions, and the 1.8 entry points
  // must work on them.
  EXPECT_GE(effsan_abi_version(), (1u << 16) | 8u);

  const uint32_t Sizes[] = {
      static_cast<uint32_t>(sizeof(effsan_options)), // 1.7/1.8 caller.
      static_cast<uint32_t>(offsetof(effsan_options, engine)), // 1.6.
  };
  for (uint32_t Size : Sizes) {
    effsan_options Options;
    effsan_options_init(&Options);
    Options.log_errors = 0;
    Options.struct_size = Size;
    effsan_session *S = effsan_session_create(&Options);
    ASSERT_NE(S, nullptr) << "struct_size=" << Size;

    effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);
    effsan_stack_mark M = effsan_stack_enter(S);
    void *P = effsan_stack_alloc_typed(S, 64, IntTy, 1);
    EXPECT_NE(P, nullptr) << "struct_size=" << Size;
    effsan_stack_leave(S, M);
    effsan_session_destroy(S);
  }

  // Same for pool options: a 1.6-era prefix stops before `engine`.
  const uint32_t PoolSizes[] = {
      static_cast<uint32_t>(sizeof(effsan_pool_options)),
      static_cast<uint32_t>(offsetof(effsan_pool_options, engine)),
  };
  for (uint32_t Size : PoolSizes) {
    effsan_pool_options PoolOptions;
    effsan_pool_options_init(&PoolOptions);
    PoolOptions.log_errors = 0;
    PoolOptions.shards = 2;
    PoolOptions.struct_size = Size;
    effsan_pool *Pool = effsan_pool_create(&PoolOptions);
    ASSERT_NE(Pool, nullptr) << "struct_size=" << Size;
    EXPECT_EQ(effsan_pool_num_shards(Pool), 2u);

    effsan_session *S = effsan_pool_checkout(Pool);
    ASSERT_NE(S, nullptr);
    effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);
    effsan_stack_mark M = effsan_stack_enter(S);
    void *P = effsan_stack_alloc_typed(S, 64, IntTy, 0);
    EXPECT_NE(P, nullptr) << "struct_size=" << Size;
    effsan_stack_leave(S, M);
    effsan_pool_destroy(Pool);
  }
}

TEST(StackGlobalAbi, ObjectStatsPrefixContract) {
  // effsan_object_stats is caller-sized like effsan_heap_stats: the
  // library fills exactly the prefix the caller declared, and a
  // future-larger caller's unknown tail reads as zero.
  effsan_options Options;
  effsan_options_init(&Options);
  Options.log_errors = 0;
  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);

  effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);
  effsan_stack_mark M = effsan_stack_enter(S);
  effsan_stack_alloc_typed(S, 32, IntTy, 0);
  effsan_stack_leave(S, M);

  // A caller that only knows the struct up to stack_frames: fields at
  // and beyond its declared size must not be written.
  effsan_object_stats Partial;
  std::memset(&Partial, 0xee, sizeof(Partial));
  Partial.struct_size = offsetof(effsan_object_stats, stack_frames);
  effsan_get_object_stats(S, &Partial);
  EXPECT_EQ(Partial.stack_allocs, 1u);
  EXPECT_EQ(Partial.stack_frames, 0xeeeeeeeeeeeeeeeeull)
      << "fields beyond the declared prefix must not be written";
  EXPECT_EQ(Partial.global_bytes, 0xeeeeeeeeeeeeeeeeull);

  // A caller built against a FUTURE, larger struct: the tail this
  // library predates must read as zero, never as stack garbage.
  struct Future {
    effsan_object_stats Known;
    uint64_t NewCounter;
  } Grown;
  std::memset(&Grown, 0xee, sizeof(Grown));
  Grown.Known.struct_size = sizeof(Grown);
  effsan_get_object_stats(S, &Grown.Known);
  EXPECT_EQ(Grown.Known.stack_allocs, 1u);
  EXPECT_EQ(Grown.Known.stack_frames, 1u);
  EXPECT_EQ(Grown.NewCounter, 0u)
      << "declared-but-unknown tail must be zeroed";

  effsan_session_destroy(S);
}

TEST(StackGlobalAbi, SessionResetRecyclesStackAndGlobalState) {
  // effsan_session_reset is the ABI spelling of the tenant-eviction
  // path the stress test drives: stack/global counters rewind and the
  // threads' stack pools start fresh.
  effsan_options Options;
  effsan_options_init(&Options);
  Options.log_errors = 0;
  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);

  effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);
  effsan_global_def Def;
  Def.name = "g_once";
  Def.size = 16;
  Def.type = IntTy;
  void *Addr = nullptr;
  ASSERT_EQ(effsan_globals_register(S, &Def, 1, &Addr), 1u);
  effsan_stack_mark M = effsan_stack_enter(S);
  effsan_stack_alloc_typed(S, 32, IntTy, 1);
  effsan_stack_leave(S, M);

  effsan_object_stats Stats;
  std::memset(&Stats, 0, sizeof(Stats));
  Stats.struct_size = sizeof(Stats);
  effsan_get_object_stats(S, &Stats);
  EXPECT_EQ(Stats.stack_allocs, 1u);
  EXPECT_EQ(Stats.global_objects, 1u);

  effsan_session_reset(S);

  std::memset(&Stats, 0, sizeof(Stats));
  Stats.struct_size = sizeof(Stats);
  effsan_get_object_stats(S, &Stats);
  EXPECT_EQ(Stats.stack_allocs, 0u);
  EXPECT_EQ(Stats.stack_frames, 0u);
  EXPECT_EQ(Stats.global_objects, 0u);
  EXPECT_EQ(Stats.global_bytes, 0u);

  // The recycled session serves fresh stack and global objects.
  effsan_stack_mark M2 = effsan_stack_enter(S);
  void *P = effsan_stack_alloc_typed(S, 32, IntTy, 1);
  EXPECT_NE(P, nullptr);
  effsan_stack_leave(S, M2);
  Addr = nullptr;
  ASSERT_EQ(effsan_globals_register(S, &Def, 1, &Addr), 1u);
  EXPECT_NE(Addr, nullptr);

  effsan_session_destroy(S);
}

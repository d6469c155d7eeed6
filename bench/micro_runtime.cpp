//===- bench/micro_runtime.cpp - Runtime micro benchmarks -----------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Micro benchmarks for the runtime primitives that Figure 8's overheads
/// decompose into:
///
///  * type_check against primitive, record-interior and legacy pointers
///    (the hot path of rules (a)-(d)) — these run through the
///    site-indexed inline cache, like all production checks;
///  * the cached fast path vs. the uncached reference slow path on the
///    same probe, plus the forced-miss worst case — the PR-3 ablation;
///  * the layout hash table probe vs. a linear scan over the same
///    entries — the ablation justifying the Section 5 "O(1) hash table
///    lookup" design;
///  * the char[] coercion's second lookup (Section 5);
///  * bounds_check / bounds_narrow / bounds_get;
///  * typed allocation vs. plain malloc (META header + type binding
///    cost);
///  * the full SPEC workload mix under the Full policy, reporting the
///    type-check fast-path hit rate as a benchmark counter (lands in
///    --benchmark_out JSON for the CI perf artifacts);
///  * the MiniC SPEC mix on both execution engines (--engine=tree|
///    bytecode selects one), with the paired bytecode_speedup_x
///    counter CI gates at >= 2x the tree-walker.
///
///  * CheckedPtr's input event on a reflected record (static-type
///    resolution plus a site-cache hit) at 1 and 3 threads sharing one
///    runtime — the cost the per-thread static-type memo removes;
///  * a CheckedPtr dereference under no check, the timed Full row and
///    the counting Full row — the cost of counting a bounds check;
///  * a typed list walk at 1 and 3 threads sharing one runtime, each
///    thread walking 512 nodes it built while the others built theirs —
///    where the heap places concurrent threads' objects.
///
/// All other numbers here are SINGLE-THREADED: one session, one thread,
/// no contention — the per-check floor, not the scaling story. For
/// throughput under concurrent load (sharded SessionPool vs a shared
/// session at 1/2/4/8 threads) see bench/mt_throughput.cpp.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "bytecode/VM.h"
#include "core/Effective.h"
#include "instrument/Pipeline.h"
#include "interp/Interp.h"
#include "workloads/Workload.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

using namespace effective;

namespace {

/// Benchmark fixture state: a private sanitizer session plus the
/// paper's Example 1/2 types, built once. The primitive benchmarks go
/// straight at the session's Runtime; the BM_Session* ones measure the
/// policy-dispatch layer the public API adds on top.
struct MicroState {
  Sanitizer Session;
  TypeContext &Ctx;
  Runtime &RT;
  RecordType *S;
  RecordType *T;
  void *IntArray;   // int[100]
  void *TObject;    // struct T
  void *CharArray;  // char[64]
  int Local = 0;    // A legacy (host stack) location.

  MicroState()
      : Session(bench::countingSession()), Ctx(Session.types()),
        RT(Session.runtime()) {
    S = Ctx.createRecord(TypeKind::Struct, "S");
    FieldInfo SFields[] = {
        {"a", Ctx.getArray(Ctx.getInt(), 3), 0, false},
        {"s", Ctx.getPointer(Ctx.getChar()), 12, false},
    };
    Ctx.defineRecord(S, SFields, 20, 4);
    T = Ctx.createRecord(TypeKind::Struct, "T");
    FieldInfo TFields[] = {
        {"f", Ctx.getFloat(), 0, false},
        {"t", S, 4, false},
    };
    Ctx.defineRecord(T, TFields, 24, 4);

    IntArray = RT.allocate(100 * sizeof(int), Ctx.getInt());
    TObject = RT.allocate(24, T);
    CharArray = RT.allocate(64, Ctx.getChar());
  }

  static MicroState &get() {
    static MicroState State;
    return State;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// type_check
//===----------------------------------------------------------------------===//

static void BM_TypeCheck_PrimitiveArray(benchmark::State &State) {
  MicroState &M = MicroState::get();
  char *P = static_cast<char *>(M.IntArray) + 40;
  for (auto _ : State)
    benchmark::DoNotOptimize(M.RT.typeCheck(P, M.Ctx.getInt()));
}
BENCHMARK(BM_TypeCheck_PrimitiveArray);

static void BM_TypeCheck_RecordInterior(benchmark::State &State) {
  // Example 5: q = p + 12 inside struct T, checked as int[].
  MicroState &M = MicroState::get();
  char *P = static_cast<char *>(M.TObject) + 12;
  for (auto _ : State)
    benchmark::DoNotOptimize(M.RT.typeCheck(P, M.Ctx.getInt()));
}
BENCHMARK(BM_TypeCheck_RecordInterior);

static void BM_TypeCheck_RecordMismatch(benchmark::State &State) {
  // The failing probe (counting mode: no log formatting on this path).
  MicroState &M = MicroState::get();
  char *P = static_cast<char *>(M.TObject) + 12;
  for (auto _ : State)
    benchmark::DoNotOptimize(M.RT.typeCheck(P, M.Ctx.getDouble()));
}
BENCHMARK(BM_TypeCheck_RecordMismatch);

static void BM_TypeCheck_CharCoercionSecondLookup(benchmark::State &State) {
  // A char[] allocation probed as int[]: the first lookup misses, the
  // paper's second (char) lookup hits — the double-lookup cost.
  MicroState &M = MicroState::get();
  char *P = static_cast<char *>(M.CharArray) + 8;
  for (auto _ : State)
    benchmark::DoNotOptimize(M.RT.typeCheck(P, M.Ctx.getInt()));
}
BENCHMARK(BM_TypeCheck_CharCoercionSecondLookup);

static void BM_TypeCheck_LegacyPointer(benchmark::State &State) {
  // Host-stack pointer: base(p) fails fast, wide bounds returned.
  MicroState &M = MicroState::get();
  for (auto _ : State)
    benchmark::DoNotOptimize(M.RT.typeCheck(&M.Local, M.Ctx.getInt()));
}
BENCHMARK(BM_TypeCheck_LegacyPointer);

//===----------------------------------------------------------------------===//
// Site-cache ablation: hit vs. forced miss vs. uncached reference
//===----------------------------------------------------------------------===//

static void BM_TypeCheck_SiteCacheHit(benchmark::State &State) {
  // A monomorphic site: after the first fill every probe is a pure
  // fast-path hit (meta fetch + key compare + cached-bounds rebuild).
  MicroState &M = MicroState::get();
  char *P = static_cast<char *>(M.TObject) + 12;
  const TypeInfo *Int = M.Ctx.getInt();
  for (auto _ : State)
    benchmark::DoNotOptimize(M.RT.typeCheck(P, Int, SiteId(1)));
}
BENCHMARK(BM_TypeCheck_SiteCacheHit);

static void BM_TypeCheck_SiteCachePolymorphic2Way(benchmark::State &State) {
  // Two static types alternating through ONE site: with the 2-way
  // set-associative cache both resolutions stay resident, so this runs
  // at hit speed (the direct-mapped cache ping-ponged here at ~3.5x).
  MicroState &M = MicroState::get();
  char *P = static_cast<char *>(M.TObject) + 12; // int[] inside T.t.a
  char *Q = static_cast<char *>(M.TObject) + 4;  // struct S at T.t
  const TypeInfo *Int = M.Ctx.getInt();
  for (auto _ : State) {
    benchmark::DoNotOptimize(M.RT.typeCheck(P, Int, SiteId(2)));
    benchmark::DoNotOptimize(M.RT.typeCheck(Q, M.S, SiteId(2)));
  }
}
BENCHMARK(BM_TypeCheck_SiteCachePolymorphic2Way);

static void BM_TypeCheck_SiteCacheForcedMiss(benchmark::State &State) {
  // THREE resolutions fighting over one 2-way set: every check misses,
  // refills, and evicts the oldest way — the beyond-associativity
  // worst case (slow path + fill on top of the Figure 6 probe), kept
  // as the regression reference for the miss cost.
  MicroState &M = MicroState::get();
  char *P = static_cast<char *>(M.TObject) + 12; // int[] inside T.t.a
  char *Q = static_cast<char *>(M.TObject) + 4;  // struct S at T.t
  char *R = static_cast<char *>(M.TObject);      // float at T.f
  const TypeInfo *Int = M.Ctx.getInt();
  const TypeInfo *Float = M.Ctx.getFloat();
  for (auto _ : State) {
    benchmark::DoNotOptimize(M.RT.typeCheck(P, Int, SiteId(2)));
    benchmark::DoNotOptimize(M.RT.typeCheck(Q, M.S, SiteId(2)));
    benchmark::DoNotOptimize(M.RT.typeCheck(R, Float, SiteId(2)));
  }
}
BENCHMARK(BM_TypeCheck_SiteCacheForcedMiss);

static void BM_TypeCheck_Uncached(benchmark::State &State) {
  // The same probe as BM_TypeCheck_SiteCacheHit through the reference
  // slow path (never reads or fills the cache) — the pre-PR-3 cost,
  // and the baseline for the cached-vs-uncached speedup.
  MicroState &M = MicroState::get();
  char *P = static_cast<char *>(M.TObject) + 12;
  const TypeInfo *Int = M.Ctx.getInt();
  for (auto _ : State)
    benchmark::DoNotOptimize(M.RT.typeCheckUncached(P, Int));
}
BENCHMARK(BM_TypeCheck_Uncached);

//===----------------------------------------------------------------------===//
// CheckedPtr input: static-type resolution plus a site-cache hit
//===----------------------------------------------------------------------===//

namespace micro {
struct Particle {
  double Pos[3];
  int Id;
  Particle *Next;
};
} // namespace micro

EFFECTIVE_REFLECT(micro::Particle, Pos, Id, Next);

static void BM_CheckedPtrRecordInput(benchmark::State &State) {
  // The input event of a reflected record, as the SPEC kernels run it:
  // resolve the static type Particle for this runtime's context, then
  // type-check against it through Particle's pseudo-site (a cache hit
  // after the first probe). The 3-thread run shares one runtime and
  // context, so any lock in the static-type resolution shows up as
  // contention here.
  MicroState &M = MicroState::get();
  static micro::Particle *Obj =
      allocateChecked<micro::Particle, FullPolicy>(M.RT).raw();
  RuntimeScope Scope(M.RT);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        CheckedPtr<micro::Particle, FullPolicy>::input(Obj).bounds());
}
BENCHMARK(BM_CheckedPtrRecordInput)->Threads(1)->Threads(3)->UseRealTime();

//===----------------------------------------------------------------------===//
// A shared runtime's list walk: heap placement across threads
//===----------------------------------------------------------------------===//

namespace micro {
struct ListNode {
  uint64_t State;
  float AmpRe;
  float AmpIm;
  ListNode *Next;
};
} // namespace micro

EFFECTIVE_REFLECT(micro::ListNode, State, AmpRe, AmpIm, Next);

namespace {
/// The runtime one BM_SharedRuntimeListWalk run shares among its
/// threads. Setup opens it and Teardown closes it, so every run builds
/// its lists in a fresh heap.
std::unique_ptr<Sanitizer> ListWalkSession;
std::atomic<int> ListWalkBuilders{0};

void listWalkSetup(const benchmark::State &) {
  ListWalkSession = std::make_unique<Sanitizer>(TypeContext::global(),
                                                bench::countingSession());
  ListWalkBuilders = 0;
}
void listWalkTeardown(const benchmark::State &) { ListWalkSession.reset(); }
} // namespace

static void BM_SharedRuntimeListWalk(benchmark::State &State) {
  // libquantum's shape under EffectiveSan-type: each thread builds a
  // 512-node list on the shared runtime at the same time as the others,
  // then walks it, writing every node. The walk checks as the type row
  // does, so any cost the other threads add is placement: their nodes on
  // this thread's cache lines and pages.
  using NodePtr = CheckedPtr<micro::ListNode, TypePolicy>;
  Runtime &RT = ListWalkSession->runtime();
  RuntimeScope Scope(RT);
  ListWalkBuilders.fetch_add(1);
  while (ListWalkBuilders.load() < State.threads()) {
  }
  NodePtr Head;
  for (uint64_t I = 0; I < 512; ++I) {
    NodePtr Node = allocateChecked<micro::ListNode, TypePolicy>(RT);
    Node->State = I;
    Node->Next = Head.raw();
    Head = Node;
  }
  for (auto _ : State) {
    for (NodePtr Node = Head; Node.raw(); Node = NodePtr::input(Node->Next))
      Node->State ^= 1;
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(Head->State);
  State.SetItemsProcessed(State.iterations() * 512);
}
BENCHMARK(BM_SharedRuntimeListWalk)
    ->Setup(listWalkSetup)
    ->Teardown(listWalkTeardown)
    ->Threads(1)
    ->Threads(3)
    ->UseRealTime();

//===----------------------------------------------------------------------===//
// CheckedPtr dereference: the bounds check as each Figure 8 row runs it
//===----------------------------------------------------------------------===//

namespace {
/// The rows of the dereference ladder: no check, the timed Full row (a
/// compare and a branch) and the counting Full row (plus the
/// current-context TLS load and the counter bump).
using UncheckedRow = VariantPolicy<Variant::None, false>;
using TimedRow = VariantPolicy<Variant::Full, false>;
using CountingRow = FullPolicy;
} // namespace

template <typename Row>
static void BM_CheckedPtrDeref(benchmark::State &State) {
  // One in-bounds load through CheckedPtr<int> per iteration, walking
  // 64 elements of an int[100]. CountingRow minus TimedRow is what the
  // counter bump and the ambient-context lookup cost per check.
  MicroState &M = MicroState::get();
  RuntimeScope Scope(M.RT);
  auto P = CheckedPtr<int, Row>::input(static_cast<int *>(M.IntArray));
  unsigned I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(P[I]);
    I = (I + 1) & 63;
  }
}
BENCHMARK_TEMPLATE(BM_CheckedPtrDeref, UncheckedRow);
BENCHMARK_TEMPLATE(BM_CheckedPtrDeref, TimedRow);
BENCHMARK_TEMPLATE(BM_CheckedPtrDeref, CountingRow);

//===----------------------------------------------------------------------===//
// SPEC workload mix: fast-path hit rate under full instrumentation
//===----------------------------------------------------------------------===//

static void BM_SpecMix_TypeCheckHitRate(benchmark::State &State) {
  // All 19 SPEC2006 stand-in kernels under the Full policy against one
  // fresh session; CheckedPtr input/cast events reach the runtime
  // through type-derived pseudo-sites. The hit_rate_pct counter is the
  // acceptance metric: fast-path hits / (hits + misses), in percent.
  Sanitizer Session(TypeContext::global(), bench::countingSession());
  SanitizerScope Scope(Session);
  Runtime &RT = Session.runtime();
  uint64_t Sink = 0;
  for (auto _ : State) {
    for (const workloads::Workload &W : workloads::specWorkloads())
      Sink += W.RunFull(RT, /*Scale=*/1);
  }
  benchmark::DoNotOptimize(Sink);
  auto C = RT.counters().snapshot();
  double Resolved =
      static_cast<double>(C.TypeCheckCacheHits + C.TypeCheckCacheMisses);
  State.counters["hit_rate_pct"] =
      Resolved ? 100.0 * static_cast<double>(C.TypeCheckCacheHits) / Resolved
               : 0.0;
  State.counters["type_checks"] = static_cast<double>(C.TypeChecks);
  State.counters["cache_hits"] =
      static_cast<double>(C.TypeCheckCacheHits);
  State.counters["cache_misses"] =
      static_cast<double>(C.TypeCheckCacheMisses);
}
BENCHMARK(BM_SpecMix_TypeCheckHitRate)->Unit(benchmark::kMillisecond);

//===----------------------------------------------------------------------===//
// Layout table probe vs. linear scan (design ablation)
//===----------------------------------------------------------------------===//

static void BM_LayoutLookup_HashProbe(benchmark::State &State) {
  MicroState &M = MicroState::get();
  const LayoutTable &Table = M.T->layout();
  const TypeInfo *Int = M.Ctx.getInt();
  for (auto _ : State)
    benchmark::DoNotOptimize(Table.lookup(Int, 12));
}
BENCHMARK(BM_LayoutLookup_HashProbe);

static void BM_LayoutLookup_LinearScan(benchmark::State &State) {
  // What type_check would cost without the hash index: scan all
  // entries applying the tie-breaking rules (Figure 6 lines 17-21 done
  // naively).
  MicroState &M = MicroState::get();
  const LayoutTable &Table = M.T->layout();
  const TypeInfo *Int = M.Ctx.getInt();
  for (auto _ : State) {
    const LayoutEntry *Best = nullptr;
    for (const LayoutEntry &E : Table.entries()) {
      if (E.Key != Int || E.Offset != 12)
        continue;
      if (!Best || E.width() > Best->width())
        Best = &E;
    }
    benchmark::DoNotOptimize(Best);
  }
}
BENCHMARK(BM_LayoutLookup_LinearScan);

//===----------------------------------------------------------------------===//
// Session-dispatch overhead (the public API's policy switch)
//===----------------------------------------------------------------------===//

static void BM_SessionTypeCheck(benchmark::State &State) {
  // Same probe as BM_TypeCheck_RecordInterior, but through the
  // Sanitizer session — the delta is the policy-dispatch cost.
  MicroState &M = MicroState::get();
  char *P = static_cast<char *>(M.TObject) + 12;
  for (auto _ : State)
    benchmark::DoNotOptimize(M.Session.typeCheck(P, M.Ctx.getInt()));
}
BENCHMARK(BM_SessionTypeCheck);

static void BM_SessionBoundsCheck(benchmark::State &State) {
  MicroState &M = MicroState::get();
  Bounds B = Bounds::forObject(M.IntArray, 400);
  char *P = static_cast<char *>(M.IntArray) + 64;
  for (auto _ : State)
    M.Session.boundsCheck(P, 4, B);
}
BENCHMARK(BM_SessionBoundsCheck);

//===----------------------------------------------------------------------===//
// bounds operations
//===----------------------------------------------------------------------===//

static void BM_BoundsCheck(benchmark::State &State) {
  MicroState &M = MicroState::get();
  Bounds B = Bounds::forObject(M.IntArray, 400);
  char *P = static_cast<char *>(M.IntArray) + 64;
  for (auto _ : State)
    M.RT.boundsCheck(P, 4, B);
}
BENCHMARK(BM_BoundsCheck);

static void BM_BoundsNarrow(benchmark::State &State) {
  MicroState &M = MicroState::get();
  Bounds B = Bounds::forObject(M.TObject, 24);
  char *Field = static_cast<char *>(M.TObject) + 4;
  for (auto _ : State)
    benchmark::DoNotOptimize(M.RT.boundsNarrow(B, Field, 20));
}
BENCHMARK(BM_BoundsNarrow);

static void BM_BoundsGet(benchmark::State &State) {
  MicroState &M = MicroState::get();
  char *P = static_cast<char *>(M.IntArray) + 40;
  for (auto _ : State)
    benchmark::DoNotOptimize(M.RT.boundsGet(P));
}
BENCHMARK(BM_BoundsGet);

//===----------------------------------------------------------------------===//
// Allocation
//===----------------------------------------------------------------------===//

static void BM_TypedAllocFree(benchmark::State &State) {
  MicroState &M = MicroState::get();
  for (auto _ : State) {
    void *P = M.RT.allocate(64, M.Ctx.getInt());
    benchmark::DoNotOptimize(P);
    M.RT.deallocate(P);
  }
}
BENCHMARK(BM_TypedAllocFree);

static void BM_PlainMallocFree(benchmark::State &State) {
  for (auto _ : State) {
    void *P = std::malloc(64);
    benchmark::DoNotOptimize(P);
    std::free(P);
  }
}
BENCHMARK(BM_PlainMallocFree);

/// The allocator gate: each iteration times a batch of typed alloc+free
/// pairs and then a batch of plain malloc+free pairs back to back, so
/// runner drift cancels out of the ratio (the pairing of
/// BM_MiniCSpecMix_EngineSpeedup). typed_over_malloc_x = typed time /
/// plain time; CI gates it.
static void BM_TypedAllocOverMalloc(benchmark::State &State) {
  constexpr int Batch = 1024;
  MicroState &M = MicroState::get();
  double TypedSec = 0, PlainSec = 0;
  for (auto _ : State) {
    TypedSec += bench::timeSeconds([&] {
      for (int I = 0; I < Batch; ++I) {
        void *P = M.RT.allocate(64, M.Ctx.getInt());
        benchmark::DoNotOptimize(P);
        M.RT.deallocate(P);
      }
    });
    PlainSec += bench::timeSeconds([&] {
      for (int I = 0; I < Batch; ++I) {
        void *P = std::malloc(64);
        benchmark::DoNotOptimize(P);
        std::free(P);
      }
    });
  }
  State.counters["typed_over_malloc_x"] =
      PlainSec ? TypedSec / PlainSec : 0.0;
}
BENCHMARK(BM_TypedAllocOverMalloc);

//===----------------------------------------------------------------------===//
// Execution engines: bytecode VM vs. tree-walking reference
//===----------------------------------------------------------------------===//

namespace {

/// The MiniC SPEC mix: check-dense kernels (matmul bounds checks, list
/// traversal input type checks, struct-churn casts) compiled ONCE
/// under the default instrumentation pipeline and run by both engines
/// against the same session. The engines execute identical check
/// sequences (tests/bytecode_test.cpp enforces it), so the paired
/// ratio isolates pure dispatch + frame overhead — the cost the
/// tree-walker adds on top of the now-cheap checks.
constexpr const char *MiniCSpecMix = R"(
struct cell { long weight; struct cell *next; };

long matmul(long *a, long *b, long *c, int n) {
  int i; int j; int k;
  for (i = 0; i < n; i = i + 1) {
    for (j = 0; j < n; j = j + 1) {
      long acc = 0;
      for (k = 0; k < n; k = k + 1)
        acc = acc + a[i * n + k] * b[k * n + j];
      c[i * n + j] = acc;
    }
  }
  return c[(n - 1) * n + (n - 1)];
}

long traverse(struct cell *head) {
  long acc = 0;
  while (head != NULL) {
    acc = acc + head->weight;
    head = head->next;
  }
  return acc;
}

int main() {
  int n = 16;
  long *a = (long *)malloc(n * n * sizeof(long));
  long *b = (long *)malloc(n * n * sizeof(long));
  long *c = (long *)malloc(n * n * sizeof(long));
  int i;
  for (i = 0; i < n * n; i = i + 1) {
    a[i] = i % 7;
    b[i] = i % 5;
  }
  long m = matmul(a, b, c, n);

  struct cell *head = NULL;
  for (i = 0; i < 64; i = i + 1) {
    struct cell *fresh = (struct cell *)malloc(sizeof(struct cell));
    fresh->weight = i;
    fresh->next = head;
    head = fresh;
  }
  long t = 0;
  for (i = 0; i < 50; i = i + 1)
    t = t + traverse(head);
  while (head != NULL) {
    struct cell *next = head->next;
    free(head);
    head = next;
  }
  free(a); free(b); free(c);
  return (int)((m + t) % 97);
}
)";

/// Compiled once; both engine benchmarks share the session so checks
/// resolve through the same inline caches.
struct EngineState {
  Sanitizer Session;
  instrument::CompileResult Compiled;

  EngineState() : Session(bench::countingSession()) {
    DiagnosticEngine Diags;
    Compiled = instrument::compileMiniC(MiniCSpecMix, Session.types(), Diags,
                                        instrument::InstrumentOptions());
    if (!Compiled.M || !Compiled.BC) {
      Diags.print(stderr, "<micro>");
      std::abort();
    }
  }

  static EngineState &get() {
    static EngineState State;
    return State;
  }
};

void BM_MiniCSpecMix_TreeWalker(benchmark::State &State) {
  EngineState &E = EngineState::get();
  for (auto _ : State) {
    interp::RunResult R = interp::run(*E.Compiled.M, E.Session);
    benchmark::DoNotOptimize(R.ExitCode);
  }
}

void BM_MiniCSpecMix_Bytecode(benchmark::State &State) {
  EngineState &E = EngineState::get();
  for (auto _ : State) {
    interp::RunResult R = bytecode::run(*E.Compiled.BC, E.Session);
    benchmark::DoNotOptimize(R.ExitCode);
  }
}

/// The acceptance metric: each iteration runs BOTH engines
/// back-to-back on the same program and session, so runner drift
/// cancels out of the ratio (the pairing trick of bench/obs_overhead).
/// bytecode_speedup_x = tree-walker time / VM time; CI gates it >= 2.
void BM_MiniCSpecMix_EngineSpeedup(benchmark::State &State) {
  EngineState &E = EngineState::get();
  double TreeSec = 0, BcSec = 0;
  for (auto _ : State) {
    // Each engine gets an untimed warm-up run before its timed run:
    // the two dispatch loops compete for the same branch-target
    // buffer, and timing a cold loop would charge the engine for the
    // other engine's predictor pollution rather than its own cost.
    interp::RunResult W0 = interp::run(*E.Compiled.M, E.Session);
    interp::RunResult RT, RB;
    TreeSec += bench::timeSeconds(
        [&] { RT = interp::run(*E.Compiled.M, E.Session); });
    interp::RunResult W1 = bytecode::run(*E.Compiled.BC, E.Session);
    BcSec += bench::timeSeconds(
        [&] { RB = bytecode::run(*E.Compiled.BC, E.Session); });
    benchmark::DoNotOptimize(W0.ExitCode + RT.ExitCode + W1.ExitCode +
                             RB.ExitCode);
  }
  State.counters["bytecode_speedup_x"] = BcSec ? TreeSec / BcSec : 0.0;
}

} // namespace

//===----------------------------------------------------------------------===//
// main: --engine=tree|bytecode selects which engine benchmarks run
//===----------------------------------------------------------------------===//

int main(int argc, char **argv) {
  // --engine restricts the MiniC engine benchmarks (the paired-speedup
  // benchmark needs both engines, so it only registers in the default
  // both-engines mode). Every other micro benchmark is engine-agnostic
  // and always runs; narrow further with --benchmark_filter.
  bool Tree = true, Bytecode = true;
  std::vector<char *> Args;
  Args.push_back(argv[0]);
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--engine=tree") == 0)
      Bytecode = false;
    else if (std::strcmp(argv[I], "--engine=bytecode") == 0)
      Tree = false;
    else
      Args.push_back(argv[I]);
  }
  if (!Tree && !Bytecode) {
    std::fprintf(stderr, "--engine=tree and --engine=bytecode conflict\n");
    return 2;
  }
  if (Tree)
    benchmark::RegisterBenchmark("BM_MiniCSpecMix_TreeWalker",
                                 BM_MiniCSpecMix_TreeWalker)
        ->Unit(benchmark::kMillisecond);
  if (Bytecode)
    benchmark::RegisterBenchmark("BM_MiniCSpecMix_Bytecode",
                                 BM_MiniCSpecMix_Bytecode)
        ->Unit(benchmark::kMillisecond);
  if (Tree && Bytecode)
    benchmark::RegisterBenchmark("BM_MiniCSpecMix_EngineSpeedup",
                                 BM_MiniCSpecMix_EngineSpeedup)
        ->Unit(benchmark::kMillisecond);

  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

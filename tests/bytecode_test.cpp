//===- tests/bytecode_test.cpp - Tree-walker vs bytecode differential -----===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The bytecode engine's correctness contract: for every program the
/// tree-walking interpreter can run, the VM produces the same result,
/// the same output, the same executed-check counters and the same
/// error-report stream. The corpus below mirrors every runnable program
/// in interp_test.cpp and minic_test.cpp, swept under all four
/// instrumentation variants, with superinstruction fusion both on and
/// off, and through a session under each of the five CheckPolicy
/// values (compiled as that policy's build). Steps is deliberately
/// *not* compared: a fused superinstruction executes as one bytecode
/// step.
///
/// The corpus ends with one program per fused superinstruction whose
/// fused check fails, so every sweep also sends a report through each
/// fused handler; EveryFusedCheckFailsAtItsSite pins that each one
/// fuses and reports at its site.
///
/// Also here: the disassembler round trip (parse(disassemble(P))
/// reproduces every instruction field-for-field) and a fusion
/// smoke-test pinning that hot check+access pairs actually fuse.
///
//===----------------------------------------------------------------------===//

#include "api/Sanitizer.h"
#include "bytecode/Compiler.h"
#include "bytecode/Disasm.h"
#include "bytecode/VM.h"
#include "instrument/Pipeline.h"
#include "interp/Interp.h"

#include <gtest/gtest.h>

#include <cctype>
#include <optional>
#include <string>
#include <vector>

using namespace effective;
using namespace effective::instrument;

namespace {

//===----------------------------------------------------------------------===//
// Corpus: every runnable program from interp_test.cpp + minic_test.cpp
//===----------------------------------------------------------------------===//

struct CorpusProgram {
  const char *Name;
  const char *Source;
};

const CorpusProgram Corpus[] = {
    // --- interp_test.cpp: clean execution ---
    {"Arithmetic",
     "int main() { return (3 + 4) * 5 - 100 / 4 + (27 % 4); }"},
    {"FibonacciRecursion", R"(
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int main() { return fib(15); }
)"},
    {"PrintBuiltins", R"(
int main() {
  print_int(42);
  print_float(2.5);
  print_str("hello world");
  return 0;
}
)"},
    {"LinkedListLength", R"(
struct node { int value; struct node *next; };
struct node *push(struct node *head, int v) {
  struct node *n = (struct node *)malloc(sizeof(struct node));
  n->value = v;
  n->next = head;
  return n;
}
int length(struct node *xs) {
  int len = 0;
  while (xs != NULL) {
    len = len + 1;
    xs = xs->next;
  }
  return len;
}
int main() {
  struct node *head = NULL;
  int i;
  for (i = 0; i < 10; i = i + 1)
    head = push(head, i);
  int len = length(head);
  while (head != NULL) {
    struct node *next = head->next;
    free(head);
    head = next;
  }
  return len;
}
)"},
    {"SumArray", R"(
int sum(int *a, int len) {
  int s = 0;
  int i;
  for (i = 0; i < len; i = i + 1)
    s = s + a[i];
  return s;
}
int main() {
  int *a = (int *)malloc(100 * sizeof(int));
  int i;
  for (i = 0; i < 100; i = i + 1)
    a[i] = i;
  int s = sum(a, 100);
  free(a);
  return s % 251;
}
)"},
    {"GlobalsStringsStructs", R"(
struct config { int verbose; double scale; };
struct config g_config;
int g_calls = 3;
double scaled(double v) {
  g_calls = g_calls + 1;
  return v * g_config.scale;
}
int main() {
  g_config.verbose = 1;
  g_config.scale = 2.5;
  double r = scaled(4.0);
  return (int)r + g_calls;
}
)"},
    {"CleanPairs", R"(
struct pair { int a; int b; };
int main() {
  struct pair *p = (struct pair *)malloc(4 * sizeof(struct pair));
  int i;
  for (i = 0; i < 4; i = i + 1) {
    p[i].a = i;
    p[i].b = 2 * i;
  }
  int total = 0;
  for (i = 0; i < 4; i = i + 1)
    total = total + p[i].a + p[i].b;
  free(p);
  return total;
}
)"},
    // --- interp_test.cpp: type confusion ---
    {"BadCast", R"(
int main() {
  int *p = (int *)malloc(8 * sizeof(int));
  float *q = (float *)p;
  float f = *q;
  free(p);
  return (int)f;
}
)"},
    {"BadCastAndSubObjectOverflow", R"(
struct S { int x[8]; };
int main() {
  struct S *s = (struct S *)malloc(sizeof(struct S));
  double *q = (double *)s;      /* bad cast, result used below */
  double d = *q;
  s->x[9] = 1;                  /* sub-object overflow */
  free(s);
  return d != 0.0;
}
)"},
    {"UnusedBadCast", R"(
struct S { int x[8]; };
int main() {
  struct S *s = (struct S *)malloc(sizeof(struct S));
  double *q = (double *)s;      /* bad cast, result never used */
  free(s);
  return 0;
}
)"},
    {"ImplicitCastThroughMemory", R"(
struct holder { int *slot; };
int main() {
  float *f = (float *)malloc(4 * sizeof(float));
  struct holder h;
  h.slot = (int *)f;
  int *p = h.slot;
  int v = *p;
  free(f);
  return v;
}
)"},
    // --- interp_test.cpp: bounds ---
    {"ObjectBoundsOverflow", R"(
int main() {
  int *a = (int *)malloc(33 * sizeof(int));
  int i;
  int total = 0;
  for (i = 0; i <= 33; i = i + 1)   /* off-by-one */
    total = total + a[i];
  free(a);
  return total != 0;
}
)"},
    {"SubObjectOverflowWithinStruct", R"(
struct account { int number[8]; float balance; };
int main() {
  struct account *a = (struct account *)malloc(sizeof(struct account));
  a->balance = 100.0;
  a->number[8] = 7;           /* clobbers balance */
  free(a);
  return 0;
}
)"},
    {"StackArrayOverflow", R"(
int main() {
  int a[4];
  int i;
  for (i = 0; i <= 4; i = i + 1)    /* off-by-one on the stack */
    a[i] = i;
  return a[0];
}
)"},
    {"NegativeIndexUnderflow", R"(
struct vec { int header; double data[4]; };
int main() {
  struct vec *v = (struct vec *)malloc(sizeof(struct vec));
  double *d = v->data;
  double x = *(d - 1);              /* underflow into header */
  free(v);
  return x != 0.0;
}
)"},
    // --- interp_test.cpp: temporal ---
    {"UseAfterFreeAtInputEvent", R"(
struct node { int value; struct node *next; };
int readValue(struct node *n) { return n->value; }
int main() {
  struct node *n = (struct node *)malloc(sizeof(struct node));
  n->value = 42;
  free(n);
  return readValue(n);            /* use after free */
}
)"},
    {"UseAfterFreeThroughReloadedPointer", R"(
struct node { int value; struct node *next; };
struct node *g_head;
int main() {
  g_head = (struct node *)malloc(sizeof(struct node));
  g_head->value = 7;
  free(g_head);
  struct node *n = g_head;        /* load of a dangling pointer */
  return n->value;
}
)"},
    {"DirectDerefAfterFree", R"(
struct node { int value; struct node *next; };
int main() {
  struct node *n = (struct node *)malloc(sizeof(struct node));
  n->value = 42;
  free(n);
  int v = n->value;               /* missed: no input event since free */
  return v;
}
)"},
    {"DoubleFree", R"(
int main() {
  int *p = (int *)malloc(16 * sizeof(int));
  free(p);
  free(p);
  return 0;
}
)"},
    {"DanglingStackPointer", R"(
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
)"},
    // --- interp_test.cpp: dynamic counts + faults ---
    {"VariantsScaleExecutedChecks", R"(
int main() {
  int *a = (int *)malloc(64 * sizeof(int));
  int i;
  for (i = 0; i < 64; i = i + 1)
    a[i] = i;
  int t = 0;
  for (i = 0; i < 64; i = i + 1)
    t = t + a[i];
  free(a);
  return t % 100;
}
)"},
    {"NullDereference", R"(
int main() {
  int *p = NULL;
  return *p;
}
)"},
    // --- minic_test.cpp: runnable frontend programs ---
    {"RecordTypesAndTags", R"(
struct point { double x; double y; };
union u { int i; float f; };
struct point g;
int main() { return 0; }
)"},
    {"PointerAndArrayDeclarators", R"(
int main() {
  int a[10];
  int *p;
  int **pp;
  int m[4][3];
  return 0;
}
)"},
    {"Precedence", "int main() { return 2 + 3 * 4; }"},
    {"RedeclaredTag", R"(
struct t { int code; };
int main() { struct t x; x.code = 1; return x.code; }
)"},
    {"TypesEveryExpression", R"(
int main() {
  double d = 1.5;
  int i = 2;
  double m = d * i;
  return (int)m;
}
)"},
    {"Builtins", R"(
int main() {
  print_int(1);
  print_float(1.5);
  print_str("x");
  return 0;
}
)"},
    {"MallocThroughExplicitCast", R"(
struct s { int x; };
int main() {
  struct s *p = (struct s *)malloc(sizeof(struct s));
  free(p);
  return 0;
}
)"},
    {"MallocThroughTypedInitializer", R"(
int main() {
  long *p = malloc(8 * sizeof(long));
  free(p);
  return 0;
}
)"},
    {"MallocThroughAssignment", R"(
int main() {
  double *p;
  p = malloc(4 * sizeof(double));
  free(p);
  return 0;
}
)"},
    {"MallocThroughCallArgument", R"(
int consume(int *p) { free(p); return 0; }
int main() { return consume(malloc(4 * sizeof(int))); }
)"},
    {"MallocVoidTargetStaysUntyped", R"(
int main() {
  void *p = malloc(64);
  free(p);
  return 0;
}
)"},
    // --- one failing check per fused superinstruction (FusedFaults) ---
    // A double seen through an int * loaded from memory: type_check,
    // bounds_check and the load fuse into TypeCheckLoad.
    {"FusedTypeCheckLoadFails", R"(
struct box { int *p; };
int main() {
  struct box *b = (struct box *)malloc(sizeof(struct box));
  double *d = (double *)malloc(sizeof(double));
  void *v = d;
  b->p = v;
  int r = *b->p;
  free(d);
  free(b);
  return r;
}
)"},
    // The stored constant repeats the one in `r`, so value numbering
    // leaves nothing between the check and the store: TypeCheckStore.
    {"FusedTypeCheckStoreFails", R"(
struct box { int *p; };
int main() {
  struct box *b = (struct box *)malloc(sizeof(struct box));
  double *d = (double *)malloc(sizeof(double));
  void *v = d;
  b->p = v;
  int r = 3;
  *b->p = 3;
  free(d);
  free(b);
  return r;
}
)"},
    // The same store of a variable: the lowering's copy of `k`, which
    // nothing reads, sits between the checks and must not stop the
    // fusion into TypeCheckStore.
    {"FusedTypeCheckStoreOfVariableFails", R"(
struct box { int *p; };
int main() {
  struct box *b = (struct box *)malloc(sizeof(struct box));
  double *d = (double *)malloc(sizeof(double));
  void *v = d;
  b->p = v;
  int k = 3;
  *b->p = k;
  free(d);
  free(b);
  return k;
}
)"},
    // Storing a pointer puts its escape check between the access check
    // and the store, so only type_check + bounds_check fuse:
    // TypeCheckBounds.
    {"FusedTypeCheckBoundsFails", R"(
struct box { int **pp; };
int g;
int main() {
  struct box *b = (struct box *)malloc(sizeof(struct box));
  double *d = (double *)malloc(sizeof(double));
  void *v = d;
  b->pp = v;
  int *t = &g;
  *b->pp = &g;
  free(d);
  free(b);
  return 0;
}
)"},
    // The same three shapes with a pointer one past a three-element
    // array (still inside the allocation's size class, so bounds_get
    // yields the array's bounds): BoundsGetCheckLoad/Store and
    // BoundsGetCheck under -bounds, TypeCheck* under -full.
    {"FusedBoundsGetCheckLoadFails", R"(
struct box { int *p; };
int main() {
  struct box *b = (struct box *)malloc(sizeof(struct box));
  int *a = (int *)malloc(3 * sizeof(int));
  b->p = a + 3;
  int r = *b->p;
  free(a);
  free(b);
  return r;
}
)"},
    {"FusedBoundsGetCheckStoreFails", R"(
struct box { int *p; };
int main() {
  struct box *b = (struct box *)malloc(sizeof(struct box));
  int *a = (int *)malloc(3 * sizeof(int));
  b->p = a + 3;
  int r = 3;
  *b->p = 3;
  free(a);
  free(b);
  return r;
}
)"},
    {"FusedBoundsGetCheckFails", R"(
struct box { int **pp; };
int g;
int main() {
  struct box *b = (struct box *)malloc(sizeof(struct box));
  int **a = (int **)malloc(3 * sizeof(int *));
  b->pp = a + 3;
  int *t = &g;
  *b->pp = &g;
  free(a);
  free(b);
  return 0;
}
)"},
    // An indexed access one past the end: bounds_check + the access
    // fuse into BoundsCheckLoad/Store.
    {"FusedBoundsCheckLoadFails", R"(
int main() {
  int *a = (int *)malloc(3 * sizeof(int));
  int r = a[3];
  free(a);
  return r;
}
)"},
    {"FusedBoundsCheckStoreFails", R"(
int main() {
  int *a = (int *)malloc(3 * sizeof(int));
  a[3] = 7;
  free(a);
  return 0;
}
)"},
};

/// Each fused superinstruction, the Corpus program whose build under
/// the variant contains it, and the one report its failing check makes.
struct FusedFault {
  const char *Mnemonic;
  const char *Program;
  Variant V;
  const char *Report;
};

const FusedFault FusedFaults[] = {
    {"TypeCheckLoad", "FusedTypeCheckLoadFails", Variant::Full,
     "TYPE ERROR at <minic>:8:13 in main"},
    {"TypeCheckStore", "FusedTypeCheckStoreFails", Variant::Full,
     "TYPE ERROR at <minic>:9:5 in main"},
    {"TypeCheckStore", "FusedTypeCheckStoreOfVariableFails", Variant::Full,
     "TYPE ERROR at <minic>:9:5 in main"},
    {"TypeCheckBounds", "FusedTypeCheckBoundsFails", Variant::Full,
     "TYPE ERROR at <minic>:10:5 in main"},
    {"BoundsGetCheckLoad", "FusedBoundsGetCheckLoadFails", Variant::Bounds,
     "BOUNDS ERROR at <minic>:7:11 in main"},
    {"BoundsGetCheckStore", "FusedBoundsGetCheckStoreFails", Variant::Bounds,
     "BOUNDS ERROR at <minic>:8:9 in main"},
    {"BoundsGetCheck", "FusedBoundsGetCheckFails", Variant::Bounds,
     "BOUNDS ERROR at <minic>:9:10 in main"},
    {"BoundsCheckLoad", "FusedBoundsCheckLoadFails", Variant::Full,
     "BOUNDS ERROR at <minic>:4:12 in main"},
    {"BoundsCheckStore", "FusedBoundsCheckStoreFails", Variant::Full,
     "BOUNDS ERROR at <minic>:4:8 in main"},
};

const char *corpusSource(std::string_view Name) {
  for (const CorpusProgram &P : Corpus)
    if (Name == P.Name)
      return P.Source;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Differential harness
//===----------------------------------------------------------------------===//

/// Replaces hex pointer renderings ("0x1a2b...") with "<ptr>" so legacy
/// (unattributed) report lines — the only ones that embed raw addresses
/// — compare equal across runtimes with different arena placements.
/// Site-attributed reports are address-free by design.
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
/// report in order. With \p Policy set, the engine runs through a
/// session under that policy rather than the Runtime overload.
EngineRun runEngine(TypeContext &Types, const CompileResult &C, Engine E,
                    const interp::RunOptions &Opts = interp::RunOptions(),
                    std::optional<CheckPolicy> Policy = std::nullopt) {
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

  if (Policy) {
    Sanitizer Session(RT, *Policy);
    Out.R = E == Engine::Bytecode ? bytecode::run(*C.BC, Session, Opts)
                                  : interp::run(*C.M, Session, Opts);
  } else {
    Out.R = E == Engine::Bytecode ? bytecode::run(*C.BC, RT, Opts)
                                  : interp::run(*C.M, RT, Opts);
  }
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

constexpr CheckPolicy AllPolicies[] = {
    CheckPolicy::Full, CheckPolicy::BoundsOnly, CheckPolicy::TypeOnly,
    CheckPolicy::CountOnly, CheckPolicy::Off};

/// Compiles \p Source with \p Opts and diffs the two engines, run
/// through a session under \p Policy when set; with \p Fused false the
/// bytecode is recompiled without superinstructions to cover the plain
/// handlers too.
void diffCompiled(const std::string &Label, const char *Source,
                  const InstrumentOptions &Opts, bool Fused,
                  std::optional<CheckPolicy> Policy) {
  TypeContext Types;
  DiagnosticEngine Diags;
  CompileResult C = compileMiniC(Source, Types, Diags, Opts);
  for (const Diagnostic &D : Diags.diagnostics())
    ADD_FAILURE() << Label << ": " << D.Loc.Line << ":" << D.Loc.Column
                  << ": " << D.Message;
  ASSERT_TRUE(C.M) << Label;
  ASSERT_TRUE(C.BC) << Label << ": pipeline produced no bytecode";

  if (!Fused) {
    std::string Error;
    bytecode::CompileOptions BcOpts;
    BcOpts.FuseChecks = false;
    C.BC = bytecode::compile(*C.M, &Error, BcOpts);
    ASSERT_TRUE(C.BC) << Label << ": " << Error;
  }

  EngineRun T = runEngine(Types, C, Engine::Tree, {}, Policy);
  EngineRun B = runEngine(Types, C, Engine::Bytecode, {}, Policy);
  expectSameBehavior(T, B, Label);
}

/// Compiles \p Source under \p V and diffs the two engines.
void diffProgram(const char *Name, const char *Source, Variant V,
                 bool Fused = true) {
  InstrumentOptions Opts;
  Opts.V = V;
  diffCompiled(std::string(Name) + " [" + std::string(variantName(V)) +
                   (Fused ? "" : " unfused") + "]",
               Source, Opts, Fused, std::nullopt);
}

/// Compiles \p Source as \p Policy's build and diffs the two engines,
/// each run through a session under \p Policy.
void diffSessionProgram(const char *Name, const char *Source,
                        CheckPolicy Policy) {
  diffCompiled(std::string(Name) + " [session " +
                   std::string(checkPolicyName(Policy)) + "]",
               Source, instrumentOptionsFor(Policy), /*Fused=*/true, Policy);
}

} // namespace

//===----------------------------------------------------------------------===//
// The differential sweep
//===----------------------------------------------------------------------===//

TEST(Differential, FullCorpusAllVariants) {
  for (const CorpusProgram &P : Corpus)
    for (Variant V : AllVariants)
      diffProgram(P.Name, P.Source, V);
}

TEST(Differential, FullCorpusUnfused) {
  for (const CorpusProgram &P : Corpus)
    diffProgram(P.Name, P.Source, Variant::Full, /*Fused=*/false);
}

TEST(Differential, FullCorpusAllSessionPolicies) {
  for (const CorpusProgram &P : Corpus)
    for (CheckPolicy Policy : AllPolicies)
      diffSessionProgram(P.Name, P.Source, Policy);
}

TEST(Differential, BudgetFaultMatches) {
  TypeContext Types;
  DiagnosticEngine Diags;
  CompileResult C = compileMiniC("int main() { while (1) { } return 0; }",
                                 Types, Diags, InstrumentOptions());
  ASSERT_TRUE(C.M && C.BC);
  interp::RunOptions Opts;
  Opts.MaxSteps = 10000;
  EngineRun T = runEngine(Types, C, Engine::Tree, Opts);
  EngineRun B = runEngine(Types, C, Engine::Bytecode, Opts);
  EXPECT_FALSE(T.R.Ok);
  EXPECT_FALSE(B.R.Ok);
  EXPECT_EQ(T.R.Fault, B.R.Fault); // "...budget exhausted in @main"
  EXPECT_NE(B.R.Fault.find("budget"), std::string::npos);
}

TEST(Differential, DepthFaultMatches) {
  TypeContext Types;
  DiagnosticEngine Diags;
  CompileResult C = compileMiniC("int f(int n) { return f(n + 1); }\n"
                                 "int main() { return f(0); }",
                                 Types, Diags, InstrumentOptions());
  ASSERT_TRUE(C.M && C.BC);
  interp::RunOptions Opts;
  Opts.MaxCallDepth = 64;
  EngineRun T = runEngine(Types, C, Engine::Tree, Opts);
  EngineRun B = runEngine(Types, C, Engine::Bytecode, Opts);
  EXPECT_FALSE(T.R.Ok);
  EXPECT_FALSE(B.R.Ok);
  EXPECT_EQ(T.R.Fault, B.R.Fault); // "call depth limit exceeded in @f"
  EXPECT_NE(B.R.Fault.find("depth"), std::string::npos);
}

TEST(Differential, MissingEntryFaultMatches) {
  TypeContext Types;
  DiagnosticEngine Diags;
  CompileResult C = compileMiniC("int helper() { return 1; }\n"
                                 "int main() { return helper(); }",
                                 Types, Diags, InstrumentOptions());
  ASSERT_TRUE(C.M && C.BC);
  EngineRun T = runEngine(Types, C, Engine::Tree);
  EngineRun B = runEngine(Types, C, Engine::Bytecode);
  expectSameBehavior(T, B, "entry=main");

  RuntimeOptions RTOpts;
  RTOpts.Reporter.Mode = ReportMode::Count;
  Runtime RT1(Types, RTOpts);
  Runtime RT2(Types, RTOpts);
  interp::RunResult TR =
      interp::run(*C.M, RT1, interp::RunOptions(), "nonexistent");
  interp::RunResult BR =
      bytecode::run(*C.BC, RT2, interp::RunOptions(), "nonexistent");
  EXPECT_FALSE(TR.Ok);
  EXPECT_FALSE(BR.Ok);
  EXPECT_EQ(TR.Fault, BR.Fault);
}

TEST(Differential, EveryFusedCheckFailsAtItsSite) {
  for (const FusedFault &F : FusedFaults) {
    const char *Source = corpusSource(F.Program);
    ASSERT_TRUE(Source) << F.Program;
    TypeContext Types;
    DiagnosticEngine Diags;
    InstrumentOptions Opts;
    Opts.V = F.V;
    CompileResult C = compileMiniC(Source, Types, Diags, Opts);
    ASSERT_TRUE(C.BC) << F.Program;
    std::string Text = bytecode::disassemble(*C.BC);
    EXPECT_NE(Text.find(std::string(" ") + F.Mnemonic + " "),
              std::string::npos)
        << F.Program << " does not fuse into " << F.Mnemonic << "\n"
        << Text;

    EngineRun B = runEngine(Types, C, Engine::Bytecode);
    ASSERT_EQ(B.Msgs.size(), 1u) << F.Program;
    EXPECT_NE(B.Msgs[0].find(F.Report), std::string::npos)
        << F.Program << ": " << B.Msgs[0];
  }
}

//===----------------------------------------------------------------------===//
// Disassembler round trip
//===----------------------------------------------------------------------===//

TEST(Disasm, RoundTripReproducesEveryField) {
  TypeContext Types;
  DiagnosticEngine Diags;
  // A program exercising most opcode families: calls, floats, structs,
  // arrays, globals, strings, checks, branches.
  CompileResult C = compileMiniC(R"(
struct item { int id; double weight; };
struct item g_items[4];
double total(struct item *xs, int n) {
  double t = 0.0;
  int i;
  for (i = 0; i < n; i = i + 1)
    t = t + xs[i].weight;
  return t;
}
int main() {
  int i;
  for (i = 0; i < 4; i = i + 1) {
    g_items[i].id = i;
    g_items[i].weight = 1.5 * i;
  }
  print_str("total:");
  print_float(total(g_items, 4));
  return (int)total(g_items, 4);
}
)",
                                 Types, Diags, InstrumentOptions());
  ASSERT_TRUE(C.BC);

  std::string Text = bytecode::disassemble(*C.BC);
  std::vector<std::pair<std::string, std::vector<bytecode::Inst>>> Parsed;
  ASSERT_TRUE(bytecode::parseDisassembly(Text, Parsed));

  ASSERT_EQ(Parsed.size(), C.BC->Funcs.size());
  for (size_t F = 0; F < Parsed.size(); ++F) {
    const bytecode::BcFunction &Orig = C.BC->Funcs[F];
    EXPECT_EQ(Parsed[F].first, Orig.Name);
    ASSERT_EQ(Parsed[F].second.size(), Orig.Code.size()) << Orig.Name;
    for (size_t I = 0; I < Orig.Code.size(); ++I) {
      const bytecode::Inst &A = Orig.Code[I];
      const bytecode::Inst &B = Parsed[F].second[I];
      EXPECT_EQ(A.Op, B.Op) << Orig.Name << ":" << I;
      EXPECT_EQ(A.A, B.A) << Orig.Name << ":" << I;
      EXPECT_EQ(A.B, B.B) << Orig.Name << ":" << I;
      EXPECT_EQ(A.C, B.C) << Orig.Name << ":" << I;
      EXPECT_EQ(A.Imm, B.Imm) << Orig.Name << ":" << I;
      EXPECT_EQ(A.Aux, B.Aux) << Orig.Name << ":" << I;
      EXPECT_EQ(A.Type, B.Type) << Orig.Name << ":" << I;
    }
  }
}

TEST(Disasm, UnknownMnemonicIsRejected) {
  std::vector<std::pair<std::string, std::vector<bytecode::Inst>>> Parsed;
  EXPECT_FALSE(bytecode::parseDisassembly(
      "  0: NotAnOpcode a=0 b=0 c=0 imm=0x0 aux=0x0 ty=0x0\n", Parsed));
}

//===----------------------------------------------------------------------===//
// Fusion + dispatch sanity
//===----------------------------------------------------------------------===//

TEST(Fusion, HotCheckAccessPairsFuse) {
  TypeContext Types;
  DiagnosticEngine Diags;
  InstrumentOptions Opts;
  Opts.V = Variant::Full;
  CompileResult C = compileMiniC(R"(
int main() {
  int *a = (int *)malloc(16 * sizeof(int));
  int i;
  for (i = 0; i < 16; i = i + 1)
    a[i] = i;
  int t = 0;
  for (i = 0; i < 16; i = i + 1)
    t = t + a[i];
  free(a);
  return t;
}
)",
                                 Types, Diags, Opts);
  ASSERT_TRUE(C.BC);
  std::string Text = bytecode::disassemble(*C.BC);
  // The array loops must have produced fused check+access
  // superinstructions; which exact flavor depends on the optimizer, so
  // accept any of the catalogue.
  bool Fused = Text.find("BoundsCheckLoad") != std::string::npos ||
               Text.find("BoundsCheckStore") != std::string::npos ||
               Text.find("TypeCheckLoad") != std::string::npos ||
               Text.find("TypeCheckStore") != std::string::npos ||
               Text.find("BoundsGetCheckLoad") != std::string::npos ||
               Text.find("BoundsGetCheckStore") != std::string::npos ||
               Text.find("TypeCheckBounds") != std::string::npos ||
               Text.find("BoundsGetCheck") != std::string::npos;
  EXPECT_TRUE(Fused) << Text;

  // And fusion must never cross a branch: disassembly with fusion off
  // contains no superinstruction mnemonics at all.
  std::string Error;
  bytecode::CompileOptions BcOpts;
  BcOpts.FuseChecks = false;
  auto Plain = bytecode::compile(*C.M, &Error, BcOpts);
  ASSERT_TRUE(Plain) << Error;
  std::string PlainText = bytecode::disassemble(*Plain);
  EXPECT_EQ(PlainText.find("TypeCheckBounds"), std::string::npos);
  EXPECT_EQ(PlainText.find("CheckLoad"), std::string::npos);
  EXPECT_EQ(PlainText.find("CheckStore"), std::string::npos);
}

//===- interp/ExecSupport.h - Shared execution-engine helpers ---*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What both execution engines share: the tree-walking reference
/// interpreter (interp/Interp.cpp) and the direct-threaded bytecode VM
/// (bytecode/VM.cpp) must produce bit-identical results for every
/// program — same values, same faults, same fault messages — so
/// everything outside their execution cores lives here exactly once:
///
///   * the 64-bit Value union and integer canonicalization;
///   * scalar load/store directed by TypeInfo;
///   * arithmetic / comparison / conversion evaluation (including the
///     deliberate definedness choices: div-by-zero is 0, float-to-int
///     saturates, INT64_MIN / -1 does not trap);
///   * the host-memory safety net (arena membership + tracked legacy
///     blocks) that keeps a buggy *guest* program from performing a
///     wild access on the *host*;
///   * module images (globals + string literals materialized through
///     the typed global allocator);
///   * the engine shell both engines derive from (exec::Engine): module
///     load and site-table registration, run bookkeeping, faults, host
///     validation, the print builtins, and the check front end. A
///     session is the only check path: its CheckPolicy decides what
///     every executed check does.
///
/// Each engine keeps only its execution core: frames, calls and the
/// dispatch loop. Everything is header-inline: the engines compile
/// these into their dispatch loops, and the bytecode superinstructions
/// reach the same validate and check fast paths the tree-walker uses
/// with no extra call.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_INTERP_EXECSUPPORT_H
#define EFFECTIVE_INTERP_EXECSUPPORT_H

#include "api/Sanitizer.h"
#include "core/Runtime.h"
#include "interp/Interp.h"
#include "ir/IR.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace effective {
namespace exec {

/// One 64-bit VM value; interpretation is directed by register types.
union Value {
  int64_t I;
  uint64_t U;
  double F;
  void *P;
};

/// Canonicalizes an integer register value to its type's width.
EFFSAN_ALWAYS_INLINE Value normalizeInt(Value V, const TypeInfo *T) {
  switch (T->kind()) {
  case TypeKind::Bool:
    V.U = V.U & 1;
    break;
  case TypeKind::Char:
  case TypeKind::SChar:
    V.I = static_cast<int8_t>(V.U);
    break;
  case TypeKind::UChar:
    V.U = static_cast<uint8_t>(V.U);
    break;
  case TypeKind::Short:
    V.I = static_cast<int16_t>(V.U);
    break;
  case TypeKind::UShort:
    V.U = static_cast<uint16_t>(V.U);
    break;
  case TypeKind::Int:
    V.I = static_cast<int32_t>(V.U);
    break;
  case TypeKind::UInt:
    V.U = static_cast<uint32_t>(V.U);
    break;
  default:
    break;
  }
  return V;
}

inline bool isUnsignedInt(const TypeInfo *T) {
  switch (T->kind()) {
  case TypeKind::Bool:
  case TypeKind::UChar:
  case TypeKind::UShort:
  case TypeKind::UInt:
  case TypeKind::ULong:
  case TypeKind::ULongLong:
    return true;
  default:
    return false;
  }
}

/// Loads a scalar of type \p T from \p P into \p Out. Returns false for
/// a type no engine can load (aggregates); the engine faults with
/// "load of unsupported type".
EFFSAN_ALWAYS_INLINE bool loadScalar(const void *P, const TypeInfo *T,
                                            Value &Out) {
  Out.U = 0;
  switch (T->kind()) {
  case TypeKind::Bool:
  case TypeKind::Char:
  case TypeKind::SChar: {
    int8_t X;
    std::memcpy(&X, P, 1);
    Out.I = X;
    return true;
  }
  case TypeKind::UChar: {
    uint8_t X;
    std::memcpy(&X, P, 1);
    Out.U = X;
    return true;
  }
  case TypeKind::Short: {
    int16_t X;
    std::memcpy(&X, P, 2);
    Out.I = X;
    return true;
  }
  case TypeKind::UShort: {
    uint16_t X;
    std::memcpy(&X, P, 2);
    Out.U = X;
    return true;
  }
  case TypeKind::Int: {
    int32_t X;
    std::memcpy(&X, P, 4);
    Out.I = X;
    return true;
  }
  case TypeKind::UInt: {
    uint32_t X;
    std::memcpy(&X, P, 4);
    Out.U = X;
    return true;
  }
  case TypeKind::Long:
  case TypeKind::LongLong:
  case TypeKind::ULong:
  case TypeKind::ULongLong:
    std::memcpy(&Out.U, P, 8);
    return true;
  case TypeKind::Float: {
    float X;
    std::memcpy(&X, P, 4);
    Out.F = X;
    return true;
  }
  case TypeKind::Double:
    std::memcpy(&Out.F, P, 8);
    return true;
  case TypeKind::Pointer:
    std::memcpy(&Out.P, P, 8);
    return true;
  default:
    return false;
  }
}

/// Stores \p V as a scalar of type \p T at \p P; false for unsupported
/// types (the engine faults with "store of unsupported type").
EFFSAN_ALWAYS_INLINE bool storeScalar(void *P, const TypeInfo *T,
                                             Value V) {
  switch (T->kind()) {
  case TypeKind::Bool:
  case TypeKind::Char:
  case TypeKind::SChar:
  case TypeKind::UChar: {
    uint8_t X = static_cast<uint8_t>(V.U);
    std::memcpy(P, &X, 1);
    return true;
  }
  case TypeKind::Short:
  case TypeKind::UShort: {
    uint16_t X = static_cast<uint16_t>(V.U);
    std::memcpy(P, &X, 2);
    return true;
  }
  case TypeKind::Int:
  case TypeKind::UInt: {
    uint32_t X = static_cast<uint32_t>(V.U);
    std::memcpy(P, &X, 4);
    return true;
  }
  case TypeKind::Long:
  case TypeKind::ULong:
  case TypeKind::LongLong:
  case TypeKind::ULongLong:
    std::memcpy(P, &V.U, 8);
    return true;
  case TypeKind::Float: {
    float X = static_cast<float>(V.F);
    std::memcpy(P, &X, 4);
    return true;
  }
  case TypeKind::Double:
    std::memcpy(P, &V.F, 8);
    return true;
  case TypeKind::Pointer:
    std::memcpy(P, &V.P, 8);
    return true;
  default:
    return false;
  }
}

/// Evaluates A <Op> B with operands/result of type \p T. Returns false
/// for bitwise arithmetic on a floating type (the engine faults).
/// Division by zero is defined as 0 so buggy programs keep running
/// (the sanitizer's domain is memory, not arithmetic), and the one
/// signed-overflow trap case (INT64_MIN / -1) is special-cased.
EFFSAN_ALWAYS_INLINE bool evalArith(ir::ArithOp Op, const TypeInfo *T,
                                           Value A, Value B, Value &R) {
  R.U = 0;
  if (T->isFloating()) {
    switch (Op) {
    case ir::ArithOp::Add:
      R.F = A.F + B.F;
      return true;
    case ir::ArithOp::Sub:
      R.F = A.F - B.F;
      return true;
    case ir::ArithOp::Mul:
      R.F = A.F * B.F;
      return true;
    case ir::ArithOp::Div:
      R.F = B.F != 0 ? A.F / B.F : 0;
      return true;
    default:
      return false;
    }
  }
  bool U = isUnsignedInt(T);
  switch (Op) {
  case ir::ArithOp::Add:
    R.U = A.U + B.U;
    break;
  case ir::ArithOp::Sub:
    R.U = A.U - B.U;
    break;
  case ir::ArithOp::Mul:
    R.U = A.U * B.U;
    break;
  case ir::ArithOp::Div:
    if (B.U == 0)
      R.U = 0;
    else if (U)
      R.U = A.U / B.U;
    else if (A.I == INT64_MIN && B.I == -1)
      R.I = A.I;
    else
      R.I = A.I / B.I;
    break;
  case ir::ArithOp::Rem:
    if (B.U == 0)
      R.U = 0;
    else if (U)
      R.U = A.U % B.U;
    else if (A.I == INT64_MIN && B.I == -1)
      R.I = 0;
    else
      R.I = A.I % B.I;
    break;
  case ir::ArithOp::And:
    R.U = A.U & B.U;
    break;
  case ir::ArithOp::Or:
    R.U = A.U | B.U;
    break;
  case ir::ArithOp::Xor:
    R.U = A.U ^ B.U;
    break;
  case ir::ArithOp::Shl:
    R.U = A.U << (B.U & 63);
    break;
  case ir::ArithOp::Shr:
    if (U)
      R.U = A.U >> (B.U & 63);
    else
      R.I = A.I >> (B.U & 63);
    break;
  }
  R = normalizeInt(R, T);
  return true;
}

/// Evaluates A <Pred> B with operands of type \p T.
EFFSAN_ALWAYS_INLINE bool evalCompare(ir::Pred Pred, const TypeInfo *T,
                                             Value A, Value B) {
  if (T->isFloating()) {
    switch (Pred) {
    case ir::Pred::Eq:
      return A.F == B.F;
    case ir::Pred::Ne:
      return A.F != B.F;
    case ir::Pred::Lt:
      return A.F < B.F;
    case ir::Pred::Le:
      return A.F <= B.F;
    case ir::Pred::Gt:
      return A.F > B.F;
    case ir::Pred::Ge:
      return A.F >= B.F;
    }
  }
  if (T->isPointer() || isUnsignedInt(T)) {
    switch (Pred) {
    case ir::Pred::Eq:
      return A.U == B.U;
    case ir::Pred::Ne:
      return A.U != B.U;
    case ir::Pred::Lt:
      return A.U < B.U;
    case ir::Pred::Le:
      return A.U <= B.U;
    case ir::Pred::Gt:
      return A.U > B.U;
    case ir::Pred::Ge:
      return A.U >= B.U;
    }
  }
  switch (Pred) {
  case ir::Pred::Eq:
    return A.I == B.I;
  case ir::Pred::Ne:
    return A.I != B.I;
  case ir::Pred::Lt:
    return A.I < B.I;
  case ir::Pred::Le:
    return A.I <= B.I;
  case ir::Pred::Gt:
    return A.I > B.I;
  case ir::Pred::Ge:
    return A.I >= B.I;
  }
  return false;
}

/// Converts \p V from \p From to \p To. Returns false when \p From is
/// null (an untyped source register — malformed IR; the engine
/// faults). Out-of-range float-to-int saturates instead of trapping so
/// both engines stay deterministic.
EFFSAN_ALWAYS_INLINE bool evalConvert(Value V, const TypeInfo *From,
                                             const TypeInfo *To, Value &R) {
  R.U = 0;
  if (!From)
    return false;
  if (To->isFloating()) {
    if (From->isFloating())
      R.F = V.F;
    else if (isUnsignedInt(From))
      R.F = static_cast<double>(V.U);
    else
      R.F = static_cast<double>(V.I);
    if (To->kind() == TypeKind::Float)
      R.F = static_cast<float>(R.F);
    return true;
  }
  if (From->isFloating()) {
    double Clamped = V.F;
    if (isUnsignedInt(To)) {
      if (!(Clamped >= 0))
        Clamped = 0;
      if (Clamped >= 1.8446744073709552e19)
        Clamped = 1.8446744073709552e19;
      R.U = static_cast<uint64_t>(Clamped);
    } else {
      if (Clamped >= 9.223372036854775e18)
        Clamped = 9.223372036854775e18;
      if (Clamped <= -9.223372036854775e18)
        Clamped = -9.223372036854775e18;
      if (Clamped != Clamped)
        Clamped = 0;
      R.I = static_cast<int64_t>(Clamped);
    }
    R = normalizeInt(R, To);
    return true;
  }
  // Integer/pointer to integer: reinterpret then normalize.
  R.U = V.U;
  R = normalizeInt(R, To);
  return true;
}

//===----------------------------------------------------------------------===//
// Host-memory safety net
//===----------------------------------------------------------------------===//

/// Validates every raw guest access before an engine performs it on the
/// host. Accesses inside the demand-paged low-fat arena are host-safe
/// even when they are program errors (the checks have already logged
/// those); anything else must land inside a tracked legacy allocation,
/// or the engine faults with a deterministic "null ..." / "wild ..."
/// message.
class HostGuard {
public:
  explicit HostGuard(Runtime &RT) : RT(RT) {}

  /// Records a non-low-fat allocation the guest may legally touch.
  void noteLegacy(void *P, uint64_t Size) {
    Blocks.push_back({reinterpret_cast<uintptr_t>(P), Size});
  }

  /// Returns the host pointer for a \p Size byte access at \p Addr, or
  /// null with the engine's fault message rendered into \p FaultMsg.
  void *validate(Value Addr, uint64_t Size, const char *What,
                 std::string &FaultMsg) const {
    char *P = static_cast<char *>(Addr.P);
    if (!P) {
      FaultMsg = std::string("null ") + What;
      return nullptr;
    }
    if (RT.heap().isInArena(P) && RT.heap().isInArena(P + Size))
      return P;
    for (const auto &[Base, Len] : Blocks) {
      if (Addr.U >= Base && Addr.U + Size <= Base + Len)
        return Addr.P;
    }
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf),
                  "wild %s at 0x%" PRIxPTR " (%" PRIu64 " bytes)", What,
                  Addr.U, Size);
    FaultMsg = Buf;
    return nullptr;
  }

private:
  Runtime &RT;
  std::vector<std::pair<uintptr_t, uint64_t>> Blocks;
};

//===----------------------------------------------------------------------===//
// Module image: globals and string literals
//===----------------------------------------------------------------------===//

/// The module's statically allocated objects, materialized through the
/// typed global allocator so they carry META headers like any other
/// object.
struct ModuleImage {
  std::vector<void *> GlobalAddrs;
  std::vector<uint64_t> GlobalSizes;
  std::vector<void *> StringAddrs;
  std::vector<uint64_t> StringSizes;

  void allocate(const ir::Module &M, Runtime &RT) {
    GlobalAddrs.clear();
    GlobalSizes.clear();
    for (const ir::Global &G : M.Globals) {
      void *P = RT.globalAllocate(G.Size, G.ElemType, G.Name);
      GlobalAddrs.push_back(P);
      GlobalSizes.push_back(G.Size);
    }
    StringAddrs.clear();
    StringSizes.clear();
    for (const std::string &S : M.Strings) {
      uint64_t Size = S.size() + 1;
      // Null on exhaustion: the runtime already reported it; a program
      // touching the missing literal faults as a null access.
      void *P = RT.globalAllocate(Size, M.typeContext().getChar(), "__str");
      if (P) {
        std::memcpy(P, S.data(), S.size());
        static_cast<char *>(P)[S.size()] = '\0';
      }
      StringAddrs.push_back(P);
      StringSizes.push_back(Size);
    }
  }
};

//===----------------------------------------------------------------------===//
// The engine shell
//===----------------------------------------------------------------------===//

/// Everything around an execution core, written once for both engines:
/// module load, run bookkeeping, faults, the host-memory guard, the
/// print builtins and the check front end. A derived engine supplies
/// only its core (frames, calls and dispatch) and runs through run().
///
/// Faults (wild accesses, budget exhaustion — not program type/memory
/// errors, which the runtime reports while execution continues) set a
/// sticky flag that unwinds the core; the first message wins.
/// Exceptions are not used anywhere in this project.
///
/// Every check goes through the session, so its CheckPolicy governs
/// what an executed check does; memory management goes straight to
/// the runtime (allocation is policy-independent).
class Engine {
protected:
  Engine(Sanitizer &Session, const interp::RunOptions &Opts)
      : Session(Session), RT(Session.runtime()), CC(RT.threadContext()),
        Opts(Opts), Guard(RT) {}

  /// Loads \p M, calls \p Init (when non-null) then \p Main through
  /// \p Call — the core's `Value(const FnT &)` entry — and assembles
  /// the RunResult. A null \p Main faults with \p Entry's name.
  template <typename FnT, typename CallFn>
  interp::RunResult run(const ir::Module &M, const FnT *Init,
                        const FnT *Main, std::string_view Entry,
                        CallFn &&Call) {
    interp::RunResult R;
    uint64_t IssuesBefore = RT.reporter().numIssues();
    // Module load: hand the module's site table to the session, so
    // every check this run executes reports with source attribution.
    // Keyed by the module's process-unique uid — re-running the same
    // module reuses the registered range instead of burning a fresh
    // one, and a later module can never alias a destroyed one.
    if (M.numCheckSites() != 0)
      SiteBase = Session.registerSiteTable(M.siteTable(), M.uid());
    Image.allocate(M, RT);
    if (Init)
      Call(*Init);
    if (!Main)
      fault("entry function '" + std::string(Entry) + "' not found");
    else if (!Faulted)
      R.ExitCode = Call(*Main).I;
    R.Ok = !Faulted;
    R.Fault = std::move(FaultMsg);
    R.Output = std::move(Output);
    R.Steps = Steps;
    R.Checks = Checks;
    R.IssuesReported = RT.reporter().numIssues() - IssuesBefore;
    return R;
  }

  void fault(std::string Msg) {
    if (!Faulted) {
      Faulted = true;
      FaultMsg = std::move(Msg);
    }
  }

  /// Host validation for every guest load/store. The in-arena fast
  /// path is two compares and constructs nothing; null pointers,
  /// legacy blocks and fault rendering all take the out-of-line path
  /// (HostGuard::validate repeats the arena probe there).
  EFFSAN_ALWAYS_INLINE void *validate(Value Addr, uint64_t Size,
                                      const char *What) {
    char *P = static_cast<char *>(Addr.P);
    if (EFFSAN_LIKELY(P && RT.heap().isInArena(P) &&
                      RT.heap().isInArena(P + Size)))
      return P;
    return validateCold(Addr, Size, What);
  }

  /// The malloc builtin after the engine's size check: allocates
  /// through the runtime and lets the guest touch a legacy
  /// (system-allocator) block. A failed allocation was reported
  /// RESOURCE-EXHAUSTED by the runtime and surfaces as null, exactly
  /// like C malloc; null is never whitelisted (that would validate wild
  /// accesses at [0, Size)). Out of line, so the heap lookup stays out
  /// of the dispatch loops.
  EFFSAN_NOINLINE void *allocate(uint64_t Size, const TypeInfo *Type) {
    void *P = RT.allocate(Size, Type);
    if (P && !RT.heap().isLowFat(P))
      Guard.noteLegacy(P, Size);
    return P;
  }

  /// The print_* builtins over their one argument value. print_str
  /// walks the guest string byte by byte, validating every read,
  /// capped at 4096 characters; a faulting read ends the walk.
  void callBuiltin(ir::BuiltinId Id, Value Arg) {
    char Buf[64];
    switch (Id) {
    case ir::BuiltinId::PrintInt:
      std::snprintf(Buf, sizeof(Buf), "%" PRId64 "\n", Arg.I);
      Output += Buf;
      break;
    case ir::BuiltinId::PrintFloat:
      std::snprintf(Buf, sizeof(Buf), "%g\n", Arg.F);
      Output += Buf;
      break;
    case ir::BuiltinId::PrintStr:
      if (!Arg.P) {
        Output += "(null)\n";
        break;
      }
      for (uint64_t K = 0; K < 4096; ++K) {
        const char *C =
            static_cast<const char *>(validate(Arg, 1, "print_str read"));
        if (!C || *C == '\0')
          break;
        Output += *C;
        ++Arg.U;
      }
      Output += '\n';
      break;
    }
  }

  /// \name The check front end.
  /// Each check bumps its ExecutedChecks counter, short-circuits null
  /// pointers to wide bounds, and calls the session. Instrumented
  /// checks carry a dense per-module site, rebased into the session's
  /// registered range; hand-built IR has none, and a type check then
  /// takes the type-derived pseudo-site.
  /// @{
  EFFSAN_ALWAYS_INLINE Bounds typeCheck(const void *P, const TypeInfo *Type,
                                        SiteId Site) {
    ++Checks.TypeChecks;
    if (!P)
      return Bounds::wide();
    Site = Site == NoSite ? siteForType(Type) : rebase(Site);
    return Session.typeCheck(CC, P, Type, Site);
  }
  EFFSAN_ALWAYS_INLINE Bounds boundsGet(const void *P, SiteId Site) {
    ++Checks.BoundsGets;
    return P ? Session.boundsGet(CC, P, rebase(Site)) : Bounds::wide();
  }
  EFFSAN_ALWAYS_INLINE void boundsCheck(const void *P, size_t Size, Bounds B,
                                        SiteId Site) {
    ++Checks.BoundsChecks;
    if (P)
      Session.boundsCheck(CC, P, Size, B, rebase(Site));
  }
  EFFSAN_ALWAYS_INLINE Bounds boundsNarrow(Bounds B, const void *Field,
                                           size_t Size) {
    ++Checks.BoundsNarrows;
    return Session.boundsNarrow(CC, B, Field, Size);
  }
  /// @}

  Sanitizer &Session;
  Runtime &RT;
  /// The running thread's check context, resolved once per run.
  CheckContext &CC;
  const interp::RunOptions &Opts;
  /// Base the module's site table was rebased to at load (NoSite when
  /// the module has no sites).
  SiteId SiteBase = NoSite;

  HostGuard Guard;
  ModuleImage Image;

  std::string Output;
  uint64_t Steps = 0;
  uint64_t CallDepth = 0;
  interp::ExecutedChecks Checks;
  bool Faulted = false;
  std::string FaultMsg;

private:
  SiteId rebase(SiteId Site) const {
    return (Site == NoSite || SiteBase == NoSite) ? Site : SiteBase + Site;
  }

  EFFSAN_NOINLINE void *validateCold(Value Addr, uint64_t Size,
                                     const char *What) {
    std::string Msg;
    void *P = Guard.validate(Addr, Size, What, Msg);
    if (!P)
      fault(std::move(Msg));
    return P;
  }
};

} // namespace exec
} // namespace effective

#endif // EFFECTIVE_INTERP_EXECSUPPORT_H

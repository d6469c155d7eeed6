//===- ir/IR.h - Typed intermediate representation --------------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The typed intermediate representation the MiniC frontend lowers to
/// and the instrumentation pass (Figure 3 of the paper) operates on. It
/// plays the role of the paper's "type annotated LLVM IR": every value
/// register carries an interned TypeInfo, so the pass can identify
/// pointer inputs (parameters, call returns, loads, casts) and derived
/// pointers (field/index address computations) purely structurally.
///
/// Design notes:
///  * Registers are *mutable* (non-SSA). The frontend performs the
///    moral equivalent of mem2reg by assigning each promotable scalar
///    local one register for its whole lifetime, so re-assignments
///    (e.g. Figure 4's "xs = *tmp") simply redefine the register.
///  * Bounds values live in a parallel register file (BReg). Only the
///    instrumentation opcodes and the pointer-producing opcodes touch
///    them; an uninstrumented module has no bounds registers at all.
///  * Instructions are a tagged struct rather than a class hierarchy:
///    the IR exists to be instrumented, interpreted and printed, and a
///    flat representation keeps all three loops simple.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_IR_IR_H
#define EFFECTIVE_IR_IR_H

#include "core/SiteCache.h"
#include "core/SiteTable.h"
#include "core/TypeContext.h"
#include "support/Diagnostics.h"
#include "support/UniqueStamp.h"

#include <memory>
#include <string>
#include <vector>

namespace effective {
namespace ir {

/// A virtual value register index. Registers are typed (see
/// Function::regType) and mutable: an instruction may redefine a
/// register that was defined earlier.
using Reg = uint32_t;
inline constexpr Reg NoReg = ~0u;

/// A bounds register index (the BOUNDS values of Figure 3/4), parallel
/// to the value register file.
using BReg = uint32_t;
inline constexpr BReg NoBReg = ~0u;

/// A basic block index within a function.
using BlockId = uint32_t;

/// Instruction opcodes. The comment gives the operand convention; all
/// unused fields are NoReg/NoBReg/null.
enum class Opcode : uint8_t {
  // Constants and moves.
  ConstInt,   ///< Dst = Imm (of type Type).
  ConstFloat, ///< Dst = FImm (of type Type).
  ConstNull,  ///< Dst = null pointer (of type Type).
  StringAddr, ///< Dst = address of string literal Imm; BDst = its bounds.
  GlobalAddr, ///< Dst = address of global Imm; BDst = its bounds.
  SlotAddr,   ///< Dst = address of stack slot Imm; BDst = its bounds.
  Copy,       ///< Dst = A; BDst = BSrc when both set (pointer copies).

  // Arithmetic, comparison, conversion.
  Arith,   ///< Dst = A <AOp> B, operands and result of type Type.
  Compare, ///< Dst = A <Pred> B (int 0/1); operand type in Type.
  Convert, ///< Dst = (Type)A, a value conversion (not a pointer cast).

  // Address computation.
  PtrCast, ///< Dst = (Type*)A — Figure 3 rule (d) site; Type = pointee.
  FieldAddr, ///< Dst = &A->field[Imm] of record Type; rule (e) site.
  IndexAddr, ///< Dst = A + B * sizeof(Type); rule (f): BDst = BSrc.
  PtrDiff,   ///< Dst = (A - B) / sizeof(Type), a long.

  // Memory.
  Load,  ///< Dst = *(Type *)A; BSrc = bounds the pass checks against.
  Store, ///< *(Type *)A = B; BSrc as for Load.

  // Heap allocation (the paper's type_malloc / type_free).
  Malloc, ///< Dst = allocate(A bytes, element Type); BDst = alloc bounds.
  Free,   ///< deallocate(A).

  // Control flow.
  Call,        ///< Dst = call function Imm with Args.
  CallBuiltin, ///< Dst = builtin Imm (BuiltinId) with Args.
  Ret,         ///< return A (NoReg for void).
  Br,          ///< branch to Target0.
  CondBr,      ///< branch to Target0 if A is nonzero, else Target1.

  // Instrumentation (inserted by InstrumentPass; never by lowering).
  TypeCheck,    ///< BDst = type_check(A, Type[]) — Figure 6 lines 9-24.
  BoundsGet,    ///< BDst = bounds_get(A) — the -bounds variant's check.
  BoundsCheck,  ///< bounds_check(A, size Imm, BSrc) — rule (g).
  BoundsNarrow, ///< BDst = bounds_narrow(BSrc, A, size Imm) — rule (e).
  WideBounds,   ///< BDst = (0..UINTPTR_MAX).
};

/// Returns the mnemonic for \p Op (e.g. "type_check").
std::string_view opcodeName(Opcode Op);

/// Binary arithmetic operators for Opcode::Arith.
enum class ArithOp : uint8_t { Add, Sub, Mul, Div, Rem, And, Or, Xor,
                               Shl, Shr };

/// Comparison predicates for Opcode::Compare.
enum class Pred : uint8_t { Eq, Ne, Lt, Le, Gt, Ge };

/// Builtin functions callable from MiniC programs.
enum class BuiltinId : uint8_t {
  PrintInt,   ///< print_int(long): prints the value and a newline.
  PrintFloat, ///< print_float(double).
  PrintStr,   ///< print_str(char *): prints up to the first NUL.
};

/// Returns the source-level name of \p Id ("print_int", ...).
std::string_view builtinName(BuiltinId Id);

/// Resolves a builtin by source name; returns false if unknown.
bool lookupBuiltin(std::string_view Name, BuiltinId &Id);

/// One IR instruction. Field use is opcode-specific (see Opcode).
struct Instr {
  Opcode Op;
  ArithOp AOp = ArithOp::Add;
  Pred CmpPred = Pred::Eq;

  Reg Dst = NoReg;
  Reg A = NoReg;
  Reg B = NoReg;
  BReg BDst = NoBReg;
  BReg BSrc = NoBReg;

  /// Result/operand/pointee type, opcode-specific.
  const TypeInfo *Type = nullptr;

  /// Integer payload: constant, field index, access size, global/string
  /// /slot index, callee function index, or BuiltinId.
  uint64_t Imm = 0;
  double FImm = 0;

  BlockId Target0 = 0;
  BlockId Target1 = 0;

  /// The check's call-site identity (check opcodes only): a dense
  /// per-module id assigned by the instrumentation pass when it emits
  /// the check, carried to the runtime by the interpreter so every
  /// static check instruction owns one slot of the session's
  /// type-check inline cache. NoSite on hand-built or uninstrumented
  /// IR (the runtime then falls back to the type-derived pseudo-site).
  SiteId Site = NoSite;

  /// Argument registers (Call/CallBuiltin only).
  std::vector<Reg> Args;

  SourceLoc Loc;

  bool isTerminator() const {
    return Op == Opcode::Ret || Op == Opcode::Br || Op == Opcode::CondBr;
  }

  /// True for the dynamic-check opcodes inserted by instrumentation.
  bool isCheck() const {
    return Op >= Opcode::TypeCheck && Op <= Opcode::WideBounds;
  }
};

/// A basic block: a label plus straight-line instructions ending in a
/// terminator.
struct Block {
  std::string Name;
  std::vector<Instr> Instrs;
};

/// A function parameter: its source name, static type, the register it
/// arrives in, and its declaration location. The loc is donated by the
/// front end so the rule-(a) entry check of a pointer parameter has a
/// real line/column to attribute errors to (instead of degrading to the
/// file-only "at file in func" rendering).
struct Param {
  std::string Name;
  const TypeInfo *Type = nullptr;
  Reg R = NoReg;
  SourceLoc Loc;
};

/// A typed stack allocation (an address-taken or aggregate local). The
/// interpreter materializes every slot at frame entry through the typed
/// low-fat stack allocator, so slot objects carry META headers just
/// like heap objects.
struct StackSlot {
  std::string Name;
  /// Element type the META header binds (the scalar element for array
  /// locals, per the allocation-type convention of Section 3).
  const TypeInfo *ElemType = nullptr;
  /// Full object size in bytes.
  uint64_t Size = 0;
  /// The declared source-level type (for printing).
  const TypeInfo *DeclType = nullptr;
  /// The slot's address escapes the frame (stored to memory, passed to
  /// a call, or returned). Set by the instrumentation pass's escape
  /// analysis; the engines retire escaping slots through the stack
  /// use-after-return quarantine instead of freeing them at frame pop.
  bool Escapes = false;
};

/// One IR function.
class Function {
public:
  Function(std::string Name, const TypeInfo *ReturnType)
      : Name(std::move(Name)), ReturnType(ReturnType) {}

  const std::string &name() const { return Name; }
  const TypeInfo *returnType() const { return ReturnType; }

  std::vector<Param> Params;
  std::vector<StackSlot> Slots;
  std::vector<Block> Blocks;

  /// Creates a fresh register of static type \p T.
  Reg newReg(const TypeInfo *T) {
    RegTypes.push_back(T);
    return static_cast<Reg>(RegTypes.size() - 1);
  }

  /// Creates a fresh bounds register.
  BReg newBReg() { return NumBounds++; }

  uint32_t numRegs() const { return static_cast<uint32_t>(RegTypes.size()); }
  uint32_t numBRegs() const { return NumBounds; }

  /// The static type of register \p R (null only for malformed IR).
  const TypeInfo *regType(Reg R) const {
    return R < RegTypes.size() ? RegTypes[R] : nullptr;
  }

  /// Appends a new block and returns its id.
  BlockId newBlock(std::string Name) {
    Blocks.push_back(Block{std::move(Name), {}});
    return static_cast<BlockId>(Blocks.size() - 1);
  }

private:
  std::string Name;
  const TypeInfo *ReturnType;
  std::vector<const TypeInfo *> RegTypes;
  uint32_t NumBounds = 0;
};

/// A module-level global object (zero-initialized, typed).
struct Global {
  std::string Name;
  /// Element type for the META binding (see StackSlot::ElemType).
  const TypeInfo *ElemType = nullptr;
  uint64_t Size = 0;
  const TypeInfo *DeclType = nullptr;
};

/// One translation unit's worth of IR.
class Module {
public:
  explicit Module(TypeContext &Types) : Types(&Types) {}

  TypeContext &typeContext() const { return *Types; }

  Function *addFunction(std::string Name, const TypeInfo *ReturnType) {
    Functions.push_back(
        std::make_unique<Function>(std::move(Name), ReturnType));
    return Functions.back().get();
  }

  Function *findFunction(std::string_view Name) const {
    for (const auto &F : Functions)
      if (F->name() == Name)
        return F.get();
    return nullptr;
  }

  /// Index of \p F in the function table; used as Call's Imm.
  uint32_t indexOf(const Function *F) const {
    for (uint32_t I = 0; I < Functions.size(); ++I)
      if (Functions[I].get() == F)
        return I;
    return ~0u;
  }

  /// Allocates the next dense check-site id (used by the
  /// instrumentation pass for every check instruction it emits) and
  /// records its description in the module's site table, so the id can
  /// be resolved back to a source location in error reports. The
  /// invariant numCheckSites() == siteTable().Entries.size() is
  /// enforced by the verifier.
  SiteId newCheckSite(CheckSiteKind Kind, SourceLoc Loc,
                      const TypeInfo *StaticType,
                      std::string_view Function) {
    Sites.Entries.push_back(SiteTable::Entry{
        Kind, Loc, std::string(Function), StaticType});
    return NumCheckSites++;
  }

  /// Allocates an id with an unattributed (location-free) description —
  /// hand-built IR in tests.
  SiteId newCheckSite() {
    return newCheckSite(CheckSiteKind::TypeCheck, SourceLoc(), nullptr,
                        {});
  }

  /// Check sites allocated so far; every assigned Instr::Site is
  /// strictly below this (the verifier enforces it).
  uint32_t numCheckSites() const { return NumCheckSites; }

  /// The per-module site-attribution table (dense by SiteId). Module
  /// loaders hand it to SiteTableRegistry::registerTable; its File
  /// mirrors sourceName().
  const SiteTable &siteTable() const { return Sites; }
  SiteTable &siteTable() { return Sites; }

  /// The source file this module was compiled from, as shown in error
  /// reports and the printed `!site N @ "file:line:col"` annotations.
  const std::string &sourceName() const { return Sites.File; }
  void setSourceName(std::string Name) { Sites.File = std::move(Name); }

  /// Process-unique module identity. Used as the SiteTableRegistry
  /// registration key, so re-running a module is idempotent while a
  /// NEW module can never alias a destroyed one (heap addresses are
  /// reused; these ids never are).
  uint64_t uid() const { return Uid; }

  std::vector<std::unique_ptr<Function>> Functions;
  std::vector<Global> Globals;
  /// String literal payloads (NUL terminator not included; the
  /// interpreter appends one).
  std::vector<std::string> Strings;

private:
  TypeContext *Types;
  uint32_t NumCheckSites = 0;
  SiteTable Sites{/*File=*/"<minic>", /*Entries=*/{}};
  uint64_t Uid = nextUniqueStamp();
};

} // namespace ir
} // namespace effective

#endif // EFFECTIVE_IR_IR_H

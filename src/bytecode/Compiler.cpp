//===- bytecode/Compiler.cpp - IR -> bytecode lowering --------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One pass per function: walk the blocks in order, emit bytecode,
/// record branch fixups against block ids, then patch them to pc
/// offsets. Everything the tree-walker re-derives per execution is
/// folded here once: ConstInt canonicalization, record field offsets,
/// element sizes, integer-norm kinds, signedness, the compare flavour.
///
/// Fusion runs at emit time and only ever looks ahead inside the
/// current block — branches always target block starts, so a fused
/// superinstruction can never hide a branch target. The patterns are
/// exactly the sequences InstrumentPass emits in front of an access:
///
///   type_check p; bounds_check p,size,b; load/store  -> TypeCheckLoad/Store
///   type_check p; bounds_check p,size,b              -> TypeCheckBounds
///   type_check p; load/store (check elided)          -> TypeCheckLoad, Aux=0
///   bounds_get  p; ... (same three shapes)           -> BoundsGetCheck*
///   bounds_check p,size,b; load/store                -> BoundsCheckLoad/Store
///
/// A fused handler bumps the same ExecutedChecks counters, performs the
/// same null-pointer short-circuits, and reports through the same
/// runtime entry points as the unfused sequence — the differential
/// tests hold the two engines to bit-identical results.
///
//===----------------------------------------------------------------------===//

#include "bytecode/Compiler.h"

#include "core/TypeInfo.h"
#include "interp/ExecSupport.h"
#include "support/Casting.h"

using namespace effective;
using namespace effective::bytecode;
using namespace effective::ir;

namespace {

/// Register-file width cap: operands are 16 bits with NoR16 reserved.
constexpr uint32_t MaxRegs = 0xFFFE;

class Compiler {
public:
  Compiler(const Module &M, Program &P, const CompileOptions &Opts)
      : M(M), P(P), Opts(Opts) {}

  bool run() {
    P.M = &M;
    P.Funcs.reserve(M.Functions.size());
    for (const auto &F : M.Functions) {
      P.Funcs.emplace_back();
      if (!compileFunction(*F, P.Funcs.back()))
        return false;
    }
    return true;
  }

  std::string Error;

private:
  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg;
    return false;
  }

  static uint16_t r16(Reg R) {
    return R == NoReg ? NoR16 : static_cast<uint16_t>(R);
  }
  static uint16_t b16(BReg B) {
    return B == NoBReg ? NoR16 : static_cast<uint16_t>(B);
  }
  /// Packs a bounds dst/src pair into an Aux field (NoB32 = wide src).
  static uint64_t packB(BReg BDst, BReg BSrc) {
    uint32_t D = BDst == NoBReg ? NoB32 : static_cast<uint32_t>(BDst);
    uint32_t S = BSrc == NoBReg ? NoB32 : static_cast<uint32_t>(BSrc);
    return (static_cast<uint64_t>(D) << 32) | S;
  }
  static uint64_t packSites(SiteId First, SiteId Second) {
    return static_cast<uint64_t>(static_cast<uint32_t>(First)) |
           (static_cast<uint64_t>(static_cast<uint32_t>(Second)) << 32);
  }

  /// The compile-time residue of exec::normalizeInt for \p T.
  static Norm normFor(const TypeInfo *T) {
    if (!T)
      return Norm::None;
    switch (T->kind()) {
    case TypeKind::Bool:
      return Norm::Bool;
    case TypeKind::Char:
    case TypeKind::SChar:
      return Norm::S8;
    case TypeKind::UChar:
      return Norm::U8;
    case TypeKind::Short:
      return Norm::S16;
    case TypeKind::UShort:
      return Norm::U16;
    case TypeKind::Int:
      return Norm::S32;
    case TypeKind::UInt:
      return Norm::U32;
    default:
      return Norm::None;
    }
  }

  Inst &emit(BcFunction &BF, BcOp Op) {
    BF.Code.emplace_back();
    BF.Code.back().Op = Op;
    return BF.Code.back();
  }

  bool compileFunction(const Function &F, BcFunction &BF);
  bool emitOne(const Function &F, const Instr &I, BcFunction &BF);
  size_t tryFuse(const std::vector<Instr> &Ins, size_t Idx, BcFunction &BF);
  /// Index of the instruction after \p J in a fusion window, past
  /// copies nothing in the function reads.
  size_t nextInWindow(const std::vector<Instr> &Ins, size_t J) const;
  void eliminateDeadCopies(BcFunction &BF);

  const Module &M;
  Program &P;
  const CompileOptions &Opts;

  /// Branch fixups for the function being compiled: code indices whose
  /// Imm/Aux still hold block ids.
  std::vector<size_t> BrFixups;
  std::vector<uint64_t> BlockOff;
  /// Registers and bounds registers any instruction of the function
  /// being compiled reads (a whole-function superset, like
  /// eliminateDeadCopies' sets).
  std::vector<uint8_t> IrRegRead, IrBndRead;
};

bool Compiler::compileFunction(const Function &F, BcFunction &BF) {
  if (F.numRegs() > MaxRegs || F.numBRegs() > MaxRegs)
    return fail("function @" + F.name() + " exceeds the bytecode register cap");
  BF.Name = F.name();
  BF.NumRegs = F.numRegs();
  BF.NumBRegs = F.numBRegs();
  BF.ParamRegs.reserve(F.Params.size());
  for (const Param &Pa : F.Params) {
    if (Pa.R == NoReg || Pa.R >= F.numRegs())
      return fail("parameter without a register in @" + F.name());
    BF.ParamRegs.push_back(static_cast<uint16_t>(Pa.R));
  }
  BF.Slots.reserve(F.Slots.size());
  for (const StackSlot &S : F.Slots)
    BF.Slots.push_back(SlotDesc{S.ElemType, S.Size, S.Escapes});

  BrFixups.clear();
  BlockOff.assign(F.Blocks.size(), 0);
  IrRegRead.assign(F.numRegs(), 0);
  IrBndRead.assign(F.numBRegs(), 0);
  for (const Block &Bb : F.Blocks) {
    for (const Instr &I : Bb.Instrs) {
      for (Reg R : {I.A, I.B})
        if (R != NoReg && R < IrRegRead.size())
          IrRegRead[R] = 1;
      for (Reg R : I.Args)
        if (R < IrRegRead.size())
          IrRegRead[R] = 1;
      if (I.BSrc != NoBReg && I.BSrc < IrBndRead.size())
        IrBndRead[I.BSrc] = 1;
    }
  }

  for (BlockId B = 0; B < F.Blocks.size(); ++B) {
    BlockOff[B] = BF.Code.size();
    const std::vector<Instr> &Ins = F.Blocks[B].Instrs;
    size_t I = 0;
    while (I < Ins.size()) {
      if (Opts.FuseChecks) {
        if (size_t N = tryFuse(Ins, I, BF)) {
          I += N;
          continue;
        }
      }
      if (!emitOne(F, Ins[I], BF))
        return false;
      ++I;
    }
    // The tree-walker faults "fell off the end of a block" past an
    // unterminated block; a Trap keeps that behaviour (and stops an
    // empty trailing block from falling into its successor's code).
    if (Ins.empty() || !Ins.back().isTerminator())
      emit(BF, BcOp::Trap).Imm = TrapFellOffBlock;
  }
  if (F.Blocks.empty())
    emit(BF, BcOp::Trap).Imm = TrapFellOffBlock;

  for (size_t Idx : BrFixups) {
    Inst &In = BF.Code[Idx];
    if (In.Imm >= BlockOff.size() ||
        (In.Op == BcOp::CondBr && In.Aux >= BlockOff.size()))
      return fail("branch to a nonexistent block in @" + F.name());
    In.Imm = BlockOff[In.Imm];
    if (In.Op == BcOp::CondBr)
      In.Aux = BlockOff[In.Aux];
  }
  eliminateDeadCopies(BF);
  return true;
}

/// Drops Copy/CopyB instructions whose destination registers are never
/// read anywhere in the function. The IR lowering leaves many behind:
/// operand folding routes consumers at the SOURCE registers of variable
/// reads, so the copy into the read's own register frequently feeds
/// nothing — in check-dense loops a third of all dispatches. Uses
/// whole-function read sets (not per-path liveness): coarser, but
/// trivially sound, and iterated so a removed copy can expose the copy
/// that fed it. Branch targets are remapped; a target that WAS a dead
/// copy slides to the next surviving instruction.
void Compiler::eliminateDeadCopies(BcFunction &BF) {
  std::vector<uint8_t> RegRead, BndRead;
  std::vector<uint32_t> NewIdx(BF.Code.size() + 1);
  for (;;) {
    RegRead.assign(BF.NumRegs, 0);
    BndRead.assign(BF.NumBRegs, 0);
    auto RR = [&](uint16_t R) {
      if (R != NoR16 && R < RegRead.size())
        RegRead[R] = 1;
    };
    auto BR = [&](uint32_t B) {
      if (B != NoB32 && B != NoR16 && B < BndRead.size())
        BndRead[B] = 1;
    };
    for (const Inst &In : BF.Code) {
      switch (In.Op) {
      // No register reads.
      case BcOp::ConstInt:
      case BcOp::ConstFloat:
      case BcOp::ConstNull:
      case BcOp::StringAddr:
      case BcOp::GlobalAddr:
      case BcOp::SlotAddr:
      case BcOp::WideBounds:
      case BcOp::Br:
      case BcOp::Trap:
        break;
      // B (and for the -B forms, the source bounds register).
      case BcOp::Copy:
      case BcOp::Convert:
      case BcOp::FieldAddr:
      case BcOp::Load:
      case BcOp::Malloc:
        RR(In.B);
        break;
      case BcOp::CopyB:
      case BcOp::FieldAddrB:
        RR(In.B);
        BR(static_cast<uint32_t>(In.Aux));
        break;
      // B and C.
      case BcOp::AddI:
      case BcOp::SubI:
      case BcOp::MulI:
      case BcOp::DivI:
      case BcOp::RemI:
      case BcOp::AndI:
      case BcOp::OrI:
      case BcOp::XorI:
      case BcOp::ShlI:
      case BcOp::ShrI:
      case BcOp::AddF:
      case BcOp::SubF:
      case BcOp::MulF:
      case BcOp::DivF:
      case BcOp::CmpS:
      case BcOp::CmpU:
      case BcOp::CmpF:
      case BcOp::PtrDiff:
      case BcOp::IndexAddr:
        RR(In.B);
        RR(In.C);
        break;
      case BcOp::IndexAddrB:
        RR(In.B);
        RR(In.C);
        BR(static_cast<uint32_t>(In.Aux));
        break;
      // A (address/operand/condition).
      case BcOp::Free:
      case BcOp::Ret:
      case BcOp::CondBr:
      case BcOp::TypeCheck:
      case BcOp::BoundsGet:
      case BcOp::TypeCheckBounds:
      case BcOp::TypeCheckLoad:
      case BcOp::BoundsGetCheck:
      case BcOp::BoundsGetCheckLoad:
        RR(In.A);
        break;
      case BcOp::Store:
        RR(In.A);
        RR(In.B);
        break;
      case BcOp::BoundsCheck:
        RR(In.A);
        BR(In.B);
        break;
      case BcOp::BoundsNarrow:
        RR(In.A);
        BR(In.C);
        break;
      case BcOp::TypeCheckStore:
      case BcOp::BoundsGetCheckStore:
        RR(In.A);
        RR(In.C);
        break;
      case BcOp::BoundsCheckLoad:
        RR(In.A);
        BR(In.B);
        break;
      case BcOp::BoundsCheckStore:
        RR(In.A);
        RR(In.C);
        BR(In.B);
        break;
      case BcOp::Call:
      case BcOp::CallBuiltin:
        for (uint32_t I = 0; I < In.C; ++I)
          RR(P.ArgPool[In.Aux + I]);
        break;
      }
    }

    std::vector<Inst> Kept;
    Kept.reserve(BF.Code.size());
    bool Removed = false;
    for (size_t I = 0; I < BF.Code.size(); ++I) {
      NewIdx[I] = static_cast<uint32_t>(Kept.size());
      const Inst &In = BF.Code[I];
      bool Dead = false;
      if (In.Op == BcOp::Copy) {
        Dead = !RegRead[In.A];
      } else if (In.Op == BcOp::CopyB) {
        uint32_t BDst = static_cast<uint32_t>(In.Aux >> 32);
        Dead = !RegRead[In.A] && (BDst == NoB32 || !BndRead[BDst]);
      }
      if (Dead)
        Removed = true;
      else
        Kept.push_back(In);
    }
    if (!Removed)
      return;
    NewIdx[BF.Code.size()] = static_cast<uint32_t>(Kept.size());
    for (Inst &In : Kept) {
      if (In.Op == BcOp::Br) {
        In.Imm = NewIdx[In.Imm];
      } else if (In.Op == BcOp::CondBr) {
        In.Imm = NewIdx[In.Imm];
        In.Aux = NewIdx[In.Aux];
      }
    }
    BF.Code = std::move(Kept);
  }
}

size_t Compiler::nextInWindow(const std::vector<Instr> &Ins,
                              size_t J) const {
  // The lowering leaves a copy for a variable read on the right of a
  // store (`*h->p = k;` is type_check, copy, bounds_check, store). A
  // copy whose destinations nothing reads has no effect, so the fused
  // instruction drops it, as eliminateDeadCopies would.
  auto Dead = [&](const Instr &I) {
    return I.Op == Opcode::Copy && I.Dst < IrRegRead.size() &&
           !IrRegRead[I.Dst] &&
           (I.BDst == NoBReg ||
            (I.BDst < IrBndRead.size() && !IrBndRead[I.BDst]));
  };
  ++J;
  while (J < Ins.size() && Dead(Ins[J]))
    ++J;
  return J;
}

/// Looks for a fusable check+access sequence starting at \p Idx;
/// returns the number of IR instructions consumed (0 = no fusion),
/// dead copies inside the window included.
size_t Compiler::tryFuse(const std::vector<Instr> &Ins, size_t Idx,
                         BcFunction &BF) {
  const Instr &A = Ins[Idx];
  if (A.Op != Opcode::TypeCheck && A.Op != Opcode::BoundsGet &&
      A.Op != Opcode::BoundsCheck)
    return 0;

  // A load/store of the checked pointer whose scalar size the VM can
  // fold (aggregate accesses never reach the engines anyway).
  auto memMatch = [](const Instr &Mm, Reg Ptr) {
    return (Mm.Op == Opcode::Load || Mm.Op == Opcode::Store) && Mm.A == Ptr &&
           Mm.Type && Mm.Type->size() > 0;
  };

  if (A.Op == Opcode::BoundsCheck) {
    size_t J = nextInWindow(Ins, Idx);
    if (J >= Ins.size() || A.BSrc == NoBReg)
      return 0;
    const Instr &Mem = Ins[J];
    if (!memMatch(Mem, A.A) || A.Imm != Mem.Type->size())
      return 0;
    Inst &O = emit(BF, Mem.Op == Opcode::Load ? BcOp::BoundsCheckLoad
                                              : BcOp::BoundsCheckStore);
    O.A = r16(A.A);
    O.B = b16(A.BSrc);
    O.C = r16(Mem.Op == Opcode::Load ? Mem.Dst : Mem.B);
    O.Type = Mem.Type;
    O.Imm = static_cast<uint32_t>(A.Site);
    O.Aux = A.Imm;
    return J + 1 - Idx;
  }

  // type_check / bounds_get, optionally a bounds_check of the same
  // pointer against the bounds just produced, optionally the access.
  const bool IsTC = A.Op == Opcode::TypeCheck;
  if (A.BDst == NoBReg)
    return 0;
  const Instr *BC = nullptr;
  const Instr *Mem = nullptr;
  size_t End = Idx + 1;
  if (size_t J = nextInWindow(Ins, Idx); J < Ins.size()) {
    const Instr &X = Ins[J];
    if (X.Op == Opcode::BoundsCheck && X.A == A.A && X.BSrc == A.BDst &&
        X.Imm > 0) {
      BC = &X;
      End = J + 1;
      size_t K = nextInWindow(Ins, J);
      if (K < Ins.size() && memMatch(Ins[K], A.A) &&
          BC->Imm == Ins[K].Type->size() &&
          (!IsTC || Ins[K].Type == A.Type)) {
        Mem = &Ins[K];
        End = K + 1;
      }
    } else if (memMatch(X, A.A) && (!IsTC || X.Type == A.Type)) {
      Mem = &X;
      End = J + 1;
    }
  }
  if (End == Idx + 1)
    return 0;

  BcOp Op;
  if (Mem) {
    const bool IsLoad = Mem->Op == Opcode::Load;
    Op = IsTC ? (IsLoad ? BcOp::TypeCheckLoad : BcOp::TypeCheckStore)
              : (IsLoad ? BcOp::BoundsGetCheckLoad : BcOp::BoundsGetCheckStore);
  } else {
    Op = IsTC ? BcOp::TypeCheckBounds : BcOp::BoundsGetCheck;
  }
  Inst &O = emit(BF, Op);
  O.A = r16(A.A);
  O.B = b16(A.BDst);
  O.Type = IsTC ? A.Type : (Mem ? Mem->Type : nullptr);
  O.Imm = packSites(A.Site, BC ? BC->Site : NoSite);
  O.Aux = BC ? BC->Imm : 0;
  if (Mem)
    O.C = r16(Mem->Op == Opcode::Load ? Mem->Dst : Mem->B);
  return End - Idx;
}

bool Compiler::emitOne(const Function &F, const Instr &I, BcFunction &BF) {
  switch (I.Op) {
  case Opcode::ConstInt: {
    Inst &O = emit(BF, BcOp::ConstInt);
    O.A = r16(I.Dst);
    exec::Value V;
    V.U = I.Imm;
    if (I.Type)
      V = exec::normalizeInt(V, I.Type);
    O.Imm = V.U;
    break;
  }
  case Opcode::ConstFloat: {
    Inst &O = emit(BF, BcOp::ConstFloat);
    O.A = r16(I.Dst);
    static_assert(sizeof(I.FImm) == sizeof(O.Aux), "double is 64-bit");
    std::memcpy(&O.Aux, &I.FImm, sizeof(O.Aux));
    break;
  }
  case Opcode::ConstNull:
    emit(BF, BcOp::ConstNull).A = r16(I.Dst);
    break;
  case Opcode::StringAddr:
  case Opcode::GlobalAddr:
  case Opcode::SlotAddr: {
    BcOp Op = I.Op == Opcode::StringAddr   ? BcOp::StringAddr
              : I.Op == Opcode::GlobalAddr ? BcOp::GlobalAddr
                                           : BcOp::SlotAddr;
    Inst &O = emit(BF, Op);
    O.A = r16(I.Dst);
    O.B = b16(I.BDst);
    O.Imm = I.Imm;
    if (I.Op == Opcode::StringAddr && I.Imm >= M.Strings.size())
      return fail("string index out of range in @" + F.name());
    if (I.Op == Opcode::GlobalAddr && I.Imm >= M.Globals.size())
      return fail("global index out of range in @" + F.name());
    if (I.Op == Opcode::SlotAddr && I.Imm >= F.Slots.size())
      return fail("slot index out of range in @" + F.name());
    break;
  }
  case Opcode::Copy:
  case Opcode::PtrCast: {
    Inst &O = emit(BF, I.BDst != NoBReg ? BcOp::CopyB : BcOp::Copy);
    O.A = r16(I.Dst);
    O.B = r16(I.A);
    if (I.BDst != NoBReg)
      O.Aux = packB(I.BDst, I.BSrc);
    break;
  }
  case Opcode::Arith: {
    if (!I.Type)
      return fail("untyped arithmetic in @" + F.name());
    if (I.Type->isFloating()) {
      BcOp Op;
      switch (I.AOp) {
      case ArithOp::Add:
        Op = BcOp::AddF;
        break;
      case ArithOp::Sub:
        Op = BcOp::SubF;
        break;
      case ArithOp::Mul:
        Op = BcOp::MulF;
        break;
      case ArithOp::Div:
        Op = BcOp::DivF;
        break;
      default:
        // The tree-walker faults at execution, not compile — match it.
        emit(BF, BcOp::Trap).Imm = TrapFloatBitwise;
        return true;
      }
      Inst &O = emit(BF, Op);
      O.A = r16(I.Dst);
      O.B = r16(I.A);
      O.C = r16(I.B);
      break;
    }
    BcOp Op = BcOp::AddI;
    switch (I.AOp) {
    case ArithOp::Add:
      Op = BcOp::AddI;
      break;
    case ArithOp::Sub:
      Op = BcOp::SubI;
      break;
    case ArithOp::Mul:
      Op = BcOp::MulI;
      break;
    case ArithOp::Div:
      Op = BcOp::DivI;
      break;
    case ArithOp::Rem:
      Op = BcOp::RemI;
      break;
    case ArithOp::And:
      Op = BcOp::AndI;
      break;
    case ArithOp::Or:
      Op = BcOp::OrI;
      break;
    case ArithOp::Xor:
      Op = BcOp::XorI;
      break;
    case ArithOp::Shl:
      Op = BcOp::ShlI;
      break;
    case ArithOp::Shr:
      Op = BcOp::ShrI;
      break;
    }
    Inst &O = emit(BF, Op);
    O.A = r16(I.Dst);
    O.B = r16(I.A);
    O.C = r16(I.B);
    O.Imm = static_cast<uint64_t>(normFor(I.Type)) |
            (exec::isUnsignedInt(I.Type) ? ArithUnsigned : 0);
    break;
  }
  case Opcode::Compare: {
    if (!I.Type)
      return fail("untyped compare in @" + F.name());
    BcOp Op = I.Type->isFloating() ? BcOp::CmpF
              : (I.Type->isPointer() || exec::isUnsignedInt(I.Type))
                  ? BcOp::CmpU
                  : BcOp::CmpS;
    Inst &O = emit(BF, Op);
    O.A = r16(I.Dst);
    O.B = r16(I.A);
    O.C = r16(I.B);
    O.Imm = static_cast<uint64_t>(I.CmpPred);
    break;
  }
  case Opcode::Convert: {
    Inst &O = emit(BF, BcOp::Convert);
    O.A = r16(I.Dst);
    O.B = r16(I.A);
    O.Type = I.Type;
    O.Aux = reinterpret_cast<uint64_t>(F.regType(I.A));
    break;
  }
  case Opcode::FieldAddr: {
    const auto *Rec = dyn_cast<RecordType>(I.Type);
    if (!Rec || I.Imm >= Rec->fields().size())
      return fail("malformed field_addr in @" + F.name());
    Inst &O =
        emit(BF, I.BDst != NoBReg ? BcOp::FieldAddrB : BcOp::FieldAddr);
    O.A = r16(I.Dst);
    O.B = r16(I.A);
    O.Imm = Rec->fields()[I.Imm].Offset;
    if (I.BDst != NoBReg)
      O.Aux = packB(I.BDst, I.BSrc);
    break;
  }
  case Opcode::IndexAddr: {
    if (!I.Type)
      return fail("untyped index_addr in @" + F.name());
    Inst &O =
        emit(BF, I.BDst != NoBReg ? BcOp::IndexAddrB : BcOp::IndexAddr);
    O.A = r16(I.Dst);
    O.B = r16(I.A);
    O.C = r16(I.B);
    O.Imm = I.Type->size();
    if (I.BDst != NoBReg)
      O.Aux = packB(I.BDst, I.BSrc);
    break;
  }
  case Opcode::PtrDiff: {
    if (!I.Type)
      return fail("untyped ptr_diff in @" + F.name());
    Inst &O = emit(BF, BcOp::PtrDiff);
    O.A = r16(I.Dst);
    O.B = r16(I.A);
    O.C = r16(I.B);
    O.Imm = I.Type->size() ? I.Type->size() : 1;
    break;
  }
  case Opcode::Load: {
    Inst &O = emit(BF, BcOp::Load);
    O.A = r16(I.Dst);
    O.B = r16(I.A);
    O.Type = I.Type;
    break;
  }
  case Opcode::Store: {
    Inst &O = emit(BF, BcOp::Store);
    O.A = r16(I.A);
    O.B = r16(I.B);
    O.Type = I.Type;
    break;
  }
  case Opcode::Malloc: {
    Inst &O = emit(BF, BcOp::Malloc);
    O.A = r16(I.Dst);
    O.B = r16(I.A);
    O.C = b16(I.BDst);
    O.Type = I.Type;
    break;
  }
  case Opcode::Free:
    emit(BF, BcOp::Free).A = r16(I.A);
    break;
  case Opcode::Call: {
    if (I.Imm >= M.Functions.size())
      return fail("call to a nonexistent function in @" + F.name());
    if (I.Args.size() > 0xFFFF)
      return fail("call with too many arguments in @" + F.name());
    Inst &O = emit(BF, BcOp::Call);
    O.A = r16(I.Dst);
    O.Imm = I.Imm;
    O.C = static_cast<uint16_t>(I.Args.size());
    O.Aux = P.ArgPool.size();
    for (Reg R : I.Args)
      P.ArgPool.push_back(r16(R));
    break;
  }
  case Opcode::CallBuiltin: {
    if (I.Args.empty())
      return fail("builtin call without arguments in @" + F.name());
    Inst &O = emit(BF, BcOp::CallBuiltin);
    O.Imm = I.Imm;
    O.C = static_cast<uint16_t>(I.Args.size());
    O.Aux = P.ArgPool.size();
    for (Reg R : I.Args)
      P.ArgPool.push_back(r16(R));
    break;
  }
  case Opcode::Ret:
    emit(BF, BcOp::Ret).A = r16(I.A);
    break;
  case Opcode::Br: {
    Inst &O = emit(BF, BcOp::Br);
    O.Imm = I.Target0;
    BrFixups.push_back(BF.Code.size() - 1);
    break;
  }
  case Opcode::CondBr: {
    Inst &O = emit(BF, BcOp::CondBr);
    O.A = r16(I.A);
    O.Imm = I.Target0;
    O.Aux = I.Target1;
    BrFixups.push_back(BF.Code.size() - 1);
    break;
  }
  case Opcode::TypeCheck: {
    Inst &O = emit(BF, BcOp::TypeCheck);
    O.A = r16(I.A);
    O.B = b16(I.BDst);
    O.Type = I.Type;
    O.Imm = static_cast<uint32_t>(I.Site);
    break;
  }
  case Opcode::BoundsGet: {
    Inst &O = emit(BF, BcOp::BoundsGet);
    O.A = r16(I.A);
    O.B = b16(I.BDst);
    O.Imm = static_cast<uint32_t>(I.Site);
    break;
  }
  case Opcode::BoundsCheck: {
    Inst &O = emit(BF, BcOp::BoundsCheck);
    O.A = r16(I.A);
    O.B = b16(I.BSrc);
    O.Imm = static_cast<uint32_t>(I.Site);
    O.Aux = I.Imm;
    break;
  }
  case Opcode::BoundsNarrow: {
    Inst &O = emit(BF, BcOp::BoundsNarrow);
    O.A = r16(I.A);
    O.B = b16(I.BDst);
    O.C = b16(I.BSrc);
    O.Imm = I.Imm;
    break;
  }
  case Opcode::WideBounds:
    emit(BF, BcOp::WideBounds).B = b16(I.BDst);
    break;
  }
  return true;
}

} // namespace

std::unique_ptr<Program> bytecode::compile(const ir::Module &M,
                                           std::string *Error,
                                           const CompileOptions &Opts) {
  auto P = std::make_unique<Program>();
  Compiler C(M, *P, Opts);
  if (!C.run()) {
    if (Error)
      *Error = C.Error;
    return nullptr;
  }
  return P;
}

//===- interp/Interp.cpp - IR interpreter over the runtime ----------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tree-walking reference interpreter. It executes ir::Module
/// instruction objects directly — simple, slow, and the differential
/// oracle for the bytecode VM (bytecode/VM.cpp). Both engines derive
/// from the one engine shell in interp/ExecSupport.h (module load,
/// faults, host validation, builtins, the session check front end) and
/// must produce identical results, checks and error reports for every
/// program; this file holds only the tree-walking core.
///
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "api/Sanitizer.h"
#include "interp/ExecSupport.h"

#include <cstring>
#include <vector>

using namespace effective;
using namespace effective::interp;
using namespace effective::ir;

namespace {

using exec::Value;

/// The tree-walking core over the shared engine shell.
class Interpreter : exec::Engine {
public:
  Interpreter(const Module &M, Sanitizer &Session, const RunOptions &Opts)
      : Engine(Session, Opts), M(M) {}

  RunResult run(std::string_view Entry) {
    return Engine::run(
        M, M.findFunction("__global_init"), M.findFunction(Entry), Entry,
        [this](const Function &F) { return callFunction(F, {}); });
  }

private:
  //===--------------------------------------------------------------------===//
  // Frames and calls
  //===--------------------------------------------------------------------===//

  Value callFunction(const Function &F, const std::vector<Value> &Args) {
    Value Ret{0};
    if (Faulted)
      return Ret;
    if (++CallDepth > Opts.MaxCallDepth) {
      --CallDepth;
      fault("call depth limit exceeded in @" + F.name());
      return Ret;
    }

    std::vector<Value> Regs(F.numRegs(), Value{0});
    std::vector<Bounds> BRegs(F.numBRegs(), Bounds::wide());
    for (size_t I = 0; I < Args.size() && I < F.Params.size(); ++I)
      Regs[F.Params[I].R] = Args[I];

    // Typed stack slots through the low-fat stack allocator; released
    // (rebound to FREE) on every exit path — dangling-stack uses after
    // this frame returns are caught as use-after-free.
    size_t Mark = RT.stackMark(CC);
    std::vector<void *> Slots;
    Slots.reserve(F.Slots.size());
    for (const StackSlot &S : F.Slots) {
      // An exhausted stack pool (real OOM or an induced fault) was
      // already reported as RESOURCE-EXHAUSTED by the runtime; the
      // slot stays null and any access through it faults cleanly as a
      // null deref instead of memset scribbling through a null.
      void *P = RT.stackAllocate(CC, S.Size, S.ElemType, S.Escapes);
      if (P)
        std::memset(P, 0, S.Size);
      Slots.push_back(P);
    }

    Ret = execute(F, Regs, BRegs, Slots);
    RT.stackRelease(CC, Mark);
    --CallDepth;
    return Ret;
  }

  Value execute(const Function &F, std::vector<Value> &Regs,
                std::vector<Bounds> &BRegs, std::vector<void *> &Slots) {
    BlockId Cur = 0;
    size_t Idx = 0;
    Value Zero{0};
    for (;;) {
      if (Faulted)
        return Zero;
      if (Cur >= F.Blocks.size() || Idx >= F.Blocks[Cur].Instrs.size()) {
        fault("fell off the end of a block in @" + F.name());
        return Zero;
      }
      const Instr &I = F.Blocks[Cur].Instrs[Idx];
      if (++Steps > Opts.MaxSteps) {
        fault("instruction budget exhausted in @" + F.name());
        return Zero;
      }

      switch (I.Op) {
      case Opcode::ConstInt:
        Regs[I.Dst].U = I.Imm;
        Regs[I.Dst] = exec::normalizeInt(Regs[I.Dst], I.Type);
        break;
      case Opcode::ConstFloat:
        Regs[I.Dst].F = I.FImm;
        break;
      case Opcode::ConstNull:
        Regs[I.Dst].P = nullptr;
        break;
      case Opcode::StringAddr:
        Regs[I.Dst].P = Image.StringAddrs[I.Imm];
        if (I.BDst != NoBReg)
          BRegs[I.BDst] = Bounds::forObject(Image.StringAddrs[I.Imm],
                                            Image.StringSizes[I.Imm]);
        break;
      case Opcode::GlobalAddr:
        Regs[I.Dst].P = Image.GlobalAddrs[I.Imm];
        if (I.BDst != NoBReg)
          BRegs[I.BDst] = Bounds::forObject(Image.GlobalAddrs[I.Imm],
                                            Image.GlobalSizes[I.Imm]);
        break;
      case Opcode::SlotAddr:
        Regs[I.Dst].P = Slots[I.Imm];
        if (I.BDst != NoBReg)
          BRegs[I.BDst] =
              Bounds::forObject(Slots[I.Imm], F.Slots[I.Imm].Size);
        break;
      case Opcode::Copy:
        Regs[I.Dst] = Regs[I.A];
        if (I.BDst != NoBReg)
          BRegs[I.BDst] =
              I.BSrc != NoBReg ? BRegs[I.BSrc] : Bounds::wide();
        break;
      case Opcode::Arith: {
        Value R;
        if (!exec::evalArith(I.AOp, I.Type, Regs[I.A], Regs[I.B], R))
          fault("bitwise arithmetic on floating type");
        Regs[I.Dst] = R;
        break;
      }
      case Opcode::Compare:
        Regs[I.Dst].I =
            exec::evalCompare(I.CmpPred, I.Type, Regs[I.A], Regs[I.B]) ? 1
                                                                       : 0;
        break;
      case Opcode::Convert: {
        Value R;
        if (!exec::evalConvert(Regs[I.A], F.regType(I.A), I.Type, R))
          fault("convert with untyped source register");
        Regs[I.Dst] = R;
        break;
      }
      case Opcode::PtrCast:
        Regs[I.Dst] = Regs[I.A];
        if (I.BDst != NoBReg)
          BRegs[I.BDst] =
              I.BSrc != NoBReg ? BRegs[I.BSrc] : Bounds::wide();
        break;
      case Opcode::FieldAddr: {
        const auto *Rec = cast<RecordType>(I.Type);
        const FieldInfo &Fi = Rec->fields()[I.Imm];
        Regs[I.Dst].U = Regs[I.A].U + Fi.Offset;
        if (I.BDst != NoBReg)
          BRegs[I.BDst] =
              I.BSrc != NoBReg ? BRegs[I.BSrc] : Bounds::wide();
        break;
      }
      case Opcode::IndexAddr:
        Regs[I.Dst].U =
            Regs[I.A].U +
            static_cast<uint64_t>(Regs[I.B].I *
                                  static_cast<int64_t>(I.Type->size()));
        if (I.BDst != NoBReg)
          BRegs[I.BDst] =
              I.BSrc != NoBReg ? BRegs[I.BSrc] : Bounds::wide();
        break;
      case Opcode::PtrDiff:
        Regs[I.Dst].I =
            (Regs[I.A].I - Regs[I.B].I) /
            static_cast<int64_t>(I.Type->size() ? I.Type->size() : 1);
        break;
      case Opcode::Load: {
        if (void *P = validate(Regs[I.A], I.Type->size(), "load")) {
          if (!exec::loadScalar(P, I.Type, Regs[I.Dst]))
            fault("load of unsupported type " + I.Type->str());
        }
        break;
      }
      case Opcode::Store: {
        if (void *P = validate(Regs[I.A], I.Type->size(), "store")) {
          if (!exec::storeScalar(P, I.Type, Regs[I.B]))
            fault("store of unsupported type " + I.Type->str());
        }
        break;
      }
      case Opcode::Malloc: {
        uint64_t Size = Regs[I.A].U;
        if (Size > (uint64_t(1) << 40)) {
          fault("implausible malloc size");
          break;
        }
        // A null result (failed allocation) gets wide bounds, as any
        // legacy pointer.
        void *P = allocate(Size, I.Type);
        Regs[I.Dst].P = P;
        if (I.BDst != NoBReg)
          BRegs[I.BDst] = P ? Bounds::forObject(P, Size) : Bounds::wide();
        break;
      }
      case Opcode::Free:
        RT.deallocate(Regs[I.A].P);
        break;
      case Opcode::Call: {
        const Function &Callee = *M.Functions[I.Imm];
        std::vector<Value> Args;
        Args.reserve(I.Args.size());
        for (Reg R : I.Args)
          Args.push_back(Regs[R]);
        Value Ret = callFunction(Callee, Args);
        if (I.Dst != NoReg)
          Regs[I.Dst] = Ret;
        break;
      }
      case Opcode::CallBuiltin:
        callBuiltin(static_cast<BuiltinId>(I.Imm), Regs[I.Args[0]]);
        break;
      case Opcode::Ret: {
        Value V{0};
        if (I.A != NoReg)
          V = Regs[I.A];
        return V;
      }
      case Opcode::Br:
        Cur = I.Target0;
        Idx = 0;
        continue;
      case Opcode::CondBr:
        Cur = Regs[I.A].U != 0 ? I.Target0 : I.Target1;
        Idx = 0;
        continue;
      case Opcode::TypeCheck:
        BRegs[I.BDst] = typeCheck(Regs[I.A].P, I.Type, I.Site);
        break;
      case Opcode::BoundsGet:
        BRegs[I.BDst] = boundsGet(Regs[I.A].P, I.Site);
        break;
      case Opcode::BoundsCheck:
        boundsCheck(Regs[I.A].P, I.Imm, BRegs[I.BSrc], I.Site);
        break;
      case Opcode::BoundsNarrow:
        BRegs[I.BDst] = boundsNarrow(BRegs[I.BSrc], Regs[I.A].P, I.Imm);
        break;
      case Opcode::WideBounds:
        BRegs[I.BDst] = Bounds::wide();
        break;
      }
      ++Idx;
    }
  }

  const Module &M;
};

} // namespace

RunResult interp::run(const Module &M, Runtime &RT, const RunOptions &Opts,
                      std::string_view Entry) {
  Sanitizer Session(RT, CheckPolicy::Full);
  return run(M, Session, Opts, Entry);
}

RunResult interp::run(const Module &M, Sanitizer &Session,
                      const RunOptions &Opts, std::string_view Entry) {
  return Interpreter(M, Session, Opts).run(Entry);
}

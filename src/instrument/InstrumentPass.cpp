//===- instrument/InstrumentPass.cpp - Figure 3 schema --------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "instrument/InstrumentPass.h"

#include <unordered_map>
#include <vector>

using namespace effective;
using namespace effective::instrument;
using namespace effective::ir;

namespace {

/// Per-function instrumentation.
class FunctionInstrumenter {
public:
  FunctionInstrumenter(Module &M, Function &F,
                       const InstrumentOptions &Opts,
                       InstrumentStats &Stats)
      : M(M), F(F), Opts(Opts), Schema(traitsOf(Opts.V)), Stats(Stats) {}

  void run() {
    markEscapingSlots();
    if (!Schema.CheckInputs && !Schema.CheckCasts)
      return;
    computeNeeded();
    allocateBoundsRegs();
    for (BlockId B = 0; B < F.Blocks.size(); ++B)
      instrumentBlock(B);
    if (Opts.ElideSubsumedChecks && Schema.CheckBounds)
      for (Block &B : F.Blocks)
        removeSubsumed(B);
  }

private:
  bool isPointerReg(Reg R) const {
    const TypeInfo *T = F.regType(R);
    return T && T->isPointer();
  }

  const TypeInfo *pointeeOf(Reg R) const {
    const auto *PT = dyn_cast_if_present<PointerType>(F.regType(R));
    return PT ? PT->pointee() : nullptr;
  }

  //===--------------------------------------------------------------------===//
  // Slot escape analysis
  //===--------------------------------------------------------------------===//

  /// Marks stack slots whose address escapes the frame: a slot-derived
  /// pointer stored as a *value*, passed to a call, or returned. Only
  /// escaping slots can dangle after the frame pops, so only they pay
  /// the use-after-return quarantine delay at runtime. The marking is a
  /// property of the IR, not of the check variant, so it runs for every
  /// variant (including Variant::None) — both engines then allocate
  /// identically across all variants.
  void markEscapingSlots() {
    if (F.Slots.empty())
      return;
    // PointsTo[R] = bitset over slots register R may address.
    size_t NumSlots = F.Slots.size();
    std::vector<std::vector<bool>> PointsTo(
        F.numRegs(), std::vector<bool>(NumSlots, false));
    auto merge = [&](Reg Dst, Reg Src) {
      if (Dst == NoReg || Src == NoReg || Dst >= PointsTo.size() ||
          Src >= PointsTo.size())
        return false;
      bool Changed = false;
      for (size_t S = 0; S < NumSlots; ++S)
        if (PointsTo[Src][S] && !PointsTo[Dst][S]) {
          PointsTo[Dst][S] = true;
          Changed = true;
        }
      return Changed;
    };
    // Seed from slot_addr, then propagate through derived pointers to a
    // fixed point (covers loops and out-of-order block layouts).
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const Block &B : F.Blocks) {
        for (const Instr &I : B.Instrs) {
          switch (I.Op) {
          case Opcode::SlotAddr:
            if (I.Dst != NoReg && I.Imm < NumSlots &&
                !PointsTo[I.Dst][I.Imm]) {
              PointsTo[I.Dst][I.Imm] = true;
              Changed = true;
            }
            break;
          case Opcode::IndexAddr:
          case Opcode::FieldAddr:
          case Opcode::Copy:
          case Opcode::PtrCast:
            Changed |= merge(I.Dst, I.A);
            break;
          default:
            break;
          }
        }
      }
    }
    auto escape = [&](Reg R) {
      if (R == NoReg || R >= PointsTo.size())
        return;
      for (size_t S = 0; S < NumSlots; ++S)
        if (PointsTo[R][S])
          F.Slots[S].Escapes = true;
    };
    for (const Block &B : F.Blocks) {
      for (const Instr &I : B.Instrs) {
        switch (I.Op) {
        case Opcode::Store:
          escape(I.B); // The *value* operand; storing through I.A is
                       // a dereference, not an escape.
          break;
        case Opcode::Call:
        case Opcode::CallBuiltin:
          for (Reg Arg : I.Args)
            escape(Arg);
          break;
        case Opcode::Ret:
          escape(I.A);
          break;
        default:
          break;
        }
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Used-pointer analysis
  //===--------------------------------------------------------------------===//

  /// A pointer register needs bounds if it is dereferenced or escapes
  /// (stored to memory, passed to a function), directly or through a
  /// derived pointer. A cast-and-returned pointer attracts nothing —
  /// "it is the responsibility of the eventual user of the pointer to
  /// check the type" (Section 4).
  void computeNeeded() {
    Needed.assign(F.numRegs(), !Opts.OnlyUsedPointers);
    if (!Opts.OnlyUsedPointers) {
      for (Reg R = 0; R < F.numRegs(); ++R)
        Needed[R] = isPointerReg(R);
      return;
    }
    auto mark = [&](Reg R) {
      if (R != NoReg && isPointerReg(R))
        Needed[R] = true;
    };
    for (const Block &B : F.Blocks) {
      for (const Instr &I : B.Instrs) {
        switch (I.Op) {
        case Opcode::Load:
          mark(I.A);
          break;
        case Opcode::Store:
          mark(I.A);
          mark(I.B); // Escape: a pointer value written to memory.
          break;
        case Opcode::Call:
        case Opcode::CallBuiltin:
          for (Reg Arg : I.Args)
            mark(Arg); // Escape: passed as a parameter.
          break;
        case Opcode::Free:
          mark(I.A);
          break;
        default:
          break;
        }
      }
    }
    // Propagate from derived pointers back to their bases until fixed
    // point (bounds of the base are required to derive the bounds of
    // the result).
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const Block &B : F.Blocks) {
        for (const Instr &I : B.Instrs) {
          Reg Base = NoReg;
          switch (I.Op) {
          case Opcode::IndexAddr:
          case Opcode::FieldAddr:
          case Opcode::Copy:
          case Opcode::PtrCast:
            Base = I.A;
            break;
          default:
            continue;
          }
          if (I.Dst != NoReg && I.Dst < Needed.size() && Needed[I.Dst] &&
              Base != NoReg && isPointerReg(Base) && !Needed[Base]) {
            Needed[Base] = true;
            Changed = true;
          }
        }
      }
    }
    for (Reg R = 0; R < F.numRegs(); ++R)
      if (isPointerReg(R) && !Needed[R])
        ++Stats.UnusedPointers;
  }

  void allocateBoundsRegs() {
    BoundsOf.assign(F.numRegs(), NoBReg);
    if (!Schema.StoresBounds)
      return; // Cast checks discard their BOUNDS result.
    for (Reg R = 0; R < F.numRegs(); ++R)
      if (Needed[R])
        BoundsOf[R] = F.newBReg();
  }

  BReg boundsFor(Reg R) const {
    return R < BoundsOf.size() ? BoundsOf[R] : NoBReg;
  }

  //===--------------------------------------------------------------------===//
  // Instrumentation proper
  //===--------------------------------------------------------------------===//

  /// The input-pointer check of rules (a)-(d): type_check under Full,
  /// bounds_get under Bounds. Appends to \p Out, defining \p Dst's
  /// bounds register.
  void emitInputCheck(std::vector<Instr> &Out, Reg Ptr,
                      const TypeInfo *Pointee, SourceLoc Loc, BReg Into) {
    Instr C;
    C.A = Ptr;
    C.BDst = Into;
    C.Loc = Loc;
    if (Schema.CheckCasts) {
      C.Op = Opcode::TypeCheck;
      C.Type = Pointee;
      C.Site = M.newCheckSite(CheckSiteKind::TypeCheck, Loc, Pointee,
                              F.name());
      ++Stats.TypeChecks;
    } else {
      C.Op = Opcode::BoundsGet;
      C.Site = M.newCheckSite(CheckSiteKind::BoundsGet, Loc, Pointee,
                              F.name());
      ++Stats.BoundsGets;
    }
    Out.push_back(std::move(C));
  }

  void emitBoundsCheck(std::vector<Instr> &Out, Reg Ptr, uint64_t Size,
                       SourceLoc Loc) {
    BReg B = boundsFor(Ptr);
    if (B == NoBReg)
      return; // Untracked pointer (shouldn't happen for needed regs).
    Instr C;
    C.Op = Opcode::BoundsCheck;
    C.A = Ptr;
    C.Imm = Size;
    C.BSrc = B;
    C.Loc = Loc;
    C.Site = M.newCheckSite(CheckSiteKind::BoundsCheck, Loc,
                            F.regType(Ptr), F.name());
    ++Stats.BoundsChecks;
    Out.push_back(std::move(C));
  }

  /// Copies bounds from \p Src's to \p Dst's bounds register by setting
  /// the producing instruction's BSrc/BDst (zero-runtime-cost rule (f)).
  void propagateBounds(Instr &I, Reg Dst, Reg Src) {
    BReg D = boundsFor(Dst);
    if (D == NoBReg)
      return;
    I.BDst = D;
    I.BSrc = boundsFor(Src); // NoBReg => interpreter uses wide bounds.
  }

  void instrumentBlock(BlockId BId) {
    Block &B = F.Blocks[BId];
    std::vector<Instr> Out;
    Out.reserve(B.Instrs.size() * 2);

    // Rule (a): parameters are inputs, checked once at function entry.
    if (BId == 0 && Schema.CheckInputs) {
      for (const Param &P : F.Params) {
        if (!isPointerReg(P.R) || !Needed[P.R])
          continue;
        // Attribute the entry check to the parameter's declaration loc
        // so the report reads "at file:line:col in func" like every
        // other check (the front end donates P.Loc).
        emitInputCheck(Out, P.R, pointeeOf(P.R), P.Loc, boundsFor(P.R));
      }
    }

    // Definitions seen in this block (for the never-fail elision).
    DefOp.clear();

    for (Instr &I : B.Instrs) {
      switch (I.Op) {
      case Opcode::Load:
        // Rule (g): check the access.
        if (Schema.CheckBounds)
          emitBoundsCheck(Out, I.A, I.Type->size(), I.Loc);
        Out.push_back(I);
        // Rule (c): a pointer read from memory is an input.
        if (Schema.CheckInputs && isPointerReg(I.Dst) && Needed[I.Dst])
          emitInputCheck(Out, I.Dst, pointeeOf(I.Dst), I.Loc,
                         boundsFor(I.Dst));
        break;

      case Opcode::Store:
        if (Schema.CheckBounds) {
          emitBoundsCheck(Out, I.A, I.Type->size(), I.Loc);
          // Rule (g): escape of a stored pointer value.
          if (isPointerReg(I.B))
            emitBoundsCheck(Out, I.B, 0, I.Loc);
        }
        Out.push_back(I);
        break;

      case Opcode::Call:
      case Opcode::CallBuiltin: {
        if (Schema.CheckBounds)
          for (Reg Arg : I.Args)
            if (isPointerReg(Arg))
              emitBoundsCheck(Out, Arg, 0, I.Loc); // Escape.
        Reg Dst = I.Dst;
        SourceLoc Loc = I.Loc;
        Out.push_back(I);
        // Rule (b): a pointer call return is an input.
        if (Schema.CheckInputs && Dst != NoReg && isPointerReg(Dst) &&
            Needed[Dst])
          emitInputCheck(Out, Dst, pointeeOf(Dst), Loc, boundsFor(Dst));
        break;
      }

      case Opcode::Malloc:
      case Opcode::SlotAddr:
      case Opcode::GlobalAddr:
      case Opcode::StringAddr:
        // Fresh objects: the allocation bounds are known without any
        // check (the never-fail rule folds rule (b) away here).
        if (Schema.CheckBounds)
          I.BDst = boundsFor(I.Dst);
        Out.push_back(I);
        break;

      case Opcode::IndexAddr:
        // Rule (f): pointer arithmetic propagates bounds unchanged.
        if (Schema.CheckBounds)
          propagateBounds(I, I.Dst, I.A);
        Out.push_back(I);
        break;

      case Opcode::FieldAddr: {
        Reg Dst = I.Dst, BaseReg = I.A;
        const auto *Rec = cast<RecordType>(I.Type);
        uint64_t FieldSize = Rec->fields()[I.Imm].Type->size();
        SourceLoc Loc = I.Loc;
        if (Schema.CheckBounds)
          propagateBounds(I, Dst, BaseReg);
        Out.push_back(I);
        // Rule (e): narrow to the selected member — Full only; the
        // -bounds variant enforces allocation bounds.
        if (Schema.NarrowFields && boundsFor(Dst) != NoBReg) {
          Instr N;
          N.Op = Opcode::BoundsNarrow;
          N.A = Dst;
          N.Imm = FieldSize;
          N.BSrc = boundsFor(BaseReg) != NoBReg ? boundsFor(BaseReg)
                                                : boundsFor(Dst);
          N.BDst = boundsFor(Dst);
          N.Loc = Loc;
          N.Site = M.newCheckSite(CheckSiteKind::BoundsNarrow, Loc,
                                  Rec->fields()[I.Imm].Type, F.name());
          ++Stats.BoundsNarrows;
          Out.push_back(std::move(N));
        }
        break;
      }

      case Opcode::Copy:
        if (Schema.CheckBounds && isPointerReg(I.Dst))
          propagateBounds(I, I.Dst, I.A);
        Out.push_back(I);
        break;

      case Opcode::PtrCast: {
        Reg Dst = I.Dst, Src = I.A;
        const TypeInfo *Target = I.Type;
        bool IsDecay = I.Imm == 1;
        SourceLoc Loc = I.Loc;
        bool SamePointee =
            isPointerReg(Src) && pointeeOf(Src) == Target;
        bool FreshMatchingMalloc = isFreshMatchingMalloc(Src, Target);
        // The paper's "e.g., C++ upcasts": a cast to the type of a
        // leading prefix of the source record cannot introduce a type
        // error the source did not already have.
        bool Upcast = isPrefixUpcast(pointeeOf(Src), Target);
        bool NeverFails =
            IsDecay ||
            (Opts.ElideNeverFailingChecks &&
             (SamePointee || FreshMatchingMalloc || Upcast));

        if (!Schema.StoresBounds) {
          // Rule (d) regardless of use (Section 6.2).
          Out.push_back(I);
          if (!NeverFails) {
            Instr C;
            C.Op = Opcode::TypeCheck;
            C.A = Dst;
            C.Type = Target;
            C.BDst = scratchBReg();
            C.Loc = Loc;
            C.Site = M.newCheckSite(CheckSiteKind::TypeCheck, Loc, Target,
                                    F.name());
            ++Stats.TypeChecks;
            Out.push_back(std::move(C));
          } else if (!IsDecay) {
            ++Stats.ElidedNeverFail;
          }
          break;
        }

        if (NeverFails && boundsFor(Src) != NoBReg) {
          propagateBounds(I, Dst, Src);
          Out.push_back(I);
          if (!IsDecay)
            ++Stats.ElidedNeverFail;
          break;
        }
        Out.push_back(I);
        if (boundsFor(Dst) != NoBReg)
          emitInputCheck(Out, Dst, Target, Loc, boundsFor(Dst));
        break;
      }

      default:
        Out.push_back(I);
        break;
      }

      // Track the defining opcode of each register (block-local) for
      // the never-fail malloc elision.
      if (I.Dst != NoReg)
        DefOp[I.Dst] = {I.Op, I.Type};
    }

    B.Instrs = std::move(Out);
  }

  bool isFreshMatchingMalloc(Reg Src, const TypeInfo *Target) const {
    auto It = DefOp.find(Src);
    if (It == DefOp.end())
      return false;
    return It->second.first == Opcode::Malloc &&
           It->second.second == Target;
  }

  /// True when \p Target is reachable from \p Source by descending
  /// through leading (offset-0) members — the embedded-base-class
  /// pattern, guaranteed to have a matching sub-object at offset 0.
  static bool isPrefixUpcast(const TypeInfo *Source,
                             const TypeInfo *Target) {
    while (Source && Source != Target) {
      const auto *Rec = dyn_cast<RecordType>(Source);
      if (!Rec || !Rec->isComplete() || Rec->fields().empty())
        return false;
      const FieldInfo &First = Rec->fields().front();
      if (First.Offset != 0)
        return false;
      Source = First.Type;
    }
    return Source == Target;
  }

  /// A throwaway bounds register for -type cast checks (result unused).
  BReg scratchBReg() {
    if (Scratch == NoBReg)
      Scratch = F.newBReg();
    return Scratch;
  }

  //===--------------------------------------------------------------------===//
  // Subsumed-check removal
  //===--------------------------------------------------------------------===//

  /// Within a block, a bounds_check of (P, B) with size S is subsumed
  /// by an earlier bounds_check of the same pair with size >= S,
  /// provided neither P nor B was redefined in between.
  void removeSubsumed(Block &B) {
    struct Key {
      Reg P;
      BReg Bounds;
      bool operator==(const Key &) const = default;
    };
    struct KeyHash {
      size_t operator()(const Key &K) const {
        return std::hash<uint64_t>()((uint64_t(K.P) << 32) | K.Bounds);
      }
    };
    std::unordered_map<Key, uint64_t, KeyHash> Checked;

    std::vector<Instr> Out;
    Out.reserve(B.Instrs.size());
    for (Instr &I : B.Instrs) {
      if (I.Op == Opcode::BoundsCheck) {
        Key K{I.A, I.BSrc};
        auto It = Checked.find(K);
        if (It != Checked.end() && I.Imm <= It->second) {
          ++Stats.ElidedSubsumed;
          --Stats.BoundsChecks;
          continue;
        }
        uint64_t &Size = Checked[K];
        if (I.Imm > Size)
          Size = I.Imm;
        Out.push_back(I);
        continue;
      }
      // Redefinitions invalidate.
      if (I.Dst != NoReg)
        std::erase_if(Checked,
                      [&](const auto &E) { return E.first.P == I.Dst; });
      if (I.BDst != NoBReg)
        std::erase_if(Checked, [&](const auto &E) {
          return E.first.Bounds == I.BDst;
        });
      // Calls can free memory, after which a stale check result would
      // mask a use-after-free turned bounds error; be conservative.
      if (I.Op == Opcode::Call || I.Op == Opcode::Free)
        Checked.clear();
      Out.push_back(I);
    }
    B.Instrs = std::move(Out);
  }

  Module &M;
  Function &F;
  const InstrumentOptions &Opts;
  /// Opts.V's schema switches.
  const VariantTraits &Schema;
  InstrumentStats &Stats;
  std::vector<bool> Needed;
  std::vector<BReg> BoundsOf;
  std::unordered_map<Reg, std::pair<Opcode, const TypeInfo *>> DefOp;
  BReg Scratch = NoBReg;
};

} // namespace

InstrumentStats instrument::instrumentModule(ir::Module &M,
                                             const InstrumentOptions &Opts) {
  InstrumentStats Stats;
  for (auto &F : M.Functions)
    FunctionInstrumenter(M, *F, Opts, Stats).run();
  // Subsumed-check removal may delete sited instructions, so the live
  // count can be below the allocated count; ids stay unique and below
  // Module::numCheckSites either way.
  Stats.CheckSites = M.numCheckSites();
  return Stats;
}

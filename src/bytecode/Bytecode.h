//===- bytecode/Bytecode.h - Dense linear bytecode format -------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode the VM executes: a dense, linear encoding of
/// instrumented IR with flat 16-bit register operands, resolved branch
/// offsets, inline immediates, and check-site ids baked into the check
/// opcodes. The compiler (bytecode/Compiler.cpp) additionally fuses the
/// hot check+access pairs the instrumentation pipeline emits —
/// type_check+bounds_check+load/store, bounds_get+bounds_check+... —
/// into superinstructions so a checked memory access costs one dispatch
/// instead of two or three.
///
/// Every instruction is a fixed 32 bytes: one cache line holds two, and
/// the VM's instruction pointer is a plain `const Inst *` increment.
/// Operand conventions are per-opcode (see the opcode list); the
/// uniform rule is A = destination or checked pointer, B/C = sources,
/// Imm/Aux = immediates (branch offsets, sites, sizes, constant bits).
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_BYTECODE_BYTECODE_H
#define EFFECTIVE_BYTECODE_BYTECODE_H

#include "ir/IR.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace effective {
namespace bytecode {

/// "No register" in a 16-bit operand field (return/bounds destinations
/// that are absent). Real register numbers are capped below this.
constexpr uint16_t NoR16 = 0xFFFF;

/// "No bounds register" in a 32-bit half of a packed Aux field.
constexpr uint32_t NoB32 = 0xFFFFFFFF;

/// Integer canonicalization kinds, the compile-time residue of
/// exec::normalizeInt: arithmetic opcodes carry one in their Imm low
/// byte instead of re-deriving it from the TypeInfo every execution.
enum class Norm : uint8_t { None, Bool, S8, U8, S16, U16, S32, U32 };

/// Bit 8 of an arithmetic opcode's Imm: operate unsigned (division,
/// remainder, right shift).
constexpr uint64_t ArithUnsigned = 0x100;

/// Trap reasons (Trap opcode Imm).
constexpr uint64_t TrapFellOffBlock = 0;
constexpr uint64_t TrapFloatBitwise = 1;

// The opcode list. X-macro so the enum, the VM's computed-goto label
// table, and the disassembler's mnemonic table can never drift apart.
//
// Operand conventions ("bnd" operands index the bounds register file):
//   ConstInt      A=dst, Imm=value bits (pre-normalized at compile time)
//   ConstFloat    A=dst, Aux=double bits
//   ConstNull     A=dst
//   StringAddr    A=dst, B=bnd dst|NoR16, Imm=string index
//   GlobalAddr    A=dst, B=bnd dst|NoR16, Imm=global index
//   SlotAddr      A=dst, B=bnd dst|NoR16, Imm=slot index
//   Copy          A=dst, B=src
//   CopyB         A=dst, B=src, Aux=(bnd dst<<32)|bnd src (NoB32=wide)
//   AddI..ShrI    A=dst, B, C; Imm = Norm | ArithUnsigned flag
//   AddF..DivF    A=dst, B, C (double arithmetic)
//   CmpS/CmpU/CmpF A=dst, B, C, Imm=ir::Pred
//   Convert       A=dst, B=src, Type=to, Aux=from TypeInfo bits
//   FieldAddr     A=dst, B=base, Imm=byte offset (resolved at compile)
//   FieldAddrB    ... + Aux=(bnd dst<<32)|bnd src
//   IndexAddr     A=dst, B=base, C=index, Imm=element size
//   IndexAddrB    ... + Aux=(bnd dst<<32)|bnd src
//   PtrDiff       A=dst, B, C, Imm=element size (1 substituted for 0)
//   Load          A=dst, B=ptr, Type
//   Store         A=ptr, B=src, Type
//   Malloc        A=dst, B=size reg, C=bnd dst|NoR16, Type=element
//   Free          A=ptr
//   Call          A=dst|NoR16, Imm=callee index, C=argc, Aux=arg-pool off
//   CallBuiltin   Imm=ir::BuiltinId, C=argc, Aux=arg-pool offset
//   Ret           A=src|NoR16
//   Br            Imm=target pc
//   CondBr        A=cond, Imm=true pc, Aux=false pc
//   TypeCheck     A=ptr, B=bnd dst, Type, Imm=site
//   BoundsGet     A=ptr, B=bnd dst, Imm=site
//   BoundsCheck   A=ptr, B=bnd src, Imm=site, Aux=access size
//   BoundsNarrow  A=field ptr, B=bnd dst, C=bnd src, Imm=field size
//   WideBounds    B=bnd dst
//   Trap          Imm=trap reason (deterministic fault)
//
// Superinstructions (the tentpole fusions; site pair packed as
// Imm = first site | second site << 32):
//   TypeCheckBounds    type_check + bounds_check.
//                      A=ptr, B=bnd dst, Type, Imm=sites, Aux=size
//   TypeCheckLoad      type_check [+ bounds_check] + load.
//                      A=ptr, B=bnd dst, C=dst, Type, Imm=sites,
//                      Aux=size (0 = no bounds_check component)
//   TypeCheckStore     ... + store; C=src
//   BoundsGetCheck     bounds_get + bounds_check (as TypeCheckBounds)
//   BoundsGetCheckLoad bounds_get [+ bounds_check] + load
//   BoundsGetCheckStore ... + store
//   BoundsCheckLoad    bounds_check + load. A=ptr, B=bnd src, C=dst,
//                      Type, Imm=site, Aux=size
//   BoundsCheckStore   ... + store; C=src
#define EFFSAN_BC_OPCODE_LIST(X)                                               \
  X(ConstInt)                                                                  \
  X(ConstFloat)                                                                \
  X(ConstNull)                                                                 \
  X(StringAddr)                                                                \
  X(GlobalAddr)                                                                \
  X(SlotAddr)                                                                  \
  X(Copy)                                                                      \
  X(CopyB)                                                                     \
  X(AddI)                                                                      \
  X(SubI)                                                                      \
  X(MulI)                                                                      \
  X(DivI)                                                                      \
  X(RemI)                                                                      \
  X(AndI)                                                                      \
  X(OrI)                                                                       \
  X(XorI)                                                                      \
  X(ShlI)                                                                      \
  X(ShrI)                                                                      \
  X(AddF)                                                                      \
  X(SubF)                                                                      \
  X(MulF)                                                                      \
  X(DivF)                                                                      \
  X(CmpS)                                                                      \
  X(CmpU)                                                                      \
  X(CmpF)                                                                      \
  X(Convert)                                                                   \
  X(FieldAddr)                                                                 \
  X(FieldAddrB)                                                                \
  X(IndexAddr)                                                                 \
  X(IndexAddrB)                                                                \
  X(PtrDiff)                                                                   \
  X(Load)                                                                      \
  X(Store)                                                                     \
  X(Malloc)                                                                    \
  X(Free)                                                                      \
  X(Call)                                                                      \
  X(CallBuiltin)                                                               \
  X(Ret)                                                                       \
  X(Br)                                                                        \
  X(CondBr)                                                                    \
  X(TypeCheck)                                                                 \
  X(BoundsGet)                                                                 \
  X(BoundsCheck)                                                               \
  X(BoundsNarrow)                                                              \
  X(WideBounds)                                                                \
  X(Trap)                                                                      \
  X(TypeCheckBounds)                                                           \
  X(TypeCheckLoad)                                                             \
  X(TypeCheckStore)                                                            \
  X(BoundsGetCheck)                                                            \
  X(BoundsGetCheckLoad)                                                        \
  X(BoundsGetCheckStore)                                                       \
  X(BoundsCheckLoad)                                                           \
  X(BoundsCheckStore)

enum class BcOp : uint16_t {
#define EFFSAN_BC_DEF(Name) Name,
  EFFSAN_BC_OPCODE_LIST(EFFSAN_BC_DEF)
#undef EFFSAN_BC_DEF
};

constexpr size_t NumBcOps = 0
#define EFFSAN_BC_COUNT(Name) +1
    EFFSAN_BC_OPCODE_LIST(EFFSAN_BC_COUNT)
#undef EFFSAN_BC_COUNT
    ;

/// One bytecode instruction: fixed 32 bytes, two per cache line.
struct Inst {
  BcOp Op = BcOp::Trap;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  uint64_t Imm = 0;
  uint64_t Aux = 0;
  const TypeInfo *Type = nullptr;
};
static_assert(sizeof(Inst) == 32, "bytecode instructions are 32 bytes");

/// A stack slot the VM materializes through the typed low-fat stack
/// allocator at frame entry (mirror of ir::StackSlot minus the names).
struct SlotDesc {
  const TypeInfo *ElemType = nullptr;
  uint64_t Size = 0;
  /// Address-taken slot (instrumentation escape analysis): the VM
  /// allocates it with the use-after-return quarantine delay armed.
  bool Escapes = false;
};

/// One compiled function: linear code (branches are resolved pc
/// offsets; the last reachable instruction of every block path is a
/// terminator or Trap, so execution cannot run off the end).
struct BcFunction {
  std::string Name;
  uint32_t NumRegs = 0;
  uint32_t NumBRegs = 0;
  std::vector<uint16_t> ParamRegs;
  std::vector<SlotDesc> Slots;
  std::vector<Inst> Code;
};

/// A compiled module. Keeps a pointer to the source ir::Module — the
/// site table, globals, strings and type context live there, and the
/// module must outlive the program (the same lifetime rule the
/// tree-walker already imposes).
struct Program {
  const ir::Module *M = nullptr;
  std::vector<BcFunction> Funcs;
  /// Flattened Call/CallBuiltin argument registers; an instruction's
  /// Aux is its offset into this pool.
  std::vector<uint16_t> ArgPool;

  const BcFunction *find(std::string_view Name) const {
    for (const BcFunction &F : Funcs)
      if (F.Name == Name)
        return &F;
    return nullptr;
  }
};

/// The mnemonic for \p Op (the enumerator name, e.g. "TypeCheckLoad").
const char *opName(BcOp Op);

/// Resolves a mnemonic back to its opcode; false if unknown.
bool opFromName(std::string_view Name, BcOp &Out);

} // namespace bytecode
} // namespace effective

#endif // EFFECTIVE_BYTECODE_BYTECODE_H

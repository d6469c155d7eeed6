//===- baselines/ErrorSuite.cpp - Figure 1 error scenarios ----------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "baselines/ErrorSuite.h"

#include "core/Layout.h"
#include "support/Compiler.h"

using namespace effective;
using namespace effective::baselines;

const char *effective::baselines::errorClassName(ErrorClass Class) {
  switch (Class) {
  case ErrorClass::Types:
    return "Types";
  case ErrorClass::Bounds:
    return "Bounds";
  case ErrorClass::Temporal:
    return "UAF";
  case ErrorClass::Stack:
    return "Stack";
  case ErrorClass::Global:
    return "Global";
  case ErrorClass::Control:
    return "Control";
  }
  return "?";
}

const char *effective::baselines::capabilityMark(Capability C) {
  switch (C) {
  case Capability::None:
    return "-";
  case Capability::Partial:
    return "Partial";
  case Capability::Full:
    return "Yes";
  }
  return "?";
}

ScenarioTypes::ScenarioTypes(TypeContext &Ctx) : Ctx(Ctx) {
  Account = RecordBuilder(Ctx, TypeKind::Struct, "account")
                .addField("number", Ctx.getArray(Ctx.getInt(), 8))
                .addField("balance", Ctx.getFloat())
                .finish();

  const TypeInfo *VPtr = Ctx.getPointer(Ctx.getGenericFunction());
  Grammar = RecordBuilder(Ctx, TypeKind::Struct, "Grammar")
                .addField("__vptr", VPtr)
                .addField("gtype", Ctx.getInt())
                .finish();
  SchemaGrammar = RecordBuilder(Ctx, TypeKind::Struct, "SchemaGrammar")
                      .addField("Grammar", Grammar, /*IsBase=*/true)
                      .addField("schemaInfo", Ctx.getPointer(Ctx.getInt()))
                      .finish();
  DTDGrammar = RecordBuilder(Ctx, TypeKind::Struct, "DTDGrammar")
                   .addField("Grammar", Grammar, /*IsBase=*/true)
                   .addField("dtdEntities", Ctx.getDouble())
                   .finish();

  Container = RecordBuilder(Ctx, TypeKind::Struct, "container")
                  .addField("payload", Ctx.getInt())
                  .addField("extra", Ctx.getLong())
                  .finish();

  BasePrefix = RecordBuilder(Ctx, TypeKind::Struct, "BasePrefix")
                   .addField("x", Ctx.getInt())
                   .addField("y", Ctx.getFloat())
                   .finish();
  DerivedPrefix = RecordBuilder(Ctx, TypeKind::Struct, "DerivedPrefix")
                      .addField("x", Ctx.getInt())
                      .addField("y", Ctx.getFloat())
                      .addField("z", Ctx.getChar())
                      .finish();
}

namespace {

AccessInfo makeAccess(const Allocation &A, uint64_t Offset, size_t Size,
                      const TypeInfo *StaticType) {
  AccessInfo Info;
  Info.Ptr = static_cast<const char *>(A.Ptr) + Offset;
  Info.Size = Size;
  Info.StaticType = StaticType;
  Info.AllocPtr = A.Ptr;
  Info.Token = A.Token;
  return Info;
}

CastInfo makeCast(const Allocation &A, const TypeInfo *From,
                  const TypeInfo *To, CastKind Kind) {
  CastInfo Info;
  Info.Ptr = A.Ptr;
  Info.AllocPtr = A.Ptr;
  Info.Token = A.Token;
  Info.FromType = From;
  Info.ToType = To;
  Info.Kind = Kind;
  return Info;
}

uint64_t offsetofBalance(const ScenarioTypes &T) {
  return T.Account->fields()[1].Offset;
}

} // namespace

const std::vector<Scenario> &effective::baselines::errorSuite() {
  static const std::vector<Scenario> Suite = {
      //===---------------------------------------------------------===//
      // Types
      //===---------------------------------------------------------===//
      {"bad-downcast",
       "xalancbmk: static_cast of a DTDGrammar to SchemaGrammar",
       ErrorClass::Types,
       [](SanitizerModel &M, ScenarioTypes &T) {
         Allocation G = M.allocate(T.DTDGrammar->size(), T.DTDGrammar);
         M.cast(makeCast(G, T.Grammar, T.SchemaGrammar,
                         CastKind::StaticDowncast));
       }},

      {"implicit-cast-confusion",
       "pointer smuggled via memcpy and used with the wrong type",
       ErrorClass::Types,
       [](SanitizerModel &M, ScenarioTypes &T) {
         Allocation A = M.allocate(16 * sizeof(int), T.Ctx.getInt());
         // No cast event is visible anywhere; only the eventual use.
         AccessInfo Info =
             makeAccess(A, 0, sizeof(double), T.Ctx.getDouble());
         M.access(Info);
       }},

      {"c-cast-confusion",
       "gcc/sphinx3: struct cast to (int[]) for checksumming",
       ErrorClass::Types,
       [](SanitizerModel &M, ScenarioTypes &T) {
         Allocation A = M.allocate(T.Account->size(), T.Account);
         // (double *)account — a C-style cast to an incompatible
         // fundamental type.
         M.cast(makeCast(A, T.Account, T.Ctx.getDouble(), CastKind::CCast));
       }},

      {"container-cast",
       "casting a T to a container struct S { T t; ... }",
       ErrorClass::Types,
       [](SanitizerModel &M, ScenarioTypes &T) {
         Allocation A = M.allocate(sizeof(int), T.Ctx.getInt());
         M.cast(makeCast(A, T.Ctx.getInt(), T.Container, CastKind::CCast));
       }},

      {"prefix-struct-confusion",
       "perlbench/povray: ad hoc inheritance via shared struct prefixes",
       ErrorClass::Types,
       [](SanitizerModel &M, ScenarioTypes &T) {
         Allocation A = M.allocate(T.BasePrefix->size(), T.BasePrefix);
         M.cast(makeCast(A, T.BasePrefix, T.DerivedPrefix,
                         CastKind::CCast));
       }},

      //===---------------------------------------------------------===//
      // Bounds
      //===---------------------------------------------------------===//
      {"object-overflow",
       "int[96] overflow by one element (class-exact allocation)",
       ErrorClass::Bounds,
       [](SanitizerModel &M, ScenarioTypes &T) {
         // 96 ints = 384 bytes: exactly a low-fat size class, so every
         // allocation-bounds tool sees the overflow; BaggyBounds' 512-
         // byte power-of-two padding hides it.
         Allocation A = M.allocate(96 * sizeof(int), T.Ctx.getInt());
         M.access(makeAccess(A, 96 * sizeof(int), sizeof(int),
                             T.Ctx.getInt()));
       }},

      {"object-overflow-pow2",
       "int[128] overflow by one element (power-of-two allocation)",
       ErrorClass::Bounds,
       [](SanitizerModel &M, ScenarioTypes &T) {
         Allocation A = M.allocate(128 * sizeof(int), T.Ctx.getInt());
         M.access(makeAccess(A, 128 * sizeof(int), sizeof(int),
                             T.Ctx.getInt()));
       }},

      {"skip-redzone-overflow",
       "overflow landing inside another live object",
       ErrorClass::Bounds,
       [](SanitizerModel &M, ScenarioTypes &T) {
         Allocation A = M.allocate(96 * sizeof(int), T.Ctx.getInt());
         Allocation B = M.allocate(96 * sizeof(int), T.Ctx.getInt());
         // The access lands in B's valid interior but the pointer
         // provenance is A (an attacker-controlled index).
         AccessInfo Info = makeAccess(A, 0, sizeof(int), T.Ctx.getInt());
         Info.Ptr = static_cast<const char *>(B.Ptr) + 8;
         M.access(Info);
       }},

      {"subobject-overflow",
       "account.number[8] overflowing into account.balance (Section 1)",
       ErrorClass::Bounds,
       [](SanitizerModel &M, ScenarioTypes &T) {
         Allocation A = M.allocate(T.Account->size(), T.Account);
         AccessInfo Info =
             makeAccess(A, 8 * sizeof(int), sizeof(int), T.Ctx.getInt());
         // Field provenance: the pointer was formed from &a->number.
         Info.SubObjectPtr = A.Ptr;
         Info.SubObjectSize = 8 * sizeof(int);
         M.access(Info);
       }},

      //===---------------------------------------------------------===//
      // Temporal (UAF)
      //===---------------------------------------------------------===//
      {"use-after-free",
       "access through a dangling pointer (memory not yet reused)",
       ErrorClass::Temporal,
       [](SanitizerModel &M, ScenarioTypes &T) {
         Allocation A = M.allocate(64, T.Ctx.getInt());
         M.deallocate(A.Ptr);
         M.access(makeAccess(A, 0, sizeof(int), T.Ctx.getInt()));
       }},

      {"reuse-after-free-diff-type",
       "dangling access after the block is reallocated as another type",
       ErrorClass::Temporal,
       [](SanitizerModel &M, ScenarioTypes &T) {
         Allocation A = M.allocate(64, T.Ctx.getInt());
         M.deallocate(A.Ptr);
         // Churn same-size allocations until the address is reused with
         // a new type; freeing the churn blocks drains any bounded
         // quarantine, as sustained allocation pressure does in
         // practice.
         for (int I = 0; I < 8; ++I) {
           Allocation B = M.allocate(64, T.Ctx.getFloat());
           if (B.Ptr == A.Ptr)
             break;
           M.deallocate(B.Ptr);
         }
         M.access(makeAccess(A, 0, sizeof(int), T.Ctx.getInt()));
       }},

      {"reuse-after-free-same-type",
       "dangling access after reallocation with the same type",
       ErrorClass::Temporal,
       [](SanitizerModel &M, ScenarioTypes &T) {
         Allocation A = M.allocate(64, T.Ctx.getInt());
         M.deallocate(A.Ptr);
         for (int I = 0; I < 8; ++I) {
           Allocation B = M.allocate(64, T.Ctx.getInt());
           if (B.Ptr == A.Ptr)
             break;
           M.deallocate(B.Ptr);
         }
         M.access(makeAccess(A, 0, sizeof(int), T.Ctx.getInt()));
       }},

      {"double-free",
       "perlbench-style double free",
       ErrorClass::Temporal,
       [](SanitizerModel &M, ScenarioTypes &T) {
         Allocation A = M.allocate(64, T.Ctx.getInt());
         M.deallocate(A.Ptr);
         M.deallocate(A.Ptr);
       }},

      //===---------------------------------------------------------===//
      // Stack (typed stack objects)
      //===---------------------------------------------------------===//
      {"stack-use-after-return",
       "escaped frame-local used after the frame returned",
       ErrorClass::Stack,
       [](SanitizerModel &M, ScenarioTypes &T) {
         Allocation A = M.stackAllocate(16 * sizeof(int), T.Ctx.getInt());
         M.stackRetire(A.Ptr);
         M.access(makeAccess(A, 0, sizeof(int), T.Ctx.getInt()));
       }},

      {"stack-oob",
       "fixed-size stack buffer overflow by one element",
       ErrorClass::Stack,
       [](SanitizerModel &M, ScenarioTypes &T) {
         Allocation A = M.stackAllocate(16 * sizeof(int), T.Ctx.getInt());
         M.access(makeAccess(A, 16 * sizeof(int), sizeof(int),
                             T.Ctx.getInt()));
         M.stackRetire(A.Ptr);
       }},

      //===---------------------------------------------------------===//
      // Global (module-registered globals)
      //===---------------------------------------------------------===//
      {"global-oob",
       "global int[8] table overflow by one element",
       ErrorClass::Global,
       [](SanitizerModel &M, ScenarioTypes &T) {
         Allocation G =
             M.globalRegister(8 * sizeof(int), T.Ctx.getInt(), "table");
         M.access(makeAccess(G, 8 * sizeof(int), sizeof(int),
                             T.Ctx.getInt()));
       }},

      {"global-type-confusion",
       "global struct account cast to (double *)",
       ErrorClass::Global,
       [](SanitizerModel &M, ScenarioTypes &T) {
         Allocation G =
             M.globalRegister(T.Account->size(), T.Account, "acct");
         M.cast(makeCast(G, T.Account, T.Ctx.getDouble(),
                         CastKind::CCast));
       }},

      //===---------------------------------------------------------===//
      // Controls (no bug; flags here are false positives)
      //===---------------------------------------------------------===//
      {"control-valid-downcast",
       "static_cast of a SchemaGrammar to SchemaGrammar via its base",
       ErrorClass::Control,
       [](SanitizerModel &M, ScenarioTypes &T) {
         Allocation G = M.allocate(T.SchemaGrammar->size(),
                                   T.SchemaGrammar);
         M.cast(makeCast(G, T.Grammar, T.SchemaGrammar,
                         CastKind::StaticDowncast));
       }},

      {"control-valid-accesses",
       "in-bounds accesses over a correctly typed object",
       ErrorClass::Control,
       [](SanitizerModel &M, ScenarioTypes &T) {
         Allocation A = M.allocate(T.Account->size(), T.Account);
         for (uint64_t I = 0; I < 8; ++I) {
           AccessInfo Info = makeAccess(A, I * sizeof(int), sizeof(int),
                                        T.Ctx.getInt());
           Info.SubObjectPtr = A.Ptr;
           Info.SubObjectSize = 8 * sizeof(int);
           M.access(Info);
         }
         AccessInfo Bal = makeAccess(A, offsetofBalance(T), sizeof(float),
                                     T.Ctx.getFloat());
         Bal.SubObjectPtr =
             static_cast<const char *>(A.Ptr) + offsetofBalance(T);
         Bal.SubObjectSize = sizeof(float);
         M.access(Bal);
         M.deallocate(A.Ptr);
       }},

      {"control-interior-pointers",
       "interior pointer scans (Example 2 idioms)",
       ErrorClass::Control,
       [](SanitizerModel &M, ScenarioTypes &T) {
         Allocation A = M.allocate(10 * T.Account->size(), T.Account);
         for (uint64_t E = 0; E < 10; ++E) {
           // &a[E].number[0]: the access pointer enters checked code at
           // the element's number field (field provenance).
           AccessInfo Info = makeAccess(A, E * T.Account->size(),
                                        sizeof(int), T.Ctx.getInt());
           Info.SubObjectPtr = static_cast<const char *>(A.Ptr) +
                               E * T.Account->size();
           Info.SubObjectSize = 8 * sizeof(int);
           M.access(Info);
         }
         M.deallocate(A.Ptr);
       }},
  };
  return Suite;
}

//===----------------------------------------------------------------------===//
// Matrix evaluation
//===----------------------------------------------------------------------===//

static Capability capabilityOf(const ClassTally &Tally) {
  if (Tally.Total == 0 || Tally.Detected == 0)
    return Capability::None;
  if (Tally.Detected == Tally.Total)
    return Capability::Full;
  return Capability::Partial;
}

Capability MatrixRow::typesCapability() const { return capabilityOf(Types); }
Capability MatrixRow::boundsCapability() const {
  return capabilityOf(Bounds);
}
Capability MatrixRow::temporalCapability() const {
  return capabilityOf(Temporal);
}
Capability MatrixRow::stackCapability() const { return capabilityOf(Stack); }
Capability MatrixRow::globalCapability() const {
  return capabilityOf(Global);
}

MatrixRow
effective::baselines::evaluateModel(ModelKind Kind,
                                    std::vector<ScenarioOutcome> *Details) {
  MatrixRow Row;
  Row.Kind = Kind;
  for (const Scenario &S : errorSuite()) {
    // Fresh context and model per scenario: no cross-contamination.
    TypeContext Ctx;
    ScenarioTypes Types(Ctx);
    std::unique_ptr<SanitizerModel> Model = createModel(Kind, Ctx);
    S.Run(*Model, Types);
    bool Detected = Model->errorsDetected() > 0;
    if (Details)
      Details->push_back(ScenarioOutcome{&S, Detected});
    ClassTally *Tally = nullptr;
    switch (S.Class) {
    case ErrorClass::Types:
      Tally = &Row.Types;
      break;
    case ErrorClass::Bounds:
      Tally = &Row.Bounds;
      break;
    case ErrorClass::Temporal:
      Tally = &Row.Temporal;
      break;
    case ErrorClass::Stack:
      Tally = &Row.Stack;
      break;
    case ErrorClass::Global:
      Tally = &Row.Global;
      break;
    case ErrorClass::Control:
      if (Detected)
        ++Row.ControlFalsePositives;
      continue;
    }
    ++Tally->Total;
    if (Detected)
      ++Tally->Detected;
  }
  return Row;
}

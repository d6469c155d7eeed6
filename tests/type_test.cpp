//===- tests/type_test.cpp - Dynamic type system unit tests ---------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Reflect.h"
#include "core/TypeContext.h"

#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

using namespace effective;

//===----------------------------------------------------------------------===//
// Interning and primitive types
//===----------------------------------------------------------------------===//

TEST(TypeContextTest, PrimitiveSingletons) {
  TypeContext Ctx;
  EXPECT_EQ(Ctx.getInt(), Ctx.getInt());
  EXPECT_NE(Ctx.getInt(), Ctx.getUInt());
  EXPECT_EQ(Ctx.getInt()->size(), sizeof(int));
  EXPECT_EQ(Ctx.getDouble()->size(), sizeof(double));
  EXPECT_EQ(Ctx.getVoid()->size(), 0u);
  EXPECT_TRUE(Ctx.getFree()->isFree());
  EXPECT_TRUE(Ctx.getChar()->isCharLike());
  EXPECT_TRUE(Ctx.getUChar()->isCharLike());
  EXPECT_FALSE(Ctx.getInt()->isCharLike());
}

TEST(TypeContextTest, PointerInterning) {
  TypeContext Ctx;
  const PointerType *A = Ctx.getPointer(Ctx.getInt());
  const PointerType *B = Ctx.getPointer(Ctx.getInt());
  EXPECT_EQ(A, B);
  EXPECT_NE(A, Ctx.getPointer(Ctx.getFloat()));
  EXPECT_EQ(A->pointee(), Ctx.getInt());
  EXPECT_EQ(A->size(), sizeof(void *));
}

TEST(TypeContextTest, ArrayInterning) {
  TypeContext Ctx;
  const ArrayType *A = Ctx.getArray(Ctx.getInt(), 3);
  EXPECT_EQ(A, Ctx.getArray(Ctx.getInt(), 3));
  EXPECT_NE(A, Ctx.getArray(Ctx.getInt(), 4));
  EXPECT_EQ(A->size(), 3 * sizeof(int));
  EXPECT_EQ(A->count(), 3u);
  const ArrayType *Nested = Ctx.getArray(A, 2);
  EXPECT_EQ(Nested->size(), 24u);
  EXPECT_EQ(Nested->scalarElement(), Ctx.getInt());
}

TEST(TypeContextTest, FunctionInterning) {
  TypeContext Ctx;
  const TypeInfo *Params[] = {Ctx.getInt(), Ctx.getFloat()};
  const FunctionType *A = Ctx.getFunction(Ctx.getVoid(), Params);
  const FunctionType *B = Ctx.getFunction(Ctx.getVoid(), Params);
  EXPECT_EQ(A, B);
  const TypeInfo *Params2[] = {Ctx.getInt()};
  EXPECT_NE(A, Ctx.getFunction(Ctx.getVoid(), Params2));
  EXPECT_NE(A, Ctx.getGenericFunction());
  EXPECT_EQ(Ctx.getGenericFunction(), Ctx.getGenericFunction());
  EXPECT_TRUE(Ctx.getGenericFunction()->isGeneric());
}

TEST(TypeContextTest, DistinctContextsProduceDistinctTypes) {
  TypeContext A, B;
  EXPECT_NE(A.getInt(), B.getInt());
  EXPECT_EQ(&A.getInt()->context(), &A);
  EXPECT_EQ(&B.getInt()->context(), &B);
}

TEST(TypeContextTest, RecordsAreNominal) {
  TypeContext Ctx;
  // Two records with the same tag and layout are distinct dynamic types
  // unless the frontend reuses the TypeInfo — this is what lets the
  // runtime detect gcc's "incompatible definitions of the same tag".
  RecordType *A = Ctx.createRecord(TypeKind::Struct, "foo");
  RecordType *B = Ctx.createRecord(TypeKind::Struct, "foo");
  EXPECT_NE(A, B);
  EXPECT_EQ(A->name(), "foo");
}

//===----------------------------------------------------------------------===//
// RecordBuilder: C layout computation
//===----------------------------------------------------------------------===//

TEST(RecordBuilderTest, ComputesCLayout) {
  TypeContext Ctx;
  RecordType *R = RecordBuilder(Ctx, TypeKind::Struct, "mix")
                      .addField("c", Ctx.getChar())
                      .addField("i", Ctx.getInt())
                      .addField("d", Ctx.getDouble())
                      .addField("s", Ctx.getShort())
                      .finish();
  struct Mix {
    char C;
    int I;
    double D;
    short S;
  };
  ASSERT_EQ(R->fields().size(), 4u);
  EXPECT_EQ(R->fields()[0].Offset, offsetof(Mix, C));
  EXPECT_EQ(R->fields()[1].Offset, offsetof(Mix, I));
  EXPECT_EQ(R->fields()[2].Offset, offsetof(Mix, D));
  EXPECT_EQ(R->fields()[3].Offset, offsetof(Mix, S));
  EXPECT_EQ(R->size(), sizeof(Mix));
  EXPECT_EQ(R->align(), alignof(Mix));
}

TEST(RecordBuilderTest, UnionMembersOverlap) {
  TypeContext Ctx;
  RecordType *U = RecordBuilder(Ctx, TypeKind::Union, "u")
                      .addField("i", Ctx.getInt())
                      .addField("d", Ctx.getDouble())
                      .addField("a", Ctx.getArray(Ctx.getChar(), 3))
                      .finish();
  EXPECT_TRUE(U->isUnion());
  for (const FieldInfo &F : U->fields())
    EXPECT_EQ(F.Offset, 0u);
  EXPECT_EQ(U->size(), sizeof(double));
}

TEST(RecordBuilderTest, FlexibleArrayMember) {
  TypeContext Ctx;
  RecordType *R = RecordBuilder(Ctx, TypeKind::Struct, "fam")
                      .addField("len", Ctx.getInt())
                      .addFlexibleArray("data", Ctx.getDouble())
                      .finish();
  ASSERT_EQ(R->famElement(), Ctx.getDouble());
  // The FAM appears as a one-element array (the paper's convention).
  const FieldInfo &Fam = R->fields().back();
  const auto *FamArray = dyn_cast<ArrayType>(Fam.Type);
  ASSERT_NE(FamArray, nullptr);
  EXPECT_EQ(FamArray->count(), 1u);
  EXPECT_EQ(FamArray->element(), Ctx.getDouble());
}

TEST(RecordBuilderTest, PaperExample1Types) {
  // struct S {int a[3]; char *s;}; struct T {float f; struct S t;};
  TypeContext Ctx;
  RecordType *S = RecordBuilder(Ctx, TypeKind::Struct, "S")
                      .addField("a", Ctx.getArray(Ctx.getInt(), 3))
                      .addField("s", Ctx.getPointer(Ctx.getChar()))
                      .finish();
  RecordType *T = RecordBuilder(Ctx, TypeKind::Struct, "T")
                      .addField("f", Ctx.getFloat())
                      .addField("t", S)
                      .finish();
  struct CS {
    int A[3];
    char *Str;
  };
  struct CT {
    float F;
    CS T;
  };
  EXPECT_EQ(S->size(), sizeof(CS));
  EXPECT_EQ(T->size(), sizeof(CT));
  EXPECT_EQ(T->fields()[1].Offset, offsetof(CT, T));
}

//===----------------------------------------------------------------------===//
// Type rendering
//===----------------------------------------------------------------------===//

TEST(TypeStrTest, RendersSpellings) {
  TypeContext Ctx;
  EXPECT_EQ(Ctx.getInt()->str(), "int");
  EXPECT_EQ(Ctx.getPointer(Ctx.getChar())->str(), "char *");
  EXPECT_EQ(Ctx.getArray(Ctx.getInt(), 3)->str(), "int[3]");
  EXPECT_EQ(Ctx.getPointer(Ctx.getPointer(Ctx.getVoid()))->str(),
            "void * *");
  RecordType *R = Ctx.createRecord(TypeKind::Struct, "account");
  EXPECT_EQ(R->str(), "struct account");
  const TypeInfo *Params[] = {Ctx.getInt()};
  EXPECT_EQ(Ctx.getFunction(Ctx.getVoid(), Params)->str(), "void (int)");
}

//===----------------------------------------------------------------------===//
// Native reflection
//===----------------------------------------------------------------------===//

namespace reflect_test {

struct Account {
  int Number[8];
  float Balance;
};

struct Node {
  int Value;
  Node *Next;
};

union Scalar {
  int I;
  double D;
};

struct VBase {
  virtual ~VBase() = default;
  int BaseVal;
};

struct VDerived : VBase {
  float DerivedVal;
};

} // namespace reflect_test

EFFECTIVE_REFLECT(reflect_test::Account, Number, Balance);
EFFECTIVE_REFLECT(reflect_test::Node, Value, Next);
EFFECTIVE_REFLECT_UNION(reflect_test::Scalar, I, D);
EFFECTIVE_REFLECT_POLY(reflect_test::VBase, BaseVal);
EFFECTIVE_REFLECT_DERIVED(reflect_test::VDerived, reflect_test::VBase,
                          DerivedVal);

TEST(ReflectTest, Primitives) {
  TypeContext Ctx;
  EXPECT_EQ(TypeOf<int>::get(Ctx), Ctx.getInt());
  EXPECT_EQ(TypeOf<const int>::get(Ctx), Ctx.getInt());
  EXPECT_EQ(TypeOf<int *>::get(Ctx), Ctx.getPointer(Ctx.getInt()));
  EXPECT_EQ((TypeOf<int[3]>::get(Ctx)), Ctx.getArray(Ctx.getInt(), 3));
  EXPECT_EQ(TypeOf<void>::get(Ctx), Ctx.getVoid());
  EXPECT_EQ(TypeOf<void (*)(int)>::get(Ctx),
            Ctx.getPointer(Ctx.getGenericFunction()));
}

TEST(ReflectTest, StructReflection) {
  TypeContext Ctx;
  const auto *T =
      cast<RecordType>(TypeOf<reflect_test::Account>::get(Ctx));
  EXPECT_EQ(TypeOf<reflect_test::Account>::get(Ctx), T) << "memoized";
  EXPECT_EQ(T->size(), sizeof(reflect_test::Account));
  ASSERT_EQ(T->fields().size(), 2u);
  EXPECT_EQ(T->fields()[0].Name, "Number");
  EXPECT_EQ(T->fields()[0].Type, Ctx.getArray(Ctx.getInt(), 8));
  EXPECT_EQ(T->fields()[1].Offset,
            offsetof(reflect_test::Account, Balance));
}

TEST(ReflectTest, RecursiveStruct) {
  TypeContext Ctx;
  const auto *T = cast<RecordType>(TypeOf<reflect_test::Node>::get(Ctx));
  ASSERT_EQ(T->fields().size(), 2u);
  // Node.Next is Node* — the pointee must be the same interned record.
  const auto *NextType = cast<PointerType>(T->fields()[1].Type);
  EXPECT_EQ(NextType->pointee(), T);
}

TEST(ReflectTest, UnionReflection) {
  TypeContext Ctx;
  const auto *T = cast<RecordType>(TypeOf<reflect_test::Scalar>::get(Ctx));
  EXPECT_TRUE(T->isUnion());
  EXPECT_EQ(T->size(), sizeof(reflect_test::Scalar));
  for (const FieldInfo &F : T->fields())
    EXPECT_EQ(F.Offset, 0u);
}

TEST(ReflectTest, PolymorphicClassHasVPtr) {
  TypeContext Ctx;
  const auto *T = cast<RecordType>(TypeOf<reflect_test::VBase>::get(Ctx));
  ASSERT_GE(T->fields().size(), 2u);
  EXPECT_EQ(T->fields()[0].Name, "__vptr");
  EXPECT_EQ(T->fields()[0].Offset, 0u);
  EXPECT_EQ(T->fields()[0].Type,
            Ctx.getPointer(Ctx.getGenericFunction()));
  EXPECT_EQ(T->size(), sizeof(reflect_test::VBase));
}

TEST(ReflectTest, DerivedClassEmbedsBase) {
  TypeContext Ctx;
  const auto *D =
      cast<RecordType>(TypeOf<reflect_test::VDerived>::get(Ctx));
  const auto *B = cast<RecordType>(TypeOf<reflect_test::VBase>::get(Ctx));
  ASSERT_GE(D->fields().size(), 2u);
  EXPECT_EQ(D->fields()[0].Type, B);
  EXPECT_TRUE(D->fields()[0].IsBase);
  EXPECT_EQ(D->fields()[0].Offset, 0u);
  EXPECT_EQ(D->size(), sizeof(reflect_test::VDerived));
}

TEST(StaticTypeOfTest, MemoFollowsTheContext) {
  TypeContext A, B;
  EXPECT_NE(A.stamp(), B.stamp());
  const TypeInfo *InA = staticTypeOf<reflect_test::Account>(A);
  EXPECT_EQ(InA, TypeOf<reflect_test::Account>::get(A));
  const TypeInfo *InB = staticTypeOf<reflect_test::Account>(B);
  EXPECT_EQ(InB, TypeOf<reflect_test::Account>::get(B));
  EXPECT_NE(InA, InB);
  EXPECT_EQ(&InB->context(), &B);
  EXPECT_EQ(staticTypeOf<reflect_test::Account>(A), InA);
}

TEST(StaticTypeOfTest, ConcurrentFirstUseBuildsOneRecord) {
  constexpr unsigned NumThreads = 8;
  TypeContext Reference;
  size_t ReferenceBefore = Reference.numTypes();
  TypeOf<reflect_test::VDerived *>::get(Reference);
  size_t Created = Reference.numTypes() - ReferenceBefore;

  TypeContext Ctx;
  size_t Before = Ctx.numTypes();
  std::vector<const TypeInfo *> Derived(NumThreads), Pointers(NumThreads);
  std::latch Start(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < NumThreads; ++I)
    Threads.emplace_back([&, I] {
      Start.arrive_and_wait();
      Derived[I] = staticTypeOf<reflect_test::VDerived>(Ctx);
      Pointers[I] = staticTypeOf<reflect_test::VDerived *>(Ctx);
    });
  for (std::thread &T : Threads)
    T.join();

  for (unsigned I = 0; I < NumThreads; ++I) {
    ASSERT_TRUE(cast<RecordType>(Derived[I])->isComplete());
    EXPECT_EQ(Derived[I], Derived[0]);
    EXPECT_EQ(Pointers[I], Pointers[0]);
  }
  EXPECT_EQ(Pointers[0], Ctx.getPointer(Derived[0]));
  EXPECT_EQ(Ctx.numTypes() - Before, Created);
}

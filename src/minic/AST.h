//===- minic/AST.h - MiniC abstract syntax tree -----------------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniC AST. Nodes are arena-allocated and owned by an ASTContext;
/// kind discriminators support the LLVM-style isa/cast/dyn_cast
/// machinery. Types are resolved at parse time (MiniC type syntax is
/// unambiguous), so every node that names a type carries an interned
/// TypeInfo from the shared TypeContext; Sema later assigns a TypeInfo
/// to every expression.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_MINIC_AST_H
#define EFFECTIVE_MINIC_AST_H

#include "core/TypeContext.h"
#include "support/Arena.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace effective {
namespace minic {

class VarDecl;
class FunctionDecl;

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class ExprKind : uint8_t {
  IntLiteral,
  FloatLiteral,
  StringLiteral,
  Null,
  VarRef,
  Unary,
  Binary,
  Assign,
  Index,
  Member,
  Call,
  Cast,
  SizeofType,
  Malloc,
  Free,
};

/// Base of all expressions. Type and IsLValue are set by Sema.
class Expr {
public:
  ExprKind kind() const { return Kind; }
  SourceLoc loc() const { return Loc; }

  const TypeInfo *type() const { return Type; }
  void setType(const TypeInfo *T) { Type = T; }
  bool isLValue() const { return LValue; }
  void setLValue(bool V) { LValue = V; }

protected:
  Expr(ExprKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}

private:
  ExprKind Kind;
  bool LValue = false;
  SourceLoc Loc;
  const TypeInfo *Type = nullptr;
};

class IntLiteralExpr : public Expr {
public:
  IntLiteralExpr(uint64_t Value, SourceLoc Loc)
      : Expr(ExprKind::IntLiteral, Loc), Value(Value) {}
  uint64_t value() const { return Value; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::IntLiteral;
  }

private:
  uint64_t Value;
};

class FloatLiteralExpr : public Expr {
public:
  FloatLiteralExpr(double Value, SourceLoc Loc)
      : Expr(ExprKind::FloatLiteral, Loc), Value(Value) {}
  double value() const { return Value; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::FloatLiteral;
  }

private:
  double Value;
};

class StringLiteralExpr : public Expr {
public:
  StringLiteralExpr(std::string_view Bytes, SourceLoc Loc)
      : Expr(ExprKind::StringLiteral, Loc), Bytes(Bytes) {}
  /// Decoded bytes, without the terminating NUL.
  std::string_view bytes() const { return Bytes; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::StringLiteral;
  }

private:
  std::string_view Bytes;
};

class NullExpr : public Expr {
public:
  explicit NullExpr(SourceLoc Loc) : Expr(ExprKind::Null, Loc) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Null; }
};

class VarRefExpr : public Expr {
public:
  VarRefExpr(std::string_view Name, SourceLoc Loc)
      : Expr(ExprKind::VarRef, Loc), Name(Name) {}
  std::string_view name() const { return Name; }
  VarDecl *decl() const { return Decl; }
  void setDecl(VarDecl *D) { Decl = D; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::VarRef;
  }

private:
  std::string_view Name;
  VarDecl *Decl = nullptr;
};

enum class UnaryOp : uint8_t {
  Neg,
  LogicalNot,
  BitNot,
  AddrOf,
  Deref,
  PreInc,
  PreDec,
};

class UnaryExpr : public Expr {
public:
  UnaryExpr(UnaryOp Op, Expr *Sub, SourceLoc Loc)
      : Expr(ExprKind::Unary, Loc), Op(Op), Sub(Sub) {}
  UnaryOp op() const { return Op; }
  Expr *sub() const { return Sub; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::Unary;
  }

private:
  UnaryOp Op;
  Expr *Sub;
};

enum class BinaryOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  BitAnd,
  BitOr,
  BitXor,
  Shl,
  Shr,
  LogicalAnd,
  LogicalOr,
  Lt,
  Gt,
  Le,
  Ge,
  Eq,
  Ne,
};

class BinaryExpr : public Expr {
public:
  BinaryExpr(BinaryOp Op, Expr *LHS, Expr *RHS, SourceLoc Loc)
      : Expr(ExprKind::Binary, Loc), Op(Op), LHS(LHS), RHS(RHS) {}
  BinaryOp op() const { return Op; }
  Expr *lhs() const { return LHS; }
  Expr *rhs() const { return RHS; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::Binary;
  }

private:
  BinaryOp Op;
  Expr *LHS;
  Expr *RHS;
};

/// Simple or compound assignment (= / += / -=).
class AssignExpr : public Expr {
public:
  enum class OpKind : uint8_t { Plain, Add, Sub };

  AssignExpr(OpKind Op, Expr *Target, Expr *Value, SourceLoc Loc)
      : Expr(ExprKind::Assign, Loc), Op(Op), Target(Target), Value(Value) {}
  OpKind op() const { return Op; }
  Expr *target() const { return Target; }
  Expr *value() const { return Value; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::Assign;
  }

private:
  OpKind Op;
  Expr *Target;
  Expr *Value;
};

class IndexExpr : public Expr {
public:
  IndexExpr(Expr *Base, Expr *Index, SourceLoc Loc)
      : Expr(ExprKind::Index, Loc), Base(Base), Index(Index) {}
  Expr *base() const { return Base; }
  Expr *index() const { return Index; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::Index;
  }

private:
  Expr *Base;
  Expr *Index;
};

class MemberExpr : public Expr {
public:
  MemberExpr(Expr *Base, std::string_view Member, bool IsArrow,
             SourceLoc Loc)
      : Expr(ExprKind::Member, Loc), Base(Base), Member(Member),
        Arrow(IsArrow) {}
  Expr *base() const { return Base; }
  std::string_view member() const { return Member; }
  bool isArrow() const { return Arrow; }
  const FieldInfo *field() const { return Field; }
  void setField(const FieldInfo *F) { Field = F; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::Member;
  }

private:
  Expr *Base;
  std::string_view Member;
  bool Arrow;
  const FieldInfo *Field = nullptr;
};

class CallExpr : public Expr {
public:
  CallExpr(std::string_view Callee, std::span<Expr *const> Args,
           SourceLoc Loc)
      : Expr(ExprKind::Call, Loc), Callee(Callee), Args(Args) {}
  std::string_view callee() const { return Callee; }
  std::span<Expr *const> args() const { return Args; }
  FunctionDecl *decl() const { return Decl; }
  void setDecl(FunctionDecl *D) { Decl = D; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Call; }

private:
  std::string_view Callee;
  std::span<Expr *const> Args;
  FunctionDecl *Decl = nullptr;
};

class CastExpr : public Expr {
public:
  CastExpr(const TypeInfo *Target, Expr *Sub, SourceLoc Loc)
      : Expr(ExprKind::Cast, Loc), Target(Target), Sub(Sub) {}
  const TypeInfo *target() const { return Target; }
  Expr *sub() const { return Sub; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Cast; }

private:
  const TypeInfo *Target;
  Expr *Sub;
};

class SizeofExpr : public Expr {
public:
  SizeofExpr(const TypeInfo *Target, SourceLoc Loc)
      : Expr(ExprKind::SizeofType, Loc), Target(Target) {}
  const TypeInfo *target() const { return Target; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::SizeofType;
  }

private:
  const TypeInfo *Target;
};

/// malloc(size). The allocation's dynamic type is inferred by Sema
/// (the paper's "simple program analysis", Example 1).
class MallocExpr : public Expr {
public:
  MallocExpr(Expr *Size, SourceLoc Loc)
      : Expr(ExprKind::Malloc, Loc), Size(Size) {}
  Expr *size() const { return Size; }
  const TypeInfo *allocType() const { return AllocType; }
  void setAllocType(const TypeInfo *T) { AllocType = T; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::Malloc;
  }

private:
  Expr *Size;
  /// Inferred element type of the allocation (null = untyped).
  const TypeInfo *AllocType = nullptr;
};

class FreeExpr : public Expr {
public:
  FreeExpr(Expr *Ptr, SourceLoc Loc) : Expr(ExprKind::Free, Loc), Ptr(Ptr) {}
  Expr *ptr() const { return Ptr; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Free; }

private:
  Expr *Ptr;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind : uint8_t {
  Expr,
  Decl,
  Compound,
  If,
  While,
  For,
  Return,
  Break,
  Continue,
};

class Stmt {
public:
  StmtKind kind() const { return Kind; }
  SourceLoc loc() const { return Loc; }

protected:
  Stmt(StmtKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}

private:
  StmtKind Kind;
  SourceLoc Loc;
};

class ExprStmt : public Stmt {
public:
  ExprStmt(Expr *E, SourceLoc Loc) : Stmt(StmtKind::Expr, Loc), E(E) {}
  Expr *expr() const { return E; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Expr; }

private:
  Expr *E;
};

class DeclStmt : public Stmt {
public:
  DeclStmt(VarDecl *D, SourceLoc Loc) : Stmt(StmtKind::Decl, Loc), D(D) {}
  VarDecl *decl() const { return D; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Decl; }

private:
  VarDecl *D;
};

class CompoundStmt : public Stmt {
public:
  CompoundStmt(std::span<Stmt *const> Body, SourceLoc Loc)
      : Stmt(StmtKind::Compound, Loc), Body(Body) {}
  std::span<Stmt *const> body() const { return Body; }
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::Compound;
  }

private:
  std::span<Stmt *const> Body;
};

class IfStmt : public Stmt {
public:
  IfStmt(Expr *Cond, Stmt *Then, Stmt *Else, SourceLoc Loc)
      : Stmt(StmtKind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}
  Expr *cond() const { return Cond; }
  Stmt *thenStmt() const { return Then; }
  Stmt *elseStmt() const { return Else; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::If; }

private:
  Expr *Cond;
  Stmt *Then;
  Stmt *Else;
};

class WhileStmt : public Stmt {
public:
  WhileStmt(Expr *Cond, Stmt *Body, SourceLoc Loc)
      : Stmt(StmtKind::While, Loc), Cond(Cond), Body(Body) {}
  Expr *cond() const { return Cond; }
  Stmt *body() const { return Body; }
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::While;
  }

private:
  Expr *Cond;
  Stmt *Body;
};

class ForStmt : public Stmt {
public:
  ForStmt(Stmt *Init, Expr *Cond, Expr *Step, Stmt *Body, SourceLoc Loc)
      : Stmt(StmtKind::For, Loc), Init(Init), Cond(Cond), Step(Step),
        Body(Body) {}
  Stmt *init() const { return Init; }
  Expr *cond() const { return Cond; }
  Expr *step() const { return Step; }
  Stmt *body() const { return Body; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::For; }

private:
  Stmt *Init;
  Expr *Cond;
  Expr *Step;
  Stmt *Body;
};

class ReturnStmt : public Stmt {
public:
  ReturnStmt(Expr *Value, SourceLoc Loc)
      : Stmt(StmtKind::Return, Loc), Value(Value) {}
  Expr *value() const { return Value; }
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::Return;
  }

private:
  Expr *Value;
};

class BreakStmt : public Stmt {
public:
  explicit BreakStmt(SourceLoc Loc) : Stmt(StmtKind::Break, Loc) {}
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::Break;
  }
};

class ContinueStmt : public Stmt {
public:
  explicit ContinueStmt(SourceLoc Loc) : Stmt(StmtKind::Continue, Loc) {}
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::Continue;
  }
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

/// A variable (global, local or parameter).
class VarDecl {
public:
  VarDecl(std::string_view Name, const TypeInfo *Type, Expr *Init,
          SourceLoc Loc)
      : Name(Name), Type(Type), Init(Init), Loc(Loc) {}

  std::string_view name() const { return Name; }
  const TypeInfo *type() const { return Type; }
  Expr *init() const { return Init; }
  SourceLoc loc() const { return Loc; }

private:
  std::string_view Name;
  const TypeInfo *Type;
  Expr *Init;
  SourceLoc Loc;
};

/// A function definition or declaration.
class FunctionDecl {
public:
  FunctionDecl(std::string_view Name, const TypeInfo *ReturnType,
               std::span<VarDecl *const> Params, SourceLoc Loc)
      : Name(Name), ReturnType(ReturnType), Params(Params), Loc(Loc) {}

  std::string_view name() const { return Name; }
  const TypeInfo *returnType() const { return ReturnType; }
  std::span<VarDecl *const> params() const { return Params; }
  CompoundStmt *body() const { return Body; }
  void setBody(CompoundStmt *B) { Body = B; }
  SourceLoc loc() const { return Loc; }

private:
  std::string_view Name;
  const TypeInfo *ReturnType;
  std::span<VarDecl *const> Params;
  CompoundStmt *Body = nullptr;
  SourceLoc Loc;
};

//===----------------------------------------------------------------------===//
// ASTContext and TranslationUnit
//===----------------------------------------------------------------------===//

/// Owns all AST nodes (arena) and the struct-tag table of one
/// translation unit. Types themselves live in the shared TypeContext.
class ASTContext {
public:
  explicit ASTContext(TypeContext &Types) : Types(Types) {}

  TypeContext &types() { return Types; }
  Arena &arena() { return A; }

  /// Creates an AST node in the arena.
  template <typename T, typename... Args> T *create(Args &&...As) {
    return A.create<T>(std::forward<Args>(As)...);
  }

  /// Copies a list of nodes into a stable arena span.
  template <typename T> std::span<T *const> makeSpan(std::vector<T *> &V) {
    if (V.empty())
      return {};
    T **Mem = static_cast<T **>(A.allocate(V.size() * sizeof(T *)));
    for (size_t I = 0; I < V.size(); ++I)
      Mem[I] = V[I];
    return std::span<T *const>(Mem, V.size());
  }

  std::string_view internString(std::string_view S) {
    return A.internString(S);
  }

  /// Struct/union tag lookup for this translation unit. Redeclaring a
  /// tag with a different layout creates a distinct type — exactly how
  /// the gcc "incompatible definitions" errors become detectable.
  RecordType *lookupTag(std::string_view Tag) const {
    auto It = Tags.find(std::string(Tag));
    return It == Tags.end() ? nullptr : It->second;
  }
  void registerTag(std::string_view Tag, RecordType *R) {
    Tags[std::string(Tag)] = R;
  }

private:
  TypeContext &Types;
  Arena A;
  std::unordered_map<std::string, RecordType *> Tags;
};

/// A parsed translation unit.
struct TranslationUnit {
  std::vector<FunctionDecl *> Functions;
  std::vector<VarDecl *> Globals;

  FunctionDecl *findFunction(std::string_view Name) const {
    for (FunctionDecl *F : Functions)
      if (F->name() == Name)
        return F;
    return nullptr;
  }
};

} // namespace minic
} // namespace effective

#endif // EFFECTIVE_MINIC_AST_H

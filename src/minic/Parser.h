//===- minic/Parser.h - MiniC recursive-descent parser ----------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for MiniC. Types are resolved during
/// parsing (MiniC type syntax always begins with a type keyword or
/// struct/union tag, so cast disambiguation is trivial). The grammar,
/// roughly:
///
///   unit      := (recorddef | funcdef | globalvar)*
///   recorddef := ('struct'|'union') tag '{' (type declarator ';')* '}' ';'
///   type      := base ('*')*          base := int/char/.../struct tag
///   funcdef   := type name '(' params ')' (block | ';')
///   stmt      := block | if | while | for | return | break | continue
///              | type declarator ('=' expr)? ';' | expr ';'
///   expr      := assignment with the usual C precedence levels
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_MINIC_PARSER_H
#define EFFECTIVE_MINIC_PARSER_H

#include "minic/AST.h"
#include "minic/Lexer.h"

namespace effective {
namespace minic {

/// Parses one MiniC source buffer into a TranslationUnit.
class Parser {
public:
  Parser(std::string_view Source, ASTContext &Ctx, DiagnosticEngine &Diags)
      : Lex(Source, Diags), Ctx(Ctx), Diags(Diags) {
    Tok = Lex.next();
  }

  /// Parses the whole unit; returns false if any syntax error occurred.
  bool parseUnit(TranslationUnit &Unit);

private:
  // Token helpers.
  void consume() { Tok = Lex.next(); }
  bool expect(TokenKind Kind, const char *What);
  bool tokenStartsType() const;

  // Types.
  const TypeInfo *parseTypeSpecifier();
  const TypeInfo *parseBaseType();
  const TypeInfo *applyArraySuffix(const TypeInfo *Base,
                                   std::vector<uint64_t> &Dims);

  // Declarations.
  FunctionDecl *parseFunction(const TypeInfo *ReturnType,
                              std::string_view Name, SourceLoc Loc,
                              TranslationUnit &Unit);
  VarDecl *parseVarDeclTail(const TypeInfo *Type, std::string_view Name,
                            SourceLoc Loc);

  // Statements.
  Stmt *parseStatement();
  CompoundStmt *parseBlock();

  // Expressions (precedence climbing).
  Expr *parseExpr();
  Expr *parseAssignment();
  Expr *parseBinary(int MinPrec);
  Expr *parseUnary();
  Expr *parsePostfix();
  Expr *parsePrimary();

  Lexer Lex;
  ASTContext &Ctx;
  DiagnosticEngine &Diags;
  Token Tok;
};

} // namespace minic
} // namespace effective

#endif // EFFECTIVE_MINIC_PARSER_H

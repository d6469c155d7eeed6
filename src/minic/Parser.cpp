//===- minic/Parser.cpp - MiniC recursive-descent parser ------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "minic/Parser.h"

#include "support/Compiler.h"

using namespace effective;
using namespace effective::minic;

bool Parser::expect(TokenKind Kind, const char *What) {
  if (Tok.is(Kind)) {
    consume();
    return true;
  }
  Diags.error(Tok.Loc, std::string("expected ") + What + " before '" +
                           std::string(Tok.Text) + "'");
  return false;
}

bool Parser::tokenStartsType() const {
  switch (Tok.Kind) {
  case TokenKind::KwInt:
  case TokenKind::KwChar:
  case TokenKind::KwFloat:
  case TokenKind::KwDouble:
  case TokenKind::KwLong:
  case TokenKind::KwShort:
  case TokenKind::KwVoid:
  case TokenKind::KwUnsigned:
  case TokenKind::KwSigned:
  case TokenKind::KwStruct:
  case TokenKind::KwUnion:
    return true;
  default:
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

const TypeInfo *Parser::parseBaseType() {
  TypeContext &Types = Ctx.types();
  switch (Tok.Kind) {
  case TokenKind::KwVoid:
    consume();
    return Types.getVoid();
  case TokenKind::KwChar:
    consume();
    return Types.getChar();
  case TokenKind::KwFloat:
    consume();
    return Types.getFloat();
  case TokenKind::KwDouble:
    consume();
    return Types.getDouble();
  case TokenKind::KwInt:
    consume();
    return Types.getInt();
  case TokenKind::KwShort:
    consume();
    if (Tok.is(TokenKind::KwInt))
      consume();
    return Types.getShort();
  case TokenKind::KwLong:
    consume();
    if (Tok.is(TokenKind::KwLong)) {
      consume();
      if (Tok.is(TokenKind::KwInt))
        consume();
      return Types.getLongLong();
    }
    if (Tok.is(TokenKind::KwInt))
      consume();
    if (Tok.is(TokenKind::KwDouble)) {
      consume();
      return Types.getLongDouble();
    }
    return Types.getLong();
  case TokenKind::KwSigned:
    consume();
    if (Tok.is(TokenKind::KwChar)) {
      consume();
      return Types.getSChar();
    }
    if (Tok.is(TokenKind::KwInt))
      consume();
    return Types.getInt();
  case TokenKind::KwUnsigned:
    consume();
    if (Tok.is(TokenKind::KwChar)) {
      consume();
      return Types.getUChar();
    }
    if (Tok.is(TokenKind::KwShort)) {
      consume();
      if (Tok.is(TokenKind::KwInt))
        consume();
      return Types.getUShort();
    }
    if (Tok.is(TokenKind::KwLong)) {
      consume();
      if (Tok.is(TokenKind::KwLong)) {
        consume();
        return Types.getULongLong();
      }
      if (Tok.is(TokenKind::KwInt))
        consume();
      return Types.getULong();
    }
    if (Tok.is(TokenKind::KwInt))
      consume();
    return Types.getUInt();
  case TokenKind::KwStruct:
  case TokenKind::KwUnion: {
    consume();
    if (!Tok.is(TokenKind::Identifier)) {
      Diags.error(Tok.Loc, "expected struct/union tag");
      return Types.getInt();
    }
    std::string_view Tag = Tok.Text;
    SourceLoc Loc = Tok.Loc;
    consume();
    RecordType *R = Ctx.lookupTag(Tag);
    if (!R) {
      Diags.error(Loc, "unknown struct/union tag '" + std::string(Tag) +
                           "'");
      return Types.getInt();
    }
    return R;
  }
  default:
    Diags.error(Tok.Loc, "expected type");
    return Types.getInt();
  }
}

const TypeInfo *Parser::parseTypeSpecifier() {
  const TypeInfo *T = parseBaseType();
  while (Tok.is(TokenKind::Star)) {
    consume();
    T = Ctx.types().getPointer(T);
  }
  return T;
}

const TypeInfo *Parser::applyArraySuffix(const TypeInfo *Base,
                                         std::vector<uint64_t> &Dims) {
  // int a[2][3] is an array of 2 arrays of 3 ints: fold inside out.
  const TypeInfo *T = Base;
  for (size_t I = Dims.size(); I > 0; --I)
    T = Ctx.types().getArray(T, Dims[I - 1]);
  return T;
}

//===----------------------------------------------------------------------===//
// Top level
//===----------------------------------------------------------------------===//

bool Parser::parseUnit(TranslationUnit &Unit) {
  while (!Tok.is(TokenKind::Eof)) {
    if (Tok.is(TokenKind::KwStruct) || Tok.is(TokenKind::KwUnion)) {
      // Could be a record definition or a declaration using one;
      // distinguish by looking for '{' after the tag. We cheat with a
      // tiny fixed lookahead: "struct tag {".
      // Save state by re-lexing is avoided: parseRecordDefinition is
      // chosen iff the tag is followed by '{'. We need two tokens of
      // lookahead, so parse the type speculatively.
      TokenKind Keyword = Tok.Kind;
      // Peek: consume 'struct' and the tag, then check.
      Token Saved = Tok;
      consume();
      if (Tok.is(TokenKind::Identifier)) {
        Token TagTok = Tok;
        consume();
        if (Tok.is(TokenKind::LBrace)) {
          // Rebuild a definition parse: register + parse body.
          std::string_view Tag = Ctx.internString(TagTok.Text);
          consume(); // '{'
          RecordBuilder Builder(Ctx.types(),
                                Keyword == TokenKind::KwStruct
                                    ? TypeKind::Struct
                                    : TypeKind::Union,
                                Tag);
          Ctx.registerTag(Tag, Builder.record());
          while (!Tok.is(TokenKind::RBrace) && !Tok.is(TokenKind::Eof)) {
            const TypeInfo *FieldType = parseTypeSpecifier();
            if (!Tok.is(TokenKind::Identifier)) {
              Diags.error(Tok.Loc, "expected field name");
              break;
            }
            std::string_view FieldName = Ctx.internString(Tok.Text);
            consume();
            std::vector<uint64_t> Dims;
            bool IsFam = false;
            while (Tok.is(TokenKind::LBracket)) {
              consume();
              if (Tok.is(TokenKind::RBracket)) {
                IsFam = true;
                consume();
                break;
              }
              if (!Tok.is(TokenKind::IntLiteral)) {
                Diags.error(Tok.Loc, "expected array bound");
                break;
              }
              Dims.push_back(Tok.IntValue);
              consume();
              expect(TokenKind::RBracket, "']'");
            }
            if (IsFam)
              Builder.addFlexibleArray(FieldName, FieldType);
            else
              Builder.addField(FieldName,
                               applyArraySuffix(FieldType, Dims));
            expect(TokenKind::Semicolon, "';'");
          }
          expect(TokenKind::RBrace, "'}'");
          expect(TokenKind::Semicolon, "';'");
          Builder.finish();
          continue;
        }
        // Not a definition: "struct tag" begins a declaration. Resolve
        // the record and continue as a type.
        RecordType *R = Ctx.lookupTag(TagTok.Text);
        if (!R) {
          Diags.error(TagTok.Loc, "unknown struct/union tag '" +
                                      std::string(TagTok.Text) + "'");
          return false;
        }
        const TypeInfo *T = R;
        while (Tok.is(TokenKind::Star)) {
          consume();
          T = Ctx.types().getPointer(T);
        }
        if (!Tok.is(TokenKind::Identifier)) {
          Diags.error(Tok.Loc, "expected declarator name");
          return false;
        }
        std::string_view Name = Ctx.internString(Tok.Text);
        SourceLoc Loc = Tok.Loc;
        consume();
        if (Tok.is(TokenKind::LParen)) {
          FunctionDecl *F = parseFunction(T, Name, Loc, Unit);
          if (!F)
            return false;
          continue;
        }
        VarDecl *G = parseVarDeclTail(T, Name, Loc);
        if (!G)
          return false;
        Unit.Globals.push_back(G);
        continue;
      }
      Diags.error(Saved.Loc, "expected struct/union tag");
      return false;
    }

    if (!tokenStartsType()) {
      Diags.error(Tok.Loc, "expected declaration");
      return false;
    }
    const TypeInfo *T = parseTypeSpecifier();
    if (!Tok.is(TokenKind::Identifier)) {
      Diags.error(Tok.Loc, "expected declarator name");
      return false;
    }
    std::string_view Name = Ctx.internString(Tok.Text);
    SourceLoc Loc = Tok.Loc;
    consume();
    if (Tok.is(TokenKind::LParen)) {
      FunctionDecl *F = parseFunction(T, Name, Loc, Unit);
      if (!F)
        return false;
      continue;
    }
    VarDecl *G = parseVarDeclTail(T, Name, Loc);
    if (!G)
      return false;
    Unit.Globals.push_back(G);
  }
  return !Diags.hasErrors();
}

FunctionDecl *Parser::parseFunction(const TypeInfo *ReturnType,
                                    std::string_view Name, SourceLoc Loc,
                                    TranslationUnit &Unit) {
  expect(TokenKind::LParen, "'('");
  std::vector<VarDecl *> Params;
  if (!Tok.is(TokenKind::RParen)) {
    if (Tok.is(TokenKind::KwVoid)) {
      // "(void)" parameter list.
      Token Saved = Tok;
      consume();
      if (!Tok.is(TokenKind::RParen)) {
        // It was "void *x" or similar: rebuild the type.
        const TypeInfo *T = Ctx.types().getVoid();
        while (Tok.is(TokenKind::Star)) {
          consume();
          T = Ctx.types().getPointer(T);
        }
        if (!Tok.is(TokenKind::Identifier)) {
          Diags.error(Saved.Loc, "expected parameter name");
          return nullptr;
        }
        Params.push_back(Ctx.create<VarDecl>(Ctx.internString(Tok.Text), T,
                                             nullptr, Tok.Loc));
        consume();
        while (Tok.is(TokenKind::Comma)) {
          consume();
          const TypeInfo *PT = parseTypeSpecifier();
          if (!Tok.is(TokenKind::Identifier)) {
            Diags.error(Tok.Loc, "expected parameter name");
            return nullptr;
          }
          Params.push_back(Ctx.create<VarDecl>(Ctx.internString(Tok.Text),
                                               PT, nullptr, Tok.Loc));
          consume();
        }
      }
    } else {
      do {
        const TypeInfo *PT = parseTypeSpecifier();
        if (!Tok.is(TokenKind::Identifier)) {
          Diags.error(Tok.Loc, "expected parameter name");
          return nullptr;
        }
        Params.push_back(Ctx.create<VarDecl>(Ctx.internString(Tok.Text),
                                             PT, nullptr, Tok.Loc));
        consume();
      } while (Tok.is(TokenKind::Comma) && (consume(), true));
    }
  }
  expect(TokenKind::RParen, "')'");

  auto *F = Ctx.create<FunctionDecl>(Name, ReturnType,
                                     Ctx.makeSpan(Params), Loc);
  Unit.Functions.push_back(F);
  if (Tok.is(TokenKind::Semicolon)) {
    consume(); // Declaration only.
    return F;
  }
  F->setBody(parseBlock());
  return F;
}

VarDecl *Parser::parseVarDeclTail(const TypeInfo *Type,
                                  std::string_view Name, SourceLoc Loc) {
  std::vector<uint64_t> Dims;
  while (Tok.is(TokenKind::LBracket)) {
    consume();
    if (!Tok.is(TokenKind::IntLiteral)) {
      Diags.error(Tok.Loc, "expected array bound");
      return nullptr;
    }
    Dims.push_back(Tok.IntValue);
    consume();
    expect(TokenKind::RBracket, "']'");
  }
  Type = applyArraySuffix(Type, Dims);
  Expr *Init = nullptr;
  if (Tok.is(TokenKind::Equal)) {
    consume();
    Init = parseExpr();
  }
  expect(TokenKind::Semicolon, "';'");
  return Ctx.create<VarDecl>(Name, Type, Init, Loc);
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

CompoundStmt *Parser::parseBlock() {
  SourceLoc Loc = Tok.Loc;
  expect(TokenKind::LBrace, "'{'");
  std::vector<Stmt *> Body;
  while (!Tok.is(TokenKind::RBrace) && !Tok.is(TokenKind::Eof))
    Body.push_back(parseStatement());
  expect(TokenKind::RBrace, "'}'");
  return Ctx.create<CompoundStmt>(Ctx.makeSpan(Body), Loc);
}

Stmt *Parser::parseStatement() {
  SourceLoc Loc = Tok.Loc;
  switch (Tok.Kind) {
  case TokenKind::LBrace:
    return parseBlock();
  case TokenKind::KwIf: {
    consume();
    expect(TokenKind::LParen, "'('");
    Expr *Cond = parseExpr();
    expect(TokenKind::RParen, "')'");
    Stmt *Then = parseStatement();
    Stmt *Else = nullptr;
    if (Tok.is(TokenKind::KwElse)) {
      consume();
      Else = parseStatement();
    }
    return Ctx.create<IfStmt>(Cond, Then, Else, Loc);
  }
  case TokenKind::KwWhile: {
    consume();
    expect(TokenKind::LParen, "'('");
    Expr *Cond = parseExpr();
    expect(TokenKind::RParen, "')'");
    return Ctx.create<WhileStmt>(Cond, parseStatement(), Loc);
  }
  case TokenKind::KwFor: {
    consume();
    expect(TokenKind::LParen, "'('");
    Stmt *Init = nullptr;
    if (!Tok.is(TokenKind::Semicolon))
      Init = parseStatement(); // Covers both decls and exprs (with ';').
    else
      consume();
    Expr *Cond = nullptr;
    if (!Tok.is(TokenKind::Semicolon))
      Cond = parseExpr();
    expect(TokenKind::Semicolon, "';'");
    Expr *Step = nullptr;
    if (!Tok.is(TokenKind::RParen))
      Step = parseExpr();
    expect(TokenKind::RParen, "')'");
    return Ctx.create<ForStmt>(Init, Cond, Step, parseStatement(), Loc);
  }
  case TokenKind::KwReturn: {
    consume();
    Expr *Value = nullptr;
    if (!Tok.is(TokenKind::Semicolon))
      Value = parseExpr();
    expect(TokenKind::Semicolon, "';'");
    return Ctx.create<ReturnStmt>(Value, Loc);
  }
  case TokenKind::KwBreak:
    consume();
    expect(TokenKind::Semicolon, "';'");
    return Ctx.create<BreakStmt>(Loc);
  case TokenKind::KwContinue:
    consume();
    expect(TokenKind::Semicolon, "';'");
    return Ctx.create<ContinueStmt>(Loc);
  default:
    break;
  }

  if (tokenStartsType()) {
    const TypeInfo *T = parseTypeSpecifier();
    if (!Tok.is(TokenKind::Identifier)) {
      Diags.error(Tok.Loc, "expected variable name");
      consume();
      return Ctx.create<BreakStmt>(Loc); // Error recovery placeholder.
    }
    std::string_view Name = Ctx.internString(Tok.Text);
    SourceLoc NameLoc = Tok.Loc;
    consume();
    VarDecl *D = parseVarDeclTail(T, Name, NameLoc);
    if (!D)
      return Ctx.create<BreakStmt>(Loc);
    return Ctx.create<DeclStmt>(D, Loc);
  }

  Expr *E = parseExpr();
  expect(TokenKind::Semicolon, "';'");
  return Ctx.create<ExprStmt>(E, Loc);
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Expr *Parser::parseExpr() { return parseAssignment(); }

Expr *Parser::parseAssignment() {
  Expr *LHS = parseBinary(0);
  SourceLoc Loc = Tok.Loc;
  if (Tok.is(TokenKind::Equal)) {
    consume();
    return Ctx.create<AssignExpr>(AssignExpr::OpKind::Plain, LHS,
                                  parseAssignment(), Loc);
  }
  if (Tok.is(TokenKind::PlusEqual)) {
    consume();
    return Ctx.create<AssignExpr>(AssignExpr::OpKind::Add, LHS,
                                  parseAssignment(), Loc);
  }
  if (Tok.is(TokenKind::MinusEqual)) {
    consume();
    return Ctx.create<AssignExpr>(AssignExpr::OpKind::Sub, LHS,
                                  parseAssignment(), Loc);
  }
  return LHS;
}

namespace {

struct OpInfo {
  BinaryOp Op;
  int Prec;
};

bool binaryOpFor(TokenKind Kind, OpInfo &Info) {
  switch (Kind) {
  case TokenKind::PipePipe:
    Info = {BinaryOp::LogicalOr, 1};
    return true;
  case TokenKind::AmpAmp:
    Info = {BinaryOp::LogicalAnd, 2};
    return true;
  case TokenKind::Pipe:
    Info = {BinaryOp::BitOr, 3};
    return true;
  case TokenKind::Caret:
    Info = {BinaryOp::BitXor, 4};
    return true;
  case TokenKind::Amp:
    Info = {BinaryOp::BitAnd, 5};
    return true;
  case TokenKind::EqualEqual:
    Info = {BinaryOp::Eq, 6};
    return true;
  case TokenKind::ExclaimEqual:
    Info = {BinaryOp::Ne, 6};
    return true;
  case TokenKind::Less:
    Info = {BinaryOp::Lt, 7};
    return true;
  case TokenKind::Greater:
    Info = {BinaryOp::Gt, 7};
    return true;
  case TokenKind::LessEqual:
    Info = {BinaryOp::Le, 7};
    return true;
  case TokenKind::GreaterEqual:
    Info = {BinaryOp::Ge, 7};
    return true;
  case TokenKind::LessLess:
    Info = {BinaryOp::Shl, 8};
    return true;
  case TokenKind::GreaterGreater:
    Info = {BinaryOp::Shr, 8};
    return true;
  case TokenKind::Plus:
    Info = {BinaryOp::Add, 9};
    return true;
  case TokenKind::Minus:
    Info = {BinaryOp::Sub, 9};
    return true;
  case TokenKind::Star:
    Info = {BinaryOp::Mul, 10};
    return true;
  case TokenKind::Slash:
    Info = {BinaryOp::Div, 10};
    return true;
  case TokenKind::Percent:
    Info = {BinaryOp::Rem, 10};
    return true;
  default:
    return false;
  }
}

} // namespace

Expr *Parser::parseBinary(int MinPrec) {
  Expr *LHS = parseUnary();
  for (;;) {
    OpInfo Info;
    if (!binaryOpFor(Tok.Kind, Info) || Info.Prec < MinPrec)
      return LHS;
    SourceLoc Loc = Tok.Loc;
    consume();
    Expr *RHS = parseBinary(Info.Prec + 1);
    LHS = Ctx.create<BinaryExpr>(Info.Op, LHS, RHS, Loc);
  }
}

Expr *Parser::parseUnary() {
  SourceLoc Loc = Tok.Loc;
  switch (Tok.Kind) {
  case TokenKind::Minus:
    consume();
    return Ctx.create<UnaryExpr>(UnaryOp::Neg, parseUnary(), Loc);
  case TokenKind::Exclaim:
    consume();
    return Ctx.create<UnaryExpr>(UnaryOp::LogicalNot, parseUnary(), Loc);
  case TokenKind::Tilde:
    consume();
    return Ctx.create<UnaryExpr>(UnaryOp::BitNot, parseUnary(), Loc);
  case TokenKind::Amp:
    consume();
    return Ctx.create<UnaryExpr>(UnaryOp::AddrOf, parseUnary(), Loc);
  case TokenKind::Star:
    consume();
    return Ctx.create<UnaryExpr>(UnaryOp::Deref, parseUnary(), Loc);
  case TokenKind::PlusPlus:
    consume();
    return Ctx.create<UnaryExpr>(UnaryOp::PreInc, parseUnary(), Loc);
  case TokenKind::MinusMinus:
    consume();
    return Ctx.create<UnaryExpr>(UnaryOp::PreDec, parseUnary(), Loc);
  case TokenKind::KwSizeof: {
    consume();
    expect(TokenKind::LParen, "'('");
    const TypeInfo *T = parseTypeSpecifier();
    expect(TokenKind::RParen, "')'");
    return Ctx.create<SizeofExpr>(T, Loc);
  }
  case TokenKind::LParen:
    // Cast or parenthesized expression: a cast iff a type follows.
    {
      // One-token lookahead suffices: types start with a keyword.
      // (struct tags always appear with the 'struct' keyword.)
      Token Open = Tok;
      consume();
      if (tokenStartsType()) {
        const TypeInfo *T = parseTypeSpecifier();
        expect(TokenKind::RParen, "')'");
        return Ctx.create<CastExpr>(T, parseUnary(), Open.Loc);
      }
      Expr *Inner = parseExpr();
      expect(TokenKind::RParen, "')'");
      // Continue with postfix operators on the parenthesized value.
      Expr *E = Inner;
      for (;;) {
        if (Tok.is(TokenKind::LBracket)) {
          SourceLoc L = Tok.Loc;
          consume();
          Expr *Index = parseExpr();
          expect(TokenKind::RBracket, "']'");
          E = Ctx.create<IndexExpr>(E, Index, L);
          continue;
        }
        if (Tok.is(TokenKind::Dot) || Tok.is(TokenKind::Arrow)) {
          bool Arrow = Tok.is(TokenKind::Arrow);
          SourceLoc L = Tok.Loc;
          consume();
          if (!Tok.is(TokenKind::Identifier)) {
            Diags.error(Tok.Loc, "expected member name");
            return E;
          }
          E = Ctx.create<MemberExpr>(E, Ctx.internString(Tok.Text), Arrow,
                                     L);
          consume();
          continue;
        }
        return E;
      }
    }
  default:
    return parsePostfix();
  }
}

Expr *Parser::parsePostfix() {
  Expr *E = parsePrimary();
  for (;;) {
    if (Tok.is(TokenKind::LBracket)) {
      SourceLoc Loc = Tok.Loc;
      consume();
      Expr *Index = parseExpr();
      expect(TokenKind::RBracket, "']'");
      E = Ctx.create<IndexExpr>(E, Index, Loc);
      continue;
    }
    if (Tok.is(TokenKind::Dot) || Tok.is(TokenKind::Arrow)) {
      bool Arrow = Tok.is(TokenKind::Arrow);
      SourceLoc Loc = Tok.Loc;
      consume();
      if (!Tok.is(TokenKind::Identifier)) {
        Diags.error(Tok.Loc, "expected member name");
        return E;
      }
      E = Ctx.create<MemberExpr>(E, Ctx.internString(Tok.Text), Arrow,
                                 Loc);
      consume();
      continue;
    }
    return E;
  }
}

Expr *Parser::parsePrimary() {
  SourceLoc Loc = Tok.Loc;
  switch (Tok.Kind) {
  case TokenKind::IntLiteral: {
    uint64_t V = Tok.IntValue;
    consume();
    return Ctx.create<IntLiteralExpr>(V, Loc);
  }
  case TokenKind::CharLiteral: {
    uint64_t V = Tok.IntValue;
    consume();
    return Ctx.create<IntLiteralExpr>(V, Loc);
  }
  case TokenKind::FloatLiteral: {
    double V = Tok.FloatValue;
    consume();
    return Ctx.create<FloatLiteralExpr>(V, Loc);
  }
  case TokenKind::StringLiteral: {
    // Decode escapes; strip quotes.
    std::string Decoded;
    std::string_view Raw = Tok.Text.substr(1, Tok.Text.size() - 2);
    for (size_t I = 0; I < Raw.size(); ++I) {
      if (Raw[I] == '\\' && I + 1 < Raw.size()) {
        char C = Raw[++I];
        Decoded.push_back(C == 'n'   ? '\n'
                          : C == 't' ? '\t'
                          : C == '0' ? '\0'
                                     : C);
      } else {
        Decoded.push_back(Raw[I]);
      }
    }
    consume();
    return Ctx.create<StringLiteralExpr>(Ctx.internString(Decoded), Loc);
  }
  case TokenKind::KwNull:
    consume();
    return Ctx.create<NullExpr>(Loc);
  case TokenKind::Identifier: {
    std::string_view Name = Ctx.internString(Tok.Text);
    consume();
    if (!Tok.is(TokenKind::LParen))
      return Ctx.create<VarRefExpr>(Name, Loc);
    consume(); // '('
    std::vector<Expr *> Args;
    if (!Tok.is(TokenKind::RParen)) {
      Args.push_back(parseAssignment());
      while (Tok.is(TokenKind::Comma)) {
        consume();
        Args.push_back(parseAssignment());
      }
    }
    expect(TokenKind::RParen, "')'");
    if (Name == "malloc") {
      if (Args.size() != 1) {
        Diags.error(Loc, "malloc takes exactly one argument");
        return Ctx.create<NullExpr>(Loc);
      }
      return Ctx.create<MallocExpr>(Args[0], Loc);
    }
    if (Name == "free") {
      if (Args.size() != 1) {
        Diags.error(Loc, "free takes exactly one argument");
        return Ctx.create<NullExpr>(Loc);
      }
      return Ctx.create<FreeExpr>(Args[0], Loc);
    }
    return Ctx.create<CallExpr>(Name, Ctx.makeSpan(Args), Loc);
  }
  default:
    Diags.error(Loc, "expected expression before '" +
                         std::string(Tok.Text) + "'");
    consume();
    return Ctx.create<NullExpr>(Loc);
  }
}

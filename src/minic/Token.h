//===- minic/Token.h - MiniC token definitions ------------------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token kinds for MiniC, the C subset used to reproduce the paper's
/// compiler pipeline (type-annotated IR + instrumentation pass). MiniC
/// covers the constructs the instrumentation schema cares about:
/// structs/unions, arrays, pointers, casts, malloc/free, and ordinary
/// statements/expressions.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_MINIC_TOKEN_H
#define EFFECTIVE_MINIC_TOKEN_H

#include "support/Diagnostics.h"

#include <cstdint>
#include <string_view>

namespace effective {
namespace minic {

enum class TokenKind : uint8_t {
  Eof,
  Identifier,
  IntLiteral,
  FloatLiteral,
  CharLiteral,
  StringLiteral,

  // Keywords.
  KwInt,
  KwChar,
  KwFloat,
  KwDouble,
  KwLong,
  KwShort,
  KwVoid,
  KwUnsigned,
  KwSigned,
  KwStruct,
  KwUnion,
  KwSizeof,
  KwIf,
  KwElse,
  KwWhile,
  KwFor,
  KwReturn,
  KwBreak,
  KwContinue,
  KwNull,

  // Punctuation and operators.
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Semicolon,
  Comma,
  Dot,
  Arrow,
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  Amp,
  Pipe,
  Caret,
  Tilde,
  Exclaim,
  AmpAmp,
  PipePipe,
  Less,
  Greater,
  LessEqual,
  GreaterEqual,
  EqualEqual,
  ExclaimEqual,
  Equal,
  PlusPlus,
  MinusMinus,
  LessLess,
  GreaterGreater,
  PlusEqual,
  MinusEqual,
};

/// Returns a human-readable token-kind name for diagnostics.
std::string_view tokenKindName(TokenKind Kind);

/// One lexed token. Text views into the source buffer.
struct Token {
  TokenKind Kind = TokenKind::Eof;
  std::string_view Text;
  SourceLoc Loc;
  /// Value for IntLiteral / CharLiteral.
  uint64_t IntValue = 0;
  /// Value for FloatLiteral.
  double FloatValue = 0;

  bool is(TokenKind K) const { return Kind == K; }
};

} // namespace minic
} // namespace effective

#endif // EFFECTIVE_MINIC_TOKEN_H

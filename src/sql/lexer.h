#ifndef STARMAGIC_SQL_LEXER_H_
#define STARMAGIC_SQL_LEXER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace starmagic {

enum class TokenType {
  kEof,
  kIdentifier,  ///< bare word that is not a keyword
  kKeyword,     ///< normalized to upper case in `text`
  kIntLiteral,
  kDoubleLiteral,
  kStringLiteral,  ///< without quotes, escapes resolved
  // Punctuation / operators.
  kComma,
  kDot,
  kLParen,
  kRParen,
  kStar,
  kPlus,
  kMinus,
  kSlash,
  kEq,    ///< =
  kNeq,   ///< <> or !=
  kLt,
  kLtEq,
  kGt,
  kGtEq,
  kSemicolon,
  kQuestion,  ///< positional parameter marker '?'
};

/// One lexical token with source position for error reporting.
struct Token {
  TokenType type = TokenType::kEof;
  std::string text;       ///< identifier/keyword/literal text
  int64_t int_value = 0;  ///< for kIntLiteral
  double double_value = 0;  ///< for kDoubleLiteral
  int position = 0;       ///< byte offset in the input
  int line = 1;
  int column = 1;

  bool IsKeyword(const char* kw) const;
  std::string Describe() const;
};

/// Splits SQL text into tokens. Keywords are recognized case-insensitively
/// from a fixed list; `--` starts a line comment.
Result<std::vector<Token>> Lex(const std::string& sql);

}  // namespace starmagic

#endif  // STARMAGIC_SQL_LEXER_H_

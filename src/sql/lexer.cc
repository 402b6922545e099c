#include "sql/lexer.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <set>

#include "common/string_util.h"

namespace starmagic {

namespace {

const std::set<std::string>& Keywords() {
  static const std::set<std::string>* kKeywords = new std::set<std::string>{
      "SELECT", "FROM",      "WHERE",    "GROUP",     "BY",       "HAVING",
      "ORDER",  "ASC",       "DESC",     "DISTINCT",  "ALL",      "AS",
      "AND",    "OR",        "NOT",      "IN",        "EXISTS",   "BETWEEN",
      "LIKE",   "IS",        "NULL",     "TRUE",      "FALSE",    "UNION",
      "EXCEPT", "INTERSECT", "CREATE",   "TABLE",     "VIEW",     "RECURSIVE",
      "INSERT", "INTO",      "VALUES",   "INTEGER",   "INT",      "DOUBLE",
      "FLOAT",  "VARCHAR",   "TEXT",     "BOOLEAN",   "COUNT",    "SUM",
      "AVG",    "MIN",       "MAX",      "ANY",       "SOME",     "DROP",
      "LIMIT",  "ANALYZE",   "GROUPBY",  "UPDATE",    "SET",      "DELETE",
      "INDEX",  "ON",        "USING",    "HASH",      "ORDERED",  "EXPLAIN",
      "PREPARE", "EXECUTE",  "DEALLOCATE",
  };
  return *kKeywords;
}

}  // namespace

bool Token::IsKeyword(const char* kw) const {
  return type == TokenType::kKeyword && text == kw;
}

std::string Token::Describe() const {
  switch (type) {
    case TokenType::kEof:
      return "end of input";
    case TokenType::kIdentifier:
      return StrCat("identifier '", text, "'");
    case TokenType::kKeyword:
      return StrCat("keyword ", text);
    case TokenType::kIntLiteral:
    case TokenType::kDoubleLiteral:
      return StrCat("number ", text);
    case TokenType::kStringLiteral:
      return StrCat("string '", text, "'");
    default:
      return StrCat("'", text, "'");
  }
}

Result<std::vector<Token>> Lex(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  int line = 1;
  int line_start = 0;
  auto make = [&](TokenType type, std::string text, size_t pos) {
    Token t;
    t.type = type;
    t.text = std::move(text);
    t.position = static_cast<int>(pos);
    t.line = line;
    t.column = static_cast<int>(pos) - line_start + 1;
    return t;
  };
  while (i < sql.size()) {
    char c = sql[i];
    if (c == '\n') {
      ++line;
      ++i;
      line_start = static_cast<int>(i);
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < sql.size() && sql[i + 1] == '-') {
      while (i < sql.size() && sql[i] != '\n') ++i;
      continue;
    }
    size_t start = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      while (i < sql.size() && (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                                sql[i] == '_')) {
        ++i;
      }
      std::string word = sql.substr(start, i - start);
      std::string upper = ToUpper(word);
      if (Keywords().count(upper)) {
        tokens.push_back(make(TokenType::kKeyword, upper, start));
      } else {
        tokens.push_back(make(TokenType::kIdentifier, word, start));
      }
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < sql.size() &&
         std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      bool is_double = false;
      while (i < sql.size() && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      if (i < sql.size() && sql[i] == '.') {
        is_double = true;
        ++i;
        while (i < sql.size() && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      }
      if (i < sql.size() && (sql[i] == 'e' || sql[i] == 'E')) {
        is_double = true;
        ++i;
        if (i < sql.size() && (sql[i] == '+' || sql[i] == '-')) ++i;
        while (i < sql.size() && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      }
      std::string text = sql.substr(start, i - start);
      Token t = make(is_double ? TokenType::kDoubleLiteral : TokenType::kIntLiteral,
                     text, start);
      if (is_double) {
        t.double_value = std::strtod(text.c_str(), nullptr);
      } else {
        // strtoll saturates at INT64_MAX on overflow and only reports it
        // via errno; an unchecked call would silently clamp literals like
        // 9223372036854775808. Out-of-range digits are a typed parse
        // error, never a wrapped or clamped value. (A leading '-' is a
        // separate kMinus token, so the digits here are always positive
        // and INT64_MIN itself is not writable as a single literal.)
        errno = 0;
        t.int_value = std::strtoll(text.c_str(), nullptr, 10);
        if (errno == ERANGE) {
          return Status::ParseError(
              StrCat("integer literal ", text, " at line ", line,
                     " is out of range for a 64-bit integer"));
        }
      }
      tokens.push_back(std::move(t));
      continue;
    }
    if (c == '\'') {
      ++i;
      std::string text;
      bool closed = false;
      while (i < sql.size()) {
        if (sql[i] == '\'') {
          if (i + 1 < sql.size() && sql[i + 1] == '\'') {  // escaped quote
            text += '\'';
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        text += sql[i++];
      }
      if (!closed) {
        return Status::ParseError(
            StrCat("unterminated string literal at line ", line));
      }
      tokens.push_back(make(TokenType::kStringLiteral, std::move(text), start));
      continue;
    }
    auto single = [&](TokenType type) {
      tokens.push_back(make(type, sql.substr(start, 1), start));
      ++i;
    };
    switch (c) {
      case ',':
        single(TokenType::kComma);
        break;
      case '.':
        single(TokenType::kDot);
        break;
      case '(':
        single(TokenType::kLParen);
        break;
      case ')':
        single(TokenType::kRParen);
        break;
      case '*':
        single(TokenType::kStar);
        break;
      case '+':
        single(TokenType::kPlus);
        break;
      case '-':
        single(TokenType::kMinus);
        break;
      case '/':
        single(TokenType::kSlash);
        break;
      case ';':
        single(TokenType::kSemicolon);
        break;
      case '?':
        single(TokenType::kQuestion);
        break;
      case '=':
        single(TokenType::kEq);
        break;
      case '!':
        if (i + 1 < sql.size() && sql[i + 1] == '=') {
          tokens.push_back(make(TokenType::kNeq, "!=", start));
          i += 2;
        } else {
          return Status::ParseError(StrCat("unexpected '!' at line ", line));
        }
        break;
      case '<':
        if (i + 1 < sql.size() && sql[i + 1] == '=') {
          tokens.push_back(make(TokenType::kLtEq, "<=", start));
          i += 2;
        } else if (i + 1 < sql.size() && sql[i + 1] == '>') {
          tokens.push_back(make(TokenType::kNeq, "<>", start));
          i += 2;
        } else {
          single(TokenType::kLt);
        }
        break;
      case '>':
        if (i + 1 < sql.size() && sql[i + 1] == '=') {
          tokens.push_back(make(TokenType::kGtEq, ">=", start));
          i += 2;
        } else {
          single(TokenType::kGt);
        }
        break;
      default:
        return Status::ParseError(
            StrCat("unexpected character '", std::string(1, c), "' at line ",
                   line));
    }
  }
  Token eof;
  eof.type = TokenType::kEof;
  eof.position = static_cast<int>(sql.size());
  eof.line = line;
  tokens.push_back(eof);
  return tokens;
}

}  // namespace starmagic

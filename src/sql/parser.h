#ifndef STARMAGIC_SQL_PARSER_H_
#define STARMAGIC_SQL_PARSER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"

namespace starmagic {

/// Deepest nesting the parser accepts. Each query block, each expression
/// (a select item, a predicate, a parenthesized sub-expression, an
/// aggregate argument), each unary '-', '+' or NOT, and each binary
/// operator of a chain (`a + b + c` nests the first '+' under the second)
/// opens one level, so `SELECT ((1))` and `SELECT 1 + 2 + 3` are both 4
/// deep. Deeper input is a ParseError instead of a stack overflow in the
/// parser or in the recursive passes after it. The value is below
/// SQLite's 1000 because a statement at the limit must also run through
/// Database::Query in the ASan build, whose frames are several times
/// larger: there, about 510 nested parentheses or 258 nested subqueries
/// overflow the 8 MiB main-thread stack, so 400 leaves about 20% spare.
inline constexpr int kMaxParseDepth = 400;

/// Parses one SQL statement (optionally ';'-terminated). Fails if extra
/// input follows.
Result<std::unique_ptr<AstStatement>> ParseStatement(const std::string& sql);

/// Parses a script of ';'-separated statements.
Result<std::vector<std::unique_ptr<AstStatement>>> ParseScript(
    const std::string& sql);

/// Parses a bare query blob ("SELECT ... [UNION ...]").
Result<std::unique_ptr<AstBlob>> ParseQuery(const std::string& sql);

}  // namespace starmagic

#endif  // STARMAGIC_SQL_PARSER_H_

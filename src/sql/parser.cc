#include "sql/parser.h"

#include "common/string_util.h"
#include "sql/lexer.h"

namespace starmagic {

namespace {

/// Recursive-descent parser over a token stream.
class Parser {
 public:
  Parser(const std::string& sql, std::vector<Token> tokens)
      : sql_(sql), tokens_(std::move(tokens)) {}

  Result<std::unique_ptr<AstStatement>> ParseSingleStatement() {
    SM_ASSIGN_OR_RETURN(std::unique_ptr<AstStatement> stmt, ParseOneStatement());
    ConsumeIf(TokenType::kSemicolon);
    if (!AtEnd()) {
      return Status::ParseError(
          StrCat("unexpected ", Peek().Describe(), " after statement at line ",
                 Peek().line));
    }
    return stmt;
  }

  Result<std::vector<std::unique_ptr<AstStatement>>> ParseAll() {
    std::vector<std::unique_ptr<AstStatement>> stmts;
    while (!AtEnd()) {
      if (ConsumeIf(TokenType::kSemicolon)) continue;
      SM_ASSIGN_OR_RETURN(std::unique_ptr<AstStatement> stmt, ParseOneStatement());
      stmts.push_back(std::move(stmt));
      if (!AtEnd() && !ConsumeIf(TokenType::kSemicolon)) {
        return Status::ParseError(
            StrCat("expected ';' between statements, got ", Peek().Describe(),
                   " at line ", Peek().line));
      }
    }
    return stmts;
  }

  Result<std::unique_ptr<AstBlob>> ParseBareQuery() {
    SM_ASSIGN_OR_RETURN(std::unique_ptr<AstBlob> blob, ParseBlob());
    ConsumeIf(TokenType::kSemicolon);
    if (!AtEnd()) {
      return Status::ParseError(
          StrCat("unexpected ", Peek().Describe(), " after query at line ",
                 Peek().line));
    }
    return blob;
  }

 private:
  const Token& Peek(int ahead = 0) const {
    size_t i = pos_ + static_cast<size_t>(ahead);
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool AtEnd() const { return Peek().type == TokenType::kEof; }

  /// Restores the nesting depth on scope exit, undoing every Nest() made
  /// while it lived.
  class DepthGuard {
   public:
    explicit DepthGuard(int* depth) : depth_(depth), saved_(*depth) {}
    ~DepthGuard() { *depth_ = saved_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;

   private:
    int* depth_;
    int saved_;
  };

  /// Opens one nesting level. Input nested past kMaxParseDepth is rejected
  /// here, as a typed error, before it can overflow the stack of this or a
  /// later recursive pass.
  Status Nest() {
    if (++depth_ <= kMaxParseDepth) return Status::OK();
    return Status::ParseError(StrCat("statement nests deeper than ",
                                     kMaxParseDepth, " levels at line ",
                                     Peek().line));
  }

  bool CheckKeyword(const char* kw) const { return Peek().IsKeyword(kw); }
  bool ConsumeKeyword(const char* kw) {
    if (CheckKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ConsumeIf(TokenType type) {
    if (Peek().type == type) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const char* kw) {
    if (!ConsumeKeyword(kw)) {
      return Status::ParseError(StrCat("expected ", kw, ", got ",
                                       Peek().Describe(), " at line ",
                                       Peek().line));
    }
    return Status::OK();
  }
  Status Expect(TokenType type, const char* what) {
    if (!ConsumeIf(type)) {
      return Status::ParseError(StrCat("expected ", what, ", got ",
                                       Peek().Describe(), " at line ",
                                       Peek().line));
    }
    return Status::OK();
  }
  Result<std::string> ExpectIdentifier(const char* what) {
    if (Peek().type != TokenType::kIdentifier) {
      return Status::ParseError(StrCat("expected ", what, ", got ",
                                       Peek().Describe(), " at line ",
                                       Peek().line));
    }
    return Advance().text;
  }

  /// A possibly schema-qualified relation name: `ident` or `ident.ident`
  /// (one level — enough for the reserved `sys` schema). The dotted form
  /// is returned joined ("sys.metrics"), matching catalog keys.
  Result<std::string> ParseQualifiedName(const char* what) {
    SM_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier(what));
    if (Peek().type == TokenType::kDot &&
        Peek(1).type == TokenType::kIdentifier) {
      Advance();  // '.'
      name += '.';
      name += Advance().text;
    }
    return name;
  }

  Result<std::unique_ptr<AstStatement>> ParseOneStatement() {
    if (CheckKeyword("SELECT")) {
      auto stmt = std::make_unique<AstSelectStatement>();
      SM_ASSIGN_OR_RETURN(stmt->blob, ParseBlob());
      return std::unique_ptr<AstStatement>(std::move(stmt));
    }
    if (ConsumeKeyword("CREATE")) return ParseCreate();
    if (ConsumeKeyword("INSERT")) return ParseInsert();
    if (ConsumeKeyword("UPDATE")) return ParseUpdate();
    if (ConsumeKeyword("DELETE")) return ParseDelete();
    if (ConsumeKeyword("DROP")) return ParseDrop();
    if (ConsumeKeyword("ANALYZE")) {
      auto stmt = std::make_unique<AstAnalyze>();
      if (Peek().type == TokenType::kIdentifier) {
        SM_ASSIGN_OR_RETURN(stmt->table, ParseQualifiedName("table name"));
      }
      return std::unique_ptr<AstStatement>(std::move(stmt));
    }
    if (ConsumeKeyword("EXPLAIN")) {
      auto stmt = std::make_unique<AstExplain>();
      stmt->analyze = ConsumeKeyword("ANALYZE");
      SM_ASSIGN_OR_RETURN(stmt->query, ParseBlob());
      return std::unique_ptr<AstStatement>(std::move(stmt));
    }
    if (ConsumeKeyword("PREPARE")) return ParsePrepare();
    if (ConsumeKeyword("EXECUTE")) return ParseExecute();
    if (ConsumeKeyword("DEALLOCATE")) {
      auto stmt = std::make_unique<AstDeallocate>();
      SM_ASSIGN_OR_RETURN(stmt->name, ExpectIdentifier("statement name"));
      return std::unique_ptr<AstStatement>(std::move(stmt));
    }
    return Status::ParseError(StrCat("expected a statement, got ",
                                     Peek().Describe(), " at line ",
                                     Peek().line));
  }

  Result<std::unique_ptr<AstStatement>> ParseCreate() {
    if (ConsumeKeyword("TABLE")) {
      auto stmt = std::make_unique<AstCreateTable>();
      SM_ASSIGN_OR_RETURN(stmt->name, ParseQualifiedName("table name"));
      SM_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
      do {
        SM_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
        SM_ASSIGN_OR_RETURN(ColumnType type, ParseColumnType());
        stmt->schema.AddColumn({col, type});
      } while (ConsumeIf(TokenType::kComma));
      SM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return std::unique_ptr<AstStatement>(std::move(stmt));
    }
    if (ConsumeKeyword("INDEX")) {
      auto stmt = std::make_unique<AstCreateIndex>();
      SM_ASSIGN_OR_RETURN(stmt->name, ParseQualifiedName("index name"));
      SM_RETURN_IF_ERROR(ExpectKeyword("ON"));
      SM_ASSIGN_OR_RETURN(stmt->table, ParseQualifiedName("table name"));
      SM_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
      do {
        SM_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
        stmt->columns.push_back(std::move(col));
      } while (ConsumeIf(TokenType::kComma));
      SM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      if (ConsumeKeyword("USING")) {
        if (ConsumeKeyword("ORDERED")) {
          stmt->ordered = true;
        } else if (!ConsumeKeyword("HASH")) {
          return Status::ParseError(
              StrCat("expected HASH or ORDERED after USING at line ",
                     Peek().line));
        }
      }
      return std::unique_ptr<AstStatement>(std::move(stmt));
    }
    bool recursive = ConsumeKeyword("RECURSIVE");
    if (ConsumeKeyword("VIEW")) {
      auto stmt = std::make_unique<AstCreateView>();
      stmt->recursive = recursive;
      SM_ASSIGN_OR_RETURN(stmt->name, ParseQualifiedName("view name"));
      if (ConsumeIf(TokenType::kLParen)) {
        do {
          SM_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
          stmt->column_names.push_back(std::move(col));
        } while (ConsumeIf(TokenType::kComma));
        SM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      }
      SM_RETURN_IF_ERROR(ExpectKeyword("AS"));
      // An optional parenthesis around the body is tolerated.
      bool parenthesized = false;
      if (Peek().type == TokenType::kLParen) {
        // Only treat as body wrapper if followed by SELECT.
        if (Peek(1).IsKeyword("SELECT")) {
          parenthesized = true;
          Advance();
        }
      }
      int body_start = Peek().position;
      SM_ASSIGN_OR_RETURN(stmt->body, ParseBlob());
      int body_end = Peek().position;
      if (parenthesized) {
        SM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      }
      stmt->body_sql = sql_.substr(static_cast<size_t>(body_start),
                                   static_cast<size_t>(body_end - body_start));
      return std::unique_ptr<AstStatement>(std::move(stmt));
    }
    return Status::ParseError(
        StrCat("expected TABLE, VIEW, or INDEX after CREATE at line ",
               Peek().line));
  }

  Result<std::unique_ptr<AstStatement>> ParseInsert() {
    SM_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    auto stmt = std::make_unique<AstInsert>();
    SM_ASSIGN_OR_RETURN(stmt->table, ParseQualifiedName("table name"));
    SM_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    do {
      SM_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
      std::vector<Value> row;
      do {
        SM_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
        row.push_back(std::move(v));
      } while (ConsumeIf(TokenType::kComma));
      SM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      stmt->rows.push_back(std::move(row));
    } while (ConsumeIf(TokenType::kComma));
    return std::unique_ptr<AstStatement>(std::move(stmt));
  }

  Result<std::unique_ptr<AstStatement>> ParseUpdate() {
    auto stmt = std::make_unique<AstUpdate>();
    SM_ASSIGN_OR_RETURN(stmt->table, ParseQualifiedName("table name"));
    SM_RETURN_IF_ERROR(ExpectKeyword("SET"));
    do {
      SM_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
      SM_RETURN_IF_ERROR(Expect(TokenType::kEq, "'='"));
      SM_ASSIGN_OR_RETURN(AstExprPtr value, ParseExpr());
      stmt->columns.push_back(std::move(col));
      stmt->values.push_back(std::move(value));
    } while (ConsumeIf(TokenType::kComma));
    if (ConsumeKeyword("WHERE")) {
      SM_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return std::unique_ptr<AstStatement>(std::move(stmt));
  }

  Result<std::unique_ptr<AstStatement>> ParseDelete() {
    SM_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    auto stmt = std::make_unique<AstDelete>();
    SM_ASSIGN_OR_RETURN(stmt->table, ParseQualifiedName("table name"));
    if (ConsumeKeyword("WHERE")) {
      SM_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return std::unique_ptr<AstStatement>(std::move(stmt));
  }

  Result<std::unique_ptr<AstStatement>> ParseDrop() {
    if (ConsumeKeyword("TABLE")) {
      auto stmt = std::make_unique<AstDrop>(StatementKind::kDropTable);
      SM_ASSIGN_OR_RETURN(stmt->name, ParseQualifiedName("table name"));
      return std::unique_ptr<AstStatement>(std::move(stmt));
    }
    if (ConsumeKeyword("VIEW")) {
      auto stmt = std::make_unique<AstDrop>(StatementKind::kDropView);
      SM_ASSIGN_OR_RETURN(stmt->name, ParseQualifiedName("view name"));
      return std::unique_ptr<AstStatement>(std::move(stmt));
    }
    if (ConsumeKeyword("INDEX")) {
      auto stmt = std::make_unique<AstDrop>(StatementKind::kDropIndex);
      SM_ASSIGN_OR_RETURN(stmt->name, ParseQualifiedName("index name"));
      return std::unique_ptr<AstStatement>(std::move(stmt));
    }
    return Status::ParseError(StrCat(
        "expected TABLE, VIEW, or INDEX after DROP at line ", Peek().line));
  }

  /// PREPARE name AS <select>. Like CREATE VIEW, the body text is captured
  /// verbatim between the token after AS and the token past the blob, so
  /// the engine can re-key its plan cache on exactly what was written.
  Result<std::unique_ptr<AstStatement>> ParsePrepare() {
    auto stmt = std::make_unique<AstPrepare>();
    SM_ASSIGN_OR_RETURN(stmt->name, ExpectIdentifier("statement name"));
    SM_RETURN_IF_ERROR(ExpectKeyword("AS"));
    int params_before = param_count_;
    int body_start = Peek().position;
    SM_ASSIGN_OR_RETURN(stmt->body, ParseBlob());
    int body_end = Peek().position;
    stmt->body_sql = sql_.substr(static_cast<size_t>(body_start),
                                 static_cast<size_t>(body_end - body_start));
    stmt->num_params = param_count_ - params_before;
    return std::unique_ptr<AstStatement>(std::move(stmt));
  }

  /// EXECUTE name [(literal, ...)]. Arguments are literal values: binding
  /// happens in the engine, after the cached plan is fetched, so anything
  /// needing name resolution would defeat the compile-skipping point.
  Result<std::unique_ptr<AstStatement>> ParseExecute() {
    auto stmt = std::make_unique<AstExecute>();
    SM_ASSIGN_OR_RETURN(stmt->name, ExpectIdentifier("statement name"));
    if (ConsumeIf(TokenType::kLParen)) {
      do {
        SM_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
        stmt->args.push_back(std::move(v));
      } while (ConsumeIf(TokenType::kComma));
      SM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    }
    return std::unique_ptr<AstStatement>(std::move(stmt));
  }

  Result<Value> ParseLiteralValue() {
    bool negative = ConsumeIf(TokenType::kMinus);
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kIntLiteral:
        Advance();
        return Value::Int(negative ? -t.int_value : t.int_value);
      case TokenType::kDoubleLiteral:
        Advance();
        return Value::Double(negative ? -t.double_value : t.double_value);
      case TokenType::kStringLiteral:
        if (negative) break;
        Advance();
        return Value::String(t.text);
      case TokenType::kKeyword:
        if (negative) break;
        if (t.text == "NULL") {
          Advance();
          return Value::Null();
        }
        if (t.text == "TRUE") {
          Advance();
          return Value::Bool(true);
        }
        if (t.text == "FALSE") {
          Advance();
          return Value::Bool(false);
        }
        break;
      default:
        break;
    }
    return Status::ParseError(
        StrCat("expected literal, got ", t.Describe(), " at line ", t.line));
  }

  Result<ColumnType> ParseColumnType() {
    const Token& t = Peek();
    if (t.type == TokenType::kKeyword) {
      if (t.text == "INTEGER" || t.text == "INT") {
        Advance();
        return ColumnType::kInt;
      }
      if (t.text == "DOUBLE" || t.text == "FLOAT") {
        Advance();
        return ColumnType::kDouble;
      }
      if (t.text == "VARCHAR" || t.text == "TEXT") {
        Advance();
        // Tolerate VARCHAR(n).
        if (ConsumeIf(TokenType::kLParen)) {
          if (Peek().type == TokenType::kIntLiteral) Advance();
          SM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        }
        return ColumnType::kString;
      }
      if (t.text == "BOOLEAN") {
        Advance();
        return ColumnType::kBool;
      }
    }
    return Status::ParseError(
        StrCat("expected column type, got ", t.Describe(), " at line ", t.line));
  }

  // ---------------------------- Queries ------------------------------------

  Result<std::unique_ptr<AstBlob>> ParseBlob() {
    DepthGuard guard(&depth_);
    SM_RETURN_IF_ERROR(Nest());
    auto blob = std::make_unique<AstBlob>();
    SM_ASSIGN_OR_RETURN(blob->first, ParseBlock());
    while (true) {
      SetOp op;
      if (ConsumeKeyword("UNION")) {
        op = ConsumeKeyword("ALL") ? SetOp::kUnionAll : SetOp::kUnion;
      } else if (ConsumeKeyword("EXCEPT")) {
        op = SetOp::kExcept;
      } else if (ConsumeKeyword("INTERSECT")) {
        op = SetOp::kIntersect;
      } else {
        break;
      }
      SM_ASSIGN_OR_RETURN(std::unique_ptr<AstBlock> block, ParseBlock());
      blob->rest.emplace_back(op, std::move(block));
    }
    if (ConsumeKeyword("ORDER")) {
      SM_RETURN_IF_ERROR(ExpectKeyword("BY"));
      do {
        AstOrderItem item;
        SM_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword("DESC")) {
          item.ascending = false;
        } else {
          ConsumeKeyword("ASC");
        }
        blob->order_by.push_back(std::move(item));
      } while (ConsumeIf(TokenType::kComma));
    }
    if (ConsumeKeyword("LIMIT")) {
      if (Peek().type != TokenType::kIntLiteral) {
        return Status::ParseError(StrCat("expected integer after LIMIT at line ",
                                         Peek().line));
      }
      blob->limit = Advance().int_value;
    }
    return blob;
  }

  Result<std::unique_ptr<AstBlock>> ParseBlock() {
    SM_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    auto block = std::make_unique<AstBlock>();
    if (ConsumeKeyword("DISTINCT")) {
      block->distinct = true;
    } else {
      ConsumeKeyword("ALL");
    }
    do {
      SM_ASSIGN_OR_RETURN(AstSelectItem item, ParseSelectItem());
      block->items.push_back(std::move(item));
    } while (ConsumeIf(TokenType::kComma));
    if (ConsumeKeyword("FROM")) {
      do {
        SM_ASSIGN_OR_RETURN(AstTableRef ref, ParseTableRef());
        block->from.push_back(std::move(ref));
      } while (ConsumeIf(TokenType::kComma));
    }
    if (ConsumeKeyword("WHERE")) {
      SM_ASSIGN_OR_RETURN(block->where, ParseExpr());
    }
    // The paper writes GROUPBY as one word in places; accept both.
    if (ConsumeKeyword("GROUPBY")) {
      do {
        SM_ASSIGN_OR_RETURN(AstExprPtr key, ParseExpr());
        block->group_by.push_back(std::move(key));
      } while (ConsumeIf(TokenType::kComma));
    } else if (CheckKeyword("GROUP")) {
      Advance();
      SM_RETURN_IF_ERROR(ExpectKeyword("BY"));
      do {
        SM_ASSIGN_OR_RETURN(AstExprPtr key, ParseExpr());
        block->group_by.push_back(std::move(key));
      } while (ConsumeIf(TokenType::kComma));
    }
    if (ConsumeKeyword("HAVING")) {
      SM_ASSIGN_OR_RETURN(block->having, ParseExpr());
    }
    return block;
  }

  Result<AstSelectItem> ParseSelectItem() {
    AstSelectItem item;
    if (Peek().type == TokenType::kStar) {
      Advance();
      item.is_star = true;
      return item;
    }
    if (Peek().type == TokenType::kIdentifier &&
        Peek(1).type == TokenType::kDot && Peek(2).type == TokenType::kStar) {
      item.is_star = true;
      item.star_qualifier = Advance().text;
      Advance();  // '.'
      Advance();  // '*'
      return item;
    }
    SM_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    if (ConsumeKeyword("AS")) {
      SM_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("column alias"));
    } else if (Peek().type == TokenType::kIdentifier) {
      item.alias = Advance().text;
    }
    return item;
  }

  Result<AstTableRef> ParseTableRef() {
    AstTableRef ref;
    if (ConsumeIf(TokenType::kLParen)) {
      SM_ASSIGN_OR_RETURN(ref.subquery, ParseBlob());
      SM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      ConsumeKeyword("AS");
      SM_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier("derived table alias"));
      return ref;
    }
    SM_ASSIGN_OR_RETURN(ref.table_name, ParseQualifiedName("table name"));
    if (ConsumeKeyword("AS")) {
      SM_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier("table alias"));
    } else if (Peek().type == TokenType::kIdentifier) {
      ref.alias = Advance().text;
    }
    return ref;
  }

  // -------------------------- Expressions ----------------------------------

  Result<AstExprPtr> ParseExpr() {
    DepthGuard guard(&depth_);
    SM_RETURN_IF_ERROR(Nest());
    return ParseOr();
  }

  Result<AstExprPtr> ParseOr() {
    SM_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseAnd());
    DepthGuard guard(&depth_);
    while (ConsumeKeyword("OR")) {
      SM_RETURN_IF_ERROR(Nest());
      SM_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseAnd());
      lhs = std::make_unique<AstBinary>(BinaryOp::kOr, std::move(lhs),
                                        std::move(rhs));
    }
    return lhs;
  }

  Result<AstExprPtr> ParseAnd() {
    SM_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseNot());
    DepthGuard guard(&depth_);
    while (ConsumeKeyword("AND")) {
      SM_RETURN_IF_ERROR(Nest());
      SM_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseNot());
      lhs = std::make_unique<AstBinary>(BinaryOp::kAnd, std::move(lhs),
                                        std::move(rhs));
    }
    return lhs;
  }

  Result<AstExprPtr> ParseNot() {
    if (ConsumeKeyword("NOT")) {
      DepthGuard guard(&depth_);
      SM_RETURN_IF_ERROR(Nest());
      SM_ASSIGN_OR_RETURN(AstExprPtr inner, ParseNot());
      return AstExprPtr(std::make_unique<AstUnary>(UnaryOp::kNot, std::move(inner)));
    }
    return ParsePredicate();
  }

  Result<AstExprPtr> ParsePredicate() {
    if (CheckKeyword("EXISTS")) {
      Advance();
      SM_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
      SM_ASSIGN_OR_RETURN(std::unique_ptr<AstBlob> sub, ParseBlob());
      SM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return AstExprPtr(std::make_unique<AstExists>(std::move(sub), false));
    }
    SM_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseAdditive());
    // Comparison operators.
    BinaryOp cmp;
    bool have_cmp = true;
    switch (Peek().type) {
      case TokenType::kEq:
        cmp = BinaryOp::kEq;
        break;
      case TokenType::kNeq:
        cmp = BinaryOp::kNeq;
        break;
      case TokenType::kLt:
        cmp = BinaryOp::kLt;
        break;
      case TokenType::kLtEq:
        cmp = BinaryOp::kLtEq;
        break;
      case TokenType::kGt:
        cmp = BinaryOp::kGt;
        break;
      case TokenType::kGtEq:
        cmp = BinaryOp::kGtEq;
        break;
      default:
        have_cmp = false;
        cmp = BinaryOp::kEq;
        break;
    }
    if (have_cmp) {
      Advance();
      SM_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseAdditive());
      return AstExprPtr(
          std::make_unique<AstBinary>(cmp, std::move(lhs), std::move(rhs)));
    }
    if (ConsumeKeyword("IS")) {
      bool negated = ConsumeKeyword("NOT");
      SM_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      return AstExprPtr(std::make_unique<AstIsNull>(std::move(lhs), negated));
    }
    bool negated = false;
    if (CheckKeyword("NOT") &&
        (Peek(1).IsKeyword("IN") || Peek(1).IsKeyword("BETWEEN") ||
         Peek(1).IsKeyword("LIKE"))) {
      Advance();
      negated = true;
    }
    if (ConsumeKeyword("IN")) {
      SM_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
      if (CheckKeyword("SELECT")) {
        SM_ASSIGN_OR_RETURN(std::unique_ptr<AstBlob> sub, ParseBlob());
        SM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        return AstExprPtr(std::make_unique<AstInSubquery>(std::move(lhs),
                                                          std::move(sub), negated));
      }
      std::vector<AstExprPtr> list;
      do {
        SM_ASSIGN_OR_RETURN(AstExprPtr e, ParseAdditive());
        list.push_back(std::move(e));
      } while (ConsumeIf(TokenType::kComma));
      SM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return AstExprPtr(
          std::make_unique<AstInList>(std::move(lhs), std::move(list), negated));
    }
    if (ConsumeKeyword("BETWEEN")) {
      SM_ASSIGN_OR_RETURN(AstExprPtr low, ParseAdditive());
      SM_RETURN_IF_ERROR(ExpectKeyword("AND"));
      SM_ASSIGN_OR_RETURN(AstExprPtr high, ParseAdditive());
      return AstExprPtr(std::make_unique<AstBetween>(
          std::move(lhs), std::move(low), std::move(high), negated));
    }
    if (ConsumeKeyword("LIKE")) {
      if (Peek().type != TokenType::kStringLiteral) {
        return Status::ParseError(
            StrCat("expected string pattern after LIKE at line ", Peek().line));
      }
      std::string pattern = Advance().text;
      return AstExprPtr(std::make_unique<AstLike>(std::move(lhs),
                                                  std::move(pattern), negated));
    }
    if (negated) {
      return Status::ParseError(
          StrCat("expected IN, BETWEEN or LIKE after NOT at line ", Peek().line));
    }
    return lhs;
  }

  Result<AstExprPtr> ParseAdditive() {
    SM_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseMultiplicative());
    DepthGuard guard(&depth_);
    while (true) {
      BinaryOp op;
      if (Peek().type == TokenType::kPlus) {
        op = BinaryOp::kAdd;
      } else if (Peek().type == TokenType::kMinus) {
        op = BinaryOp::kSub;
      } else {
        break;
      }
      Advance();
      SM_RETURN_IF_ERROR(Nest());
      SM_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseMultiplicative());
      lhs = std::make_unique<AstBinary>(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<AstExprPtr> ParseMultiplicative() {
    SM_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseUnary());
    DepthGuard guard(&depth_);
    while (true) {
      BinaryOp op;
      if (Peek().type == TokenType::kStar) {
        op = BinaryOp::kMul;
      } else if (Peek().type == TokenType::kSlash) {
        op = BinaryOp::kDiv;
      } else {
        break;
      }
      Advance();
      SM_RETURN_IF_ERROR(Nest());
      SM_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseUnary());
      lhs = std::make_unique<AstBinary>(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<AstExprPtr> ParseUnary() {
    const bool minus = Peek().type == TokenType::kMinus;
    if (!minus && Peek().type != TokenType::kPlus) return ParsePrimary();
    Advance();
    DepthGuard guard(&depth_);
    SM_RETURN_IF_ERROR(Nest());
    SM_ASSIGN_OR_RETURN(AstExprPtr inner, ParseUnary());
    if (!minus) return inner;
    return AstExprPtr(std::make_unique<AstUnary>(UnaryOp::kNeg, std::move(inner)));
  }

  Result<AstExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kIntLiteral:
        Advance();
        return AstExprPtr(std::make_unique<AstLiteral>(Value::Int(t.int_value)));
      case TokenType::kDoubleLiteral:
        Advance();
        return AstExprPtr(
            std::make_unique<AstLiteral>(Value::Double(t.double_value)));
      case TokenType::kStringLiteral:
        Advance();
        return AstExprPtr(std::make_unique<AstLiteral>(Value::String(t.text)));
      case TokenType::kKeyword: {
        if (t.text == "NULL") {
          Advance();
          return AstExprPtr(std::make_unique<AstLiteral>(Value::Null()));
        }
        if (t.text == "TRUE") {
          Advance();
          return AstExprPtr(std::make_unique<AstLiteral>(Value::Bool(true)));
        }
        if (t.text == "FALSE") {
          Advance();
          return AstExprPtr(std::make_unique<AstLiteral>(Value::Bool(false)));
        }
        if (t.text == "COUNT" || t.text == "SUM" || t.text == "AVG" ||
            t.text == "MIN" || t.text == "MAX") {
          return ParseAggregate();
        }
        break;
      }
      case TokenType::kIdentifier: {
        std::string first = Advance().text;
        if (ConsumeIf(TokenType::kDot)) {
          SM_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
          return AstExprPtr(
              std::make_unique<AstColumnRef>(std::move(first), std::move(col)));
        }
        return AstExprPtr(std::make_unique<AstColumnRef>("", std::move(first)));
      }
      case TokenType::kQuestion:
        Advance();
        return AstExprPtr(std::make_unique<AstParameter>(param_count_++));
      case TokenType::kLParen: {
        Advance();
        if (CheckKeyword("SELECT")) {
          SM_ASSIGN_OR_RETURN(std::unique_ptr<AstBlob> sub, ParseBlob());
          SM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
          return AstExprPtr(std::make_unique<AstScalarSubquery>(std::move(sub)));
        }
        SM_ASSIGN_OR_RETURN(AstExprPtr inner, ParseExpr());
        SM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        return inner;
      }
      default:
        break;
    }
    return Status::ParseError(
        StrCat("expected expression, got ", t.Describe(), " at line ", t.line));
  }

  Result<AstExprPtr> ParseAggregate() {
    std::string func_name = Advance().text;
    SM_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    if (func_name == "COUNT" && Peek().type == TokenType::kStar) {
      Advance();
      SM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return AstExprPtr(
          std::make_unique<AstAggregate>(AggFunc::kCountStar, false, nullptr));
    }
    bool distinct = ConsumeKeyword("DISTINCT");
    SM_ASSIGN_OR_RETURN(AstExprPtr arg, ParseExpr());
    SM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    AggFunc func;
    if (func_name == "COUNT") {
      func = AggFunc::kCount;
    } else if (func_name == "SUM") {
      func = AggFunc::kSum;
    } else if (func_name == "AVG") {
      func = AggFunc::kAvg;
    } else if (func_name == "MIN") {
      func = AggFunc::kMin;
    } else {
      func = AggFunc::kMax;
    }
    return AstExprPtr(
        std::make_unique<AstAggregate>(func, distinct, std::move(arg)));
  }

  const std::string& sql_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  /// Positional '?' parameters seen so far, assigned left to right.
  int param_count_ = 0;
  /// Current nesting depth (see kMaxParseDepth and Nest()).
  int depth_ = 0;
};

}  // namespace

Result<std::unique_ptr<AstStatement>> ParseStatement(const std::string& sql) {
  SM_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  Parser parser(sql, std::move(tokens));
  return parser.ParseSingleStatement();
}

Result<std::vector<std::unique_ptr<AstStatement>>> ParseScript(
    const std::string& sql) {
  SM_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  Parser parser(sql, std::move(tokens));
  return parser.ParseAll();
}

Result<std::unique_ptr<AstBlob>> ParseQuery(const std::string& sql) {
  SM_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  Parser parser(sql, std::move(tokens));
  return parser.ParseBareQuery();
}

}  // namespace starmagic

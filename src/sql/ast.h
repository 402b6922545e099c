#ifndef STARMAGIC_SQL_AST_H_
#define STARMAGIC_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/value.h"

namespace starmagic {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class AstExprKind {
  kLiteral,
  kColumnRef,
  kBinary,
  kUnary,
  kIsNull,
  kInList,
  kInSubquery,
  kExists,
  kScalarSubquery,
  kAggregate,
  kBetween,
  kLike,
  kParameter,  ///< positional '?' placeholder in a prepared statement
};

enum class BinaryOp {
  // Comparisons.
  kEq,
  kNeq,
  kLt,
  kLtEq,
  kGt,
  kGtEq,
  // Arithmetic.
  kAdd,
  kSub,
  kMul,
  kDiv,
  // Logic.
  kAnd,
  kOr,
};

enum class UnaryOp { kNeg, kNot };

enum class AggFunc { kCount, kCountStar, kSum, kAvg, kMin, kMax };

const char* BinaryOpSymbol(BinaryOp op);
const char* AggFuncName(AggFunc func);
/// True for the six comparison operators.
bool IsComparisonOp(BinaryOp op);

struct AstBlob;  // forward: subqueries embed blobs.

/// Base class for parsed expressions. Nodes own their children.
struct AstExpr {
  explicit AstExpr(AstExprKind k) : kind(k) {}
  virtual ~AstExpr() = default;

  AstExprKind kind;
  int position = 0;  ///< source offset for diagnostics

  virtual std::string ToString() const = 0;
};

using AstExprPtr = std::unique_ptr<AstExpr>;

struct AstLiteral : AstExpr {
  explicit AstLiteral(Value v) : AstExpr(AstExprKind::kLiteral), value(std::move(v)) {}
  Value value;
  std::string ToString() const override;
};

struct AstColumnRef : AstExpr {
  AstColumnRef(std::string q, std::string c)
      : AstExpr(AstExprKind::kColumnRef), qualifier(std::move(q)), column(std::move(c)) {}
  std::string qualifier;  ///< table alias, may be empty
  std::string column;
  std::string ToString() const override;
};

struct AstBinary : AstExpr {
  AstBinary(BinaryOp o, AstExprPtr l, AstExprPtr r)
      : AstExpr(AstExprKind::kBinary), op(o), lhs(std::move(l)), rhs(std::move(r)) {}
  BinaryOp op;
  AstExprPtr lhs;
  AstExprPtr rhs;
  std::string ToString() const override;
};

struct AstUnary : AstExpr {
  AstUnary(UnaryOp o, AstExprPtr e)
      : AstExpr(AstExprKind::kUnary), op(o), operand(std::move(e)) {}
  UnaryOp op;
  AstExprPtr operand;
  std::string ToString() const override;
};

struct AstIsNull : AstExpr {
  AstIsNull(AstExprPtr e, bool neg)
      : AstExpr(AstExprKind::kIsNull), operand(std::move(e)), negated(neg) {}
  AstExprPtr operand;
  bool negated;
  std::string ToString() const override;
};

struct AstInList : AstExpr {
  AstInList(AstExprPtr e, std::vector<AstExprPtr> l, bool neg)
      : AstExpr(AstExprKind::kInList), operand(std::move(e)), list(std::move(l)),
        negated(neg) {}
  AstExprPtr operand;
  std::vector<AstExprPtr> list;
  bool negated;
  std::string ToString() const override;
};

struct AstInSubquery : AstExpr {
  AstInSubquery(AstExprPtr e, std::unique_ptr<AstBlob> q, bool neg);
  ~AstInSubquery() override;
  AstExprPtr operand;
  std::unique_ptr<AstBlob> subquery;
  bool negated;
  std::string ToString() const override;
};

struct AstExists : AstExpr {
  AstExists(std::unique_ptr<AstBlob> q, bool neg);
  ~AstExists() override;
  std::unique_ptr<AstBlob> subquery;
  bool negated;
  std::string ToString() const override;
};

struct AstScalarSubquery : AstExpr {
  explicit AstScalarSubquery(std::unique_ptr<AstBlob> q);
  ~AstScalarSubquery() override;
  std::unique_ptr<AstBlob> subquery;
  std::string ToString() const override;
};

struct AstAggregate : AstExpr {
  AstAggregate(AggFunc f, bool d, AstExprPtr a)
      : AstExpr(AstExprKind::kAggregate), func(f), distinct(d), arg(std::move(a)) {}
  AggFunc func;
  bool distinct;
  AstExprPtr arg;  ///< null for COUNT(*)
  std::string ToString() const override;
};

struct AstBetween : AstExpr {
  AstBetween(AstExprPtr e, AstExprPtr lo, AstExprPtr hi, bool neg)
      : AstExpr(AstExprKind::kBetween), operand(std::move(e)), low(std::move(lo)),
        high(std::move(hi)), negated(neg) {}
  AstExprPtr operand;
  AstExprPtr low;
  AstExprPtr high;
  bool negated;
  std::string ToString() const override;
};

/// A positional `?` parameter. Indexes are assigned left to right within
/// one statement, starting at 0; ToString renders the 1-based spelling.
struct AstParameter : AstExpr {
  explicit AstParameter(int i) : AstExpr(AstExprKind::kParameter), index(i) {}
  int index;
  std::string ToString() const override;
};

struct AstLike : AstExpr {
  AstLike(AstExprPtr e, std::string p, bool neg)
      : AstExpr(AstExprKind::kLike), operand(std::move(e)), pattern(std::move(p)),
        negated(neg) {}
  AstExprPtr operand;
  std::string pattern;
  bool negated;
  std::string ToString() const override;
};

// ---------------------------------------------------------------------------
// Blocks and blobs (the paper's terminology, §2)
// ---------------------------------------------------------------------------

/// One SELECT output item; `is_star` for `*` / `t.*`.
struct AstSelectItem {
  AstExprPtr expr;  ///< null when is_star
  std::string alias;
  bool is_star = false;
  std::string star_qualifier;  ///< for `t.*`

  std::string ToString() const;
};

/// One FROM item: a named relation or a derived table (subquery).
struct AstTableRef {
  std::string table_name;  ///< empty for derived table
  std::string alias;       ///< empty = use table_name
  std::unique_ptr<AstBlob> subquery;  ///< non-null for derived table

  AstTableRef() = default;
  AstTableRef(AstTableRef&&) = default;
  AstTableRef& operator=(AstTableRef&&) = default;
  ~AstTableRef();

  std::string ToString() const;
  const std::string& EffectiveAlias() const {
    return alias.empty() ? table_name : alias;
  }
};

/// A single SELECT statement — the paper's "block".
struct AstBlock {
  bool distinct = false;
  std::vector<AstSelectItem> items;
  std::vector<AstTableRef> from;
  AstExprPtr where;
  std::vector<AstExprPtr> group_by;
  AstExprPtr having;

  std::string ToString() const;
};

enum class SetOp { kUnion, kUnionAll, kExcept, kIntersect };
const char* SetOpName(SetOp op);

struct AstOrderItem {
  AstExprPtr expr;
  bool ascending = true;
};

/// A union/except/intersect of blocks — the paper's "blob". A plain SELECT
/// is a blob with a single block.
struct AstBlob {
  std::unique_ptr<AstBlock> first;
  std::vector<std::pair<SetOp, std::unique_ptr<AstBlock>>> rest;
  std::vector<AstOrderItem> order_by;
  std::optional<int64_t> limit;

  std::string ToString() const;
  bool IsSingleBlock() const { return rest.empty(); }
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StatementKind {
  kSelect,
  kCreateTable,
  kCreateView,
  kCreateIndex,
  kInsert,
  kUpdate,
  kDelete,
  kDropTable,
  kDropView,
  kDropIndex,
  kAnalyze,
  kExplain,
  kPrepare,
  kExecute,
  kDeallocate,
};

struct AstStatement {
  explicit AstStatement(StatementKind k) : kind(k) {}
  virtual ~AstStatement() = default;
  StatementKind kind;
};

struct AstSelectStatement : AstStatement {
  AstSelectStatement() : AstStatement(StatementKind::kSelect) {}
  std::unique_ptr<AstBlob> blob;
};

struct AstCreateTable : AstStatement {
  AstCreateTable() : AstStatement(StatementKind::kCreateTable) {}
  std::string name;
  Schema schema;
};

struct AstCreateView : AstStatement {
  AstCreateView() : AstStatement(StatementKind::kCreateView) {}
  std::string name;
  bool recursive = false;
  std::vector<std::string> column_names;
  std::string body_sql;  ///< original text of the body (stored in catalog)
  std::unique_ptr<AstBlob> body;
};

/// CREATE INDEX name ON table (c1, c2, ...) [USING HASH|ORDERED].
/// The kind is a storage hint: HASH (default) serves equality probes,
/// ORDERED additionally serves prefix and range probes.
struct AstCreateIndex : AstStatement {
  AstCreateIndex() : AstStatement(StatementKind::kCreateIndex) {}
  std::string name;
  std::string table;
  std::vector<std::string> columns;
  bool ordered = false;
};

struct AstInsert : AstStatement {
  AstInsert() : AstStatement(StatementKind::kInsert) {}
  std::string table;
  std::vector<std::vector<Value>> rows;
};

struct AstUpdate : AstStatement {
  AstUpdate() : AstStatement(StatementKind::kUpdate) {}
  std::string table;
  /// Parallel lists: column names and their new-value expressions.
  std::vector<std::string> columns;
  std::vector<AstExprPtr> values;
  AstExprPtr where;  ///< may be null (update all rows)
};

struct AstDelete : AstStatement {
  AstDelete() : AstStatement(StatementKind::kDelete) {}
  std::string table;
  AstExprPtr where;  ///< may be null (delete all rows)
};

struct AstDrop : AstStatement {
  explicit AstDrop(StatementKind k) : AstStatement(k) {}
  std::string name;
};

struct AstAnalyze : AstStatement {
  AstAnalyze() : AstStatement(StatementKind::kAnalyze) {}
  std::string table;  ///< empty = all tables
};

/// EXPLAIN [ANALYZE] <query>: plan (and with ANALYZE, execute) the query
/// and return the annotated plan as the result instead of the query rows.
struct AstExplain : AstStatement {
  AstExplain() : AstStatement(StatementKind::kExplain) {}
  bool analyze = false;
  std::unique_ptr<AstBlob> query;
};

/// PREPARE name AS <select>: the body text is kept verbatim (like a view
/// definition) so the engine can key its plan cache on the original SQL.
struct AstPrepare : AstStatement {
  AstPrepare() : AstStatement(StatementKind::kPrepare) {}
  std::string name;
  std::string body_sql;  ///< original text of the body
  std::unique_ptr<AstBlob> body;
  int num_params = 0;  ///< count of '?' placeholders in the body
};

/// EXECUTE name [(literal, ...)]: arguments are literal values only.
struct AstExecute : AstStatement {
  AstExecute() : AstStatement(StatementKind::kExecute) {}
  std::string name;
  std::vector<Value> args;
};

struct AstDeallocate : AstStatement {
  AstDeallocate() : AstStatement(StatementKind::kDeallocate) {}
  std::string name;
};

}  // namespace starmagic

#endif  // STARMAGIC_SQL_AST_H_

#ifndef STARMAGIC_QGM_EXPR_H_
#define STARMAGIC_QGM_EXPR_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/value.h"
#include "sql/ast.h"  // reuse BinaryOp / UnaryOp / AggFunc enums

namespace starmagic {

/// Expression kinds inside QGM boxes. Subqueries never appear here — the
/// builder lowers them to quantifiers — so QGM expressions are flat trees
/// over quantifier columns.
enum class ExprKind {
  kLiteral,
  kColumnRef,  ///< column of a quantifier (identified by quantifier id)
  kBinary,
  kUnary,
  kIsNull,
  kLike,
  kAggregate,  ///< only in groupby-box output columns
  kParameter,  ///< unbound positional '?' of a prepared statement
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// A node in a QGM expression tree. One struct with a kind tag keeps
/// rewrite-rule pattern matching simple.
struct Expr {
  ExprKind kind;

  // kLiteral
  Value literal;

  // kColumnRef: the referenced quantifier's graph-wide id and the column
  // ordinal in that quantifier's input box output.
  int quantifier_id = -1;
  int column_index = -1;

  // kBinary / kUnary
  BinaryOp bin_op = BinaryOp::kEq;
  UnaryOp un_op = UnaryOp::kNot;

  // kIsNull / kLike
  bool negated = false;
  std::string like_pattern;

  // kAggregate
  AggFunc agg_func = AggFunc::kCount;
  bool agg_distinct = false;

  // kParameter: 0-based position of the '?' in the prepared statement.
  // Rewrite rules treat a parameter exactly like an opaque literal (it
  // references no quantifier); EXECUTE substitutes a kLiteral before the
  // plan runs, so the executor never sees one.
  int param_index = -1;

  std::vector<ExprPtr> children;

  // -- constructors ---------------------------------------------------------
  static ExprPtr MakeLiteral(Value v);
  static ExprPtr MakeColumnRef(int quantifier_id, int column_index);
  static ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeUnary(UnaryOp op, ExprPtr operand);
  static ExprPtr MakeIsNull(ExprPtr operand, bool negated);
  static ExprPtr MakeLike(ExprPtr operand, std::string pattern, bool negated);
  static ExprPtr MakeAggregate(AggFunc func, bool distinct, ExprPtr arg);
  static ExprPtr MakeParameter(int param_index);

  ExprPtr Clone() const;

  /// Collects the ids of all quantifiers referenced anywhere in the tree.
  void CollectQuantifiers(std::set<int>* out) const;
  std::set<int> ReferencedQuantifiers() const;

  /// True if some node references `quantifier_id`.
  bool References(int quantifier_id) const;

  /// Applies `fn` to every node (pre-order).
  void Visit(const std::function<void(const Expr&)>& fn) const;
  void VisitMutable(const std::function<void(Expr*)>& fn);

  /// Rewrites every column reference: fn(quantifier_id, column_index) returns
  /// the replacement (id, col). Used when merging boxes / copying boxes.
  void RemapColumns(
      const std::function<std::pair<int, int>(int, int)>& fn);

  /// Replaces every reference to quantifier `qid` column `col` with a clone
  /// of `replacement`; used by the merge rule to inline child outputs.
  /// Returns true if any replacement happened.
  bool SubstituteColumn(int qid, int col, const Expr& replacement);

  /// Structural equality (used to deduplicate predicates).
  static bool Equals(const Expr& a, const Expr& b);

  /// Contains any kAggregate node.
  bool ContainsAggregate() const;

  /// Rendering with a quantifier-naming callback (id -> display name).
  std::string ToString(
      const std::function<std::string(int, int)>& column_namer) const;
  /// Rendering with raw "q<id>.c<col>" names.
  std::string ToString() const;
};

/// Splits an expression into top-level AND conjuncts (consumes `expr`).
void SplitConjuncts(ExprPtr expr, std::vector<ExprPtr>* out);

/// AND-combines conjuncts into one expression (nullptr if empty).
ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts);

/// Lowers `operand IN (items)` (`NOT IN` when `negated`) to one
/// `operand = item` per item, OR-combined as a balanced tree in list order:
/// a list of n items nests about log2(n) deep instead of n, so long lists
/// cannot exhaust the stack in recursive passes. OR is associative in
/// three-valued logic and still evaluates left to right, so the answer and
/// the first error match a left-deep chain. `items` must be non-empty.
ExprPtr LowerInList(ExprPtr operand, std::vector<ExprPtr> items, bool negated);

/// If `e` is `<colref> op <expr-not-referencing-colref-quantifier>` or the
/// mirrored form, returns the colref side, op (normalized so the colref is
/// on the left), and the other side. Used by pushdown/adornment.
struct ColumnComparison {
  const Expr* column = nullptr;  ///< the kColumnRef node
  BinaryOp op = BinaryOp::kEq;   ///< normalized: column on the left
  const Expr* other = nullptr;   ///< the non-column side
};
bool MatchColumnComparison(const Expr& e, ColumnComparison* out);

/// Like MatchColumnComparison, but requires the column side to belong to
/// quantifier `qid` (tries both orientations).
bool MatchColumnComparisonFor(const Expr& e, int qid, ColumnComparison* out);

}  // namespace starmagic

#endif  // STARMAGIC_QGM_EXPR_H_

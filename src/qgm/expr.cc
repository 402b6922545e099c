#include "qgm/expr.h"

#include "common/string_util.h"

namespace starmagic {

ExprPtr Expr::MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::MakeColumnRef(int quantifier_id, int column_index) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->quantifier_id = quantifier_id;
  e->column_index = column_index;
  return e;
}

ExprPtr Expr::MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->bin_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr Expr::MakeUnary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->un_op = op;
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr Expr::MakeIsNull(ExprPtr operand, bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIsNull;
  e->negated = negated;
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr Expr::MakeLike(ExprPtr operand, std::string pattern, bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLike;
  e->like_pattern = std::move(pattern);
  e->negated = negated;
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr Expr::MakeAggregate(AggFunc func, bool distinct, ExprPtr arg) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kAggregate;
  e->agg_func = func;
  e->agg_distinct = distinct;
  if (arg) e->children.push_back(std::move(arg));
  return e;
}

ExprPtr Expr::MakeParameter(int param_index) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kParameter;
  e->param_index = param_index;
  return e;
}

ExprPtr Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->literal = literal;
  e->quantifier_id = quantifier_id;
  e->column_index = column_index;
  e->bin_op = bin_op;
  e->un_op = un_op;
  e->negated = negated;
  e->like_pattern = like_pattern;
  e->agg_func = agg_func;
  e->agg_distinct = agg_distinct;
  e->param_index = param_index;
  e->children.reserve(children.size());
  for (const ExprPtr& c : children) e->children.push_back(c->Clone());
  return e;
}

void Expr::CollectQuantifiers(std::set<int>* out) const {
  if (kind == ExprKind::kColumnRef) out->insert(quantifier_id);
  for (const ExprPtr& c : children) c->CollectQuantifiers(out);
}

std::set<int> Expr::ReferencedQuantifiers() const {
  std::set<int> out;
  CollectQuantifiers(&out);
  return out;
}

bool Expr::References(int qid) const {
  if (kind == ExprKind::kColumnRef && quantifier_id == qid) return true;
  for (const ExprPtr& c : children) {
    if (c->References(qid)) return true;
  }
  return false;
}

void Expr::Visit(const std::function<void(const Expr&)>& fn) const {
  fn(*this);
  for (const ExprPtr& c : children) c->Visit(fn);
}

void Expr::VisitMutable(const std::function<void(Expr*)>& fn) {
  fn(this);
  for (ExprPtr& c : children) c->VisitMutable(fn);
}

void Expr::RemapColumns(
    const std::function<std::pair<int, int>(int, int)>& fn) {
  VisitMutable([&fn](Expr* e) {
    if (e->kind == ExprKind::kColumnRef) {
      auto [qid, col] = fn(e->quantifier_id, e->column_index);
      e->quantifier_id = qid;
      e->column_index = col;
    }
  });
}

bool Expr::SubstituteColumn(int qid, int col, const Expr& replacement) {
  bool changed = false;
  if (kind == ExprKind::kColumnRef && quantifier_id == qid &&
      column_index == col) {
    ExprPtr repl = replacement.Clone();
    *this = std::move(*repl);
    return true;
  }
  for (ExprPtr& c : children) {
    if (c->SubstituteColumn(qid, col, replacement)) changed = true;
  }
  return changed;
}

bool Expr::Equals(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ExprKind::kLiteral:
      if (a.literal.kind() != b.literal.kind()) return false;
      if (!Value::EqualsGrouping(a.literal, b.literal)) return false;
      break;
    case ExprKind::kColumnRef:
      if (a.quantifier_id != b.quantifier_id ||
          a.column_index != b.column_index) {
        return false;
      }
      break;
    case ExprKind::kBinary:
      if (a.bin_op != b.bin_op) return false;
      break;
    case ExprKind::kUnary:
      if (a.un_op != b.un_op) return false;
      break;
    case ExprKind::kIsNull:
      if (a.negated != b.negated) return false;
      break;
    case ExprKind::kLike:
      if (a.negated != b.negated || a.like_pattern != b.like_pattern) {
        return false;
      }
      break;
    case ExprKind::kAggregate:
      if (a.agg_func != b.agg_func || a.agg_distinct != b.agg_distinct) {
        return false;
      }
      break;
    case ExprKind::kParameter:
      if (a.param_index != b.param_index) return false;
      break;
  }
  if (a.children.size() != b.children.size()) return false;
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!Equals(*a.children[i], *b.children[i])) return false;
  }
  return true;
}

bool Expr::ContainsAggregate() const {
  if (kind == ExprKind::kAggregate) return true;
  for (const ExprPtr& c : children) {
    if (c->ContainsAggregate()) return true;
  }
  return false;
}

std::string Expr::ToString(
    const std::function<std::string(int, int)>& column_namer) const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.ToString();
    case ExprKind::kColumnRef:
      return column_namer(quantifier_id, column_index);
    case ExprKind::kBinary: {
      std::string lhs = children[0]->ToString(column_namer);
      std::string rhs = children[1]->ToString(column_namer);
      if (bin_op == BinaryOp::kAnd || bin_op == BinaryOp::kOr) {
        return StrCat("(", lhs, " ", BinaryOpSymbol(bin_op), " ", rhs, ")");
      }
      return StrCat(lhs, " ", BinaryOpSymbol(bin_op), " ", rhs);
    }
    case ExprKind::kUnary:
      return un_op == UnaryOp::kNeg
                 ? StrCat("-", children[0]->ToString(column_namer))
                 : StrCat("NOT (", children[0]->ToString(column_namer), ")");
    case ExprKind::kIsNull:
      return StrCat(children[0]->ToString(column_namer),
                    negated ? " IS NOT NULL" : " IS NULL");
    case ExprKind::kLike:
      return StrCat(children[0]->ToString(column_namer),
                    negated ? " NOT LIKE '" : " LIKE '", like_pattern, "'");
    case ExprKind::kAggregate:
      if (agg_func == AggFunc::kCountStar) return "COUNT(*)";
      return StrCat(AggFuncName(agg_func), "(", agg_distinct ? "DISTINCT " : "",
                    children[0]->ToString(column_namer), ")");
    case ExprKind::kParameter:
      return StrCat("?", param_index + 1);
  }
  return "?";
}

std::string Expr::ToString() const {
  return ToString([](int qid, int col) {
    return StrCat("q", qid, ".c", col);
  });
}

void SplitConjuncts(ExprPtr expr, std::vector<ExprPtr>* out) {
  if (expr == nullptr) return;
  if (expr->kind == ExprKind::kBinary && expr->bin_op == BinaryOp::kAnd) {
    SplitConjuncts(std::move(expr->children[0]), out);
    SplitConjuncts(std::move(expr->children[1]), out);
    return;
  }
  out->push_back(std::move(expr));
}

ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts) {
  ExprPtr result;
  for (ExprPtr& c : conjuncts) {
    if (!result) {
      result = std::move(c);
    } else {
      result = Expr::MakeBinary(BinaryOp::kAnd, std::move(result), std::move(c));
    }
  }
  return result;
}

namespace {

// OR of `operand = items[i]` for i in [lo, hi), split at the midpoint.
ExprPtr BalancedInDisjunction(const Expr& operand,
                              std::vector<ExprPtr>* items, size_t lo,
                              size_t hi) {
  if (hi - lo == 1) {
    return Expr::MakeBinary(BinaryOp::kEq, operand.Clone(),
                            std::move((*items)[lo]));
  }
  size_t mid = lo + (hi - lo) / 2;
  return Expr::MakeBinary(BinaryOp::kOr,
                          BalancedInDisjunction(operand, items, lo, mid),
                          BalancedInDisjunction(operand, items, mid, hi));
}

}  // namespace

ExprPtr LowerInList(ExprPtr operand, std::vector<ExprPtr> items,
                    bool negated) {
  ExprPtr disjunction =
      BalancedInDisjunction(*operand, &items, 0, items.size());
  if (negated) {
    disjunction = Expr::MakeUnary(UnaryOp::kNot, std::move(disjunction));
  }
  return disjunction;
}

BinaryOp MirrorOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLtEq:
      return BinaryOp::kGtEq;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGtEq:
      return BinaryOp::kLtEq;
    default:
      return op;  // = and <> are symmetric
  }
}

bool MatchColumnComparison(const Expr& e, ColumnComparison* out) {
  if (e.kind != ExprKind::kBinary || !IsComparisonOp(e.bin_op)) return false;
  const Expr* lhs = e.children[0].get();
  const Expr* rhs = e.children[1].get();
  if (lhs->kind == ExprKind::kColumnRef &&
      !rhs->References(lhs->quantifier_id)) {
    out->column = lhs;
    out->op = e.bin_op;
    out->other = rhs;
    return true;
  }
  if (rhs->kind == ExprKind::kColumnRef &&
      !lhs->References(rhs->quantifier_id)) {
    out->column = rhs;
    out->op = MirrorOp(e.bin_op);
    out->other = lhs;
    return true;
  }
  return false;
}

bool MatchColumnComparisonFor(const Expr& e, int qid, ColumnComparison* out) {
  if (e.kind != ExprKind::kBinary || !IsComparisonOp(e.bin_op)) return false;
  const Expr* lhs = e.children[0].get();
  const Expr* rhs = e.children[1].get();
  if (lhs->kind == ExprKind::kColumnRef && lhs->quantifier_id == qid &&
      !rhs->References(qid)) {
    out->column = lhs;
    out->op = e.bin_op;
    out->other = rhs;
    return true;
  }
  if (rhs->kind == ExprKind::kColumnRef && rhs->quantifier_id == qid &&
      !lhs->References(qid)) {
    out->column = rhs;
    out->op = MirrorOp(e.bin_op);
    out->other = lhs;
    return true;
  }
  return false;
}

}  // namespace starmagic

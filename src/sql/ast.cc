#include "sql/ast.h"

#include "common/string_util.h"

namespace starmagic {

const char* BinaryOpSymbol(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNeq:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLtEq:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGtEq:
      return ">=";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
    case AggFunc::kCountStar:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "?";
}

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNeq:
    case BinaryOp::kLt:
    case BinaryOp::kLtEq:
    case BinaryOp::kGt:
    case BinaryOp::kGtEq:
      return true;
    default:
      return false;
  }
}

const char* SetOpName(SetOp op) {
  switch (op) {
    case SetOp::kUnion:
      return "UNION";
    case SetOp::kUnionAll:
      return "UNION ALL";
    case SetOp::kExcept:
      return "EXCEPT";
    case SetOp::kIntersect:
      return "INTERSECT";
  }
  return "?";
}

// ------------------------------- ToString ----------------------------------

std::string AstLiteral::ToString() const { return value.ToString(); }

std::string AstColumnRef::ToString() const {
  return qualifier.empty() ? column : StrCat(qualifier, ".", column);
}

std::string AstBinary::ToString() const {
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    return StrCat("(", lhs->ToString(), " ", BinaryOpSymbol(op), " ",
                  rhs->ToString(), ")");
  }
  return StrCat(lhs->ToString(), " ", BinaryOpSymbol(op), " ", rhs->ToString());
}

std::string AstUnary::ToString() const {
  return op == UnaryOp::kNeg ? StrCat("-", operand->ToString())
                             : StrCat("NOT (", operand->ToString(), ")");
}

std::string AstIsNull::ToString() const {
  return StrCat(operand->ToString(), negated ? " IS NOT NULL" : " IS NULL");
}

std::string AstInList::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(list.size());
  for (const auto& e : list) parts.push_back(e->ToString());
  return StrCat(operand->ToString(), negated ? " NOT IN (" : " IN (",
                Join(parts, ", "), ")");
}

AstInSubquery::AstInSubquery(AstExprPtr e, std::unique_ptr<AstBlob> q, bool neg)
    : AstExpr(AstExprKind::kInSubquery), operand(std::move(e)),
      subquery(std::move(q)), negated(neg) {}
AstInSubquery::~AstInSubquery() = default;
std::string AstInSubquery::ToString() const {
  return StrCat(operand->ToString(), negated ? " NOT IN (" : " IN (",
                subquery->ToString(), ")");
}

AstExists::AstExists(std::unique_ptr<AstBlob> q, bool neg)
    : AstExpr(AstExprKind::kExists), subquery(std::move(q)), negated(neg) {}
AstExists::~AstExists() = default;
std::string AstExists::ToString() const {
  return StrCat(negated ? "NOT EXISTS (" : "EXISTS (", subquery->ToString(), ")");
}

AstScalarSubquery::AstScalarSubquery(std::unique_ptr<AstBlob> q)
    : AstExpr(AstExprKind::kScalarSubquery), subquery(std::move(q)) {}
AstScalarSubquery::~AstScalarSubquery() = default;
std::string AstScalarSubquery::ToString() const {
  return StrCat("(", subquery->ToString(), ")");
}

std::string AstAggregate::ToString() const {
  if (func == AggFunc::kCountStar) return "COUNT(*)";
  return StrCat(AggFuncName(func), "(", distinct ? "DISTINCT " : "",
                arg->ToString(), ")");
}

std::string AstBetween::ToString() const {
  return StrCat(operand->ToString(), negated ? " NOT BETWEEN " : " BETWEEN ",
                low->ToString(), " AND ", high->ToString());
}

std::string AstParameter::ToString() const { return "?"; }

std::string AstLike::ToString() const {
  return StrCat(operand->ToString(), negated ? " NOT LIKE '" : " LIKE '",
                pattern, "'");
}

std::string AstSelectItem::ToString() const {
  if (is_star) {
    return star_qualifier.empty() ? "*" : StrCat(star_qualifier, ".*");
  }
  return alias.empty() ? expr->ToString()
                       : StrCat(expr->ToString(), " AS ", alias);
}

AstTableRef::~AstTableRef() = default;
std::string AstTableRef::ToString() const {
  std::string base = subquery ? StrCat("(", subquery->ToString(), ")")
                              : table_name;
  return alias.empty() ? base : StrCat(base, " ", alias);
}

std::string AstBlock::ToString() const {
  std::vector<std::string> sel;
  sel.reserve(items.size());
  for (const auto& item : items) sel.push_back(item.ToString());
  std::string out = StrCat("SELECT ", distinct ? "DISTINCT " : "",
                           Join(sel, ", "));
  if (!from.empty()) {
    std::vector<std::string> refs;
    refs.reserve(from.size());
    for (const auto& ref : from) refs.push_back(ref.ToString());
    out += StrCat(" FROM ", Join(refs, ", "));
  }
  if (where) out += StrCat(" WHERE ", where->ToString());
  if (!group_by.empty()) {
    std::vector<std::string> keys;
    keys.reserve(group_by.size());
    for (const auto& e : group_by) keys.push_back(e->ToString());
    out += StrCat(" GROUP BY ", Join(keys, ", "));
  }
  if (having) out += StrCat(" HAVING ", having->ToString());
  return out;
}

std::string AstBlob::ToString() const {
  std::string out = first->ToString();
  for (const auto& [op, block] : rest) {
    out += StrCat(" ", SetOpName(op), " ", block->ToString());
  }
  for (size_t i = 0; i < order_by.size(); ++i) {
    out += i == 0 ? " ORDER BY " : ", ";
    out += order_by[i].expr->ToString();
    if (!order_by[i].ascending) out += " DESC";
  }
  if (limit.has_value()) out += StrCat(" LIMIT ", *limit);
  return out;
}

}  // namespace starmagic

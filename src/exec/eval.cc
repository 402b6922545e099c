#include "exec/eval.h"

#include "common/string_util.h"

namespace starmagic {

namespace {

Value TriToValue(TriBool t) {
  switch (t) {
    case TriBool::kTrue:
      return Value::Bool(true);
    case TriBool::kFalse:
      return Value::Bool(false);
    case TriBool::kUnknown:
      return Value::Null();
  }
  return Value::Null();
}

Result<TriBool> ValueToTri(const Value& v) {
  if (v.is_null()) return TriBool::kUnknown;
  if (v.kind() == ValueKind::kBool) {
    return v.bool_value() ? TriBool::kTrue : TriBool::kFalse;
  }
  return Status::ExecutionError(
      StrCat("predicate evaluated to non-boolean ", v.ToString()));
}

// The value a column reference reads, or the error naming why there is
// none.
Result<const Value*> ColumnValue(const Expr& expr, const RowEnv& env) {
  const Row* row = env.Lookup(expr.quantifier_id);
  if (row == nullptr) {
    return Status::ExecutionError(StrCat(
        "unbound quantifier q", expr.quantifier_id, " in expression"));
  }
  if (expr.column_index < 0 ||
      expr.column_index >= static_cast<int>(row->size())) {
    return Status::ExecutionError(StrCat("column ", expr.column_index,
                                         " out of range for q",
                                         expr.quantifier_id));
  }
  return &(*row)[static_cast<size_t>(expr.column_index)];
}

bool IsComparison(BinaryOp op) {
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

// `l op r` for a comparison operator. Two INTEGERs compare inline; every
// other pair goes through the Value comparisons, with > and >= swapped
// into < and <= so that an error names the operand kinds in that order.
Result<TriBool> Compare(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return TriBool::kUnknown;
  if (l.kind() == ValueKind::kInt && r.kind() == ValueKind::kInt) {
    const int64_t a = l.int_value(), b = r.int_value();
    bool holds = false;
    switch (op) {
      case BinaryOp::kEq:
        holds = a == b;
        break;
      case BinaryOp::kNeq:
        holds = a != b;
        break;
      case BinaryOp::kLt:
        holds = a < b;
        break;
      case BinaryOp::kLtEq:
        holds = a <= b;
        break;
      case BinaryOp::kGt:
        holds = a > b;
        break;
      case BinaryOp::kGtEq:
        holds = a >= b;
        break;
      default:
        return Status::Internal("unhandled binary operator");
    }
    return holds ? TriBool::kTrue : TriBool::kFalse;
  }
  switch (op) {
    case BinaryOp::kEq:
      return Value::SqlEquals(l, r);
    case BinaryOp::kNeq: {
      SM_ASSIGN_OR_RETURN(TriBool t, Value::SqlEquals(l, r));
      return TriNot(t);
    }
    case BinaryOp::kLt:
      return Value::SqlLess(l, r);
    case BinaryOp::kLtEq:
      return Value::SqlLessEquals(l, r);
    case BinaryOp::kGt:
      return Value::SqlLess(r, l);
    case BinaryOp::kGtEq:
      return Value::SqlLessEquals(r, l);
    default:
      return Status::Internal("unhandled binary operator");
  }
}

}  // namespace

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative two-pointer match with backtracking on the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

namespace internal {

Result<const Value*> EvalRefComputed(const Expr& expr, const RowEnv& env,
                                     Value* scratch) {
  // A column reference reaching here is unbound or out of range.
  if (expr.kind == ExprKind::kColumnRef) return ColumnValue(expr, env);
  SM_ASSIGN_OR_RETURN(*scratch, EvalScalar(expr, env));
  return scratch;
}

}  // namespace internal

Result<Value> EvalScalar(const Expr& expr, const RowEnv& env) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumnRef: {
      if (const Value* v = env.Column(expr.quantifier_id, expr.column_index)) {
        return *v;
      }
      SM_ASSIGN_OR_RETURN(const Value* v, ColumnValue(expr, env));
      return *v;
    }
    case ExprKind::kBinary: {
      if (expr.bin_op == BinaryOp::kAnd || expr.bin_op == BinaryOp::kOr ||
          IsComparison(expr.bin_op)) {
        break;  // boolean-valued: evaluated as a predicate below
      }
      Value ls, rs;
      SM_ASSIGN_OR_RETURN(const Value* l, EvalRef(*expr.children[0], env, &ls));
      SM_ASSIGN_OR_RETURN(const Value* r, EvalRef(*expr.children[1], env, &rs));
      switch (expr.bin_op) {
        case BinaryOp::kAdd:
          return Value::Add(*l, *r);
        case BinaryOp::kSub:
          return Value::Subtract(*l, *r);
        case BinaryOp::kMul:
          return Value::Multiply(*l, *r);
        case BinaryOp::kDiv:
          return Value::Divide(*l, *r);
        default:
          return Status::Internal("unhandled binary operator");
      }
    }
    case ExprKind::kUnary: {
      if (expr.un_op == UnaryOp::kNeg) {
        Value scratch;
        SM_ASSIGN_OR_RETURN(const Value* v,
                            EvalRef(*expr.children[0], env, &scratch));
        return Value::Negate(*v);
      }
      break;  // NOT: evaluated as a predicate below
    }
    case ExprKind::kIsNull:
    case ExprKind::kLike:
      break;  // boolean-valued: evaluated as a predicate below
    case ExprKind::kAggregate:
      return Status::Internal(
          "aggregate expression evaluated outside a groupby box");
    case ExprKind::kParameter:
      // EXECUTE substitutes every parameter with a literal before the plan
      // reaches the executor; hitting one here means the binding pass was
      // skipped (or a bare '?' query was run without PREPARE).
      return Status::ExecutionError(
          StrCat("unbound parameter ?", expr.param_index + 1));
    default:
      return Status::Internal("unhandled expression kind");
  }
  SM_ASSIGN_OR_RETURN(TriBool t, EvalPredicate(expr, env));
  return TriToValue(t);
}

Result<TriBool> EvalPredicate(const Expr& expr, const RowEnv& env) {
  switch (expr.kind) {
    case ExprKind::kBinary: {
      if (expr.bin_op == BinaryOp::kAnd || expr.bin_op == BinaryOp::kOr) {
        SM_ASSIGN_OR_RETURN(TriBool a, EvalPredicate(*expr.children[0], env));
        // Short circuit where the result is decided.
        if (expr.bin_op == BinaryOp::kAnd && a == TriBool::kFalse) {
          return TriBool::kFalse;
        }
        if (expr.bin_op == BinaryOp::kOr && a == TriBool::kTrue) {
          return TriBool::kTrue;
        }
        SM_ASSIGN_OR_RETURN(TriBool b, EvalPredicate(*expr.children[1], env));
        return expr.bin_op == BinaryOp::kAnd ? TriAnd(a, b) : TriOr(a, b);
      }
      if (!IsComparison(expr.bin_op)) break;  // arithmetic: not boolean
      Value ls, rs;
      SM_ASSIGN_OR_RETURN(const Value* l, EvalRef(*expr.children[0], env, &ls));
      SM_ASSIGN_OR_RETURN(const Value* r, EvalRef(*expr.children[1], env, &rs));
      return Compare(expr.bin_op, *l, *r);
    }
    case ExprKind::kUnary: {
      if (expr.un_op != UnaryOp::kNot) break;  // negation: not boolean
      SM_ASSIGN_OR_RETURN(TriBool t, EvalPredicate(*expr.children[0], env));
      return TriNot(t);
    }
    case ExprKind::kIsNull: {
      Value scratch;
      SM_ASSIGN_OR_RETURN(const Value* v,
                          EvalRef(*expr.children[0], env, &scratch));
      const bool holds = expr.negated ? !v->is_null() : v->is_null();
      return holds ? TriBool::kTrue : TriBool::kFalse;
    }
    case ExprKind::kLike: {
      Value scratch;
      SM_ASSIGN_OR_RETURN(const Value* v,
                          EvalRef(*expr.children[0], env, &scratch));
      if (v->is_null()) return TriBool::kUnknown;
      if (v->kind() != ValueKind::kString) {
        return Status::ExecutionError("LIKE requires a string operand");
      }
      const bool m = LikeMatch(v->string_value(), expr.like_pattern);
      return (expr.negated ? !m : m) ? TriBool::kTrue : TriBool::kFalse;
    }
    case ExprKind::kColumnRef:
    case ExprKind::kLiteral: {
      Value scratch;
      SM_ASSIGN_OR_RETURN(const Value* v, EvalRef(expr, env, &scratch));
      return ValueToTri(*v);
    }
    default:
      break;
  }
  SM_ASSIGN_OR_RETURN(Value v, EvalScalar(expr, env));
  return ValueToTri(v);
}

}  // namespace starmagic

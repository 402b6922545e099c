#ifndef STARMAGIC_EXEC_EVAL_H_
#define STARMAGIC_EXEC_EVAL_H_

#include <vector>

#include "common/row.h"
#include "common/status.h"
#include "qgm/expr.h"

namespace starmagic {

/// Binding environment for expression evaluation: the current row of each
/// quantifier, in a flat slot array indexed by quantifier id, so a column
/// reference reads its row in O(1). Quantifier ids are unique within a
/// graph, so one array holds the bindings of a box and of every box
/// enclosing it. A box evaluated under correlation starts from a copy of
/// its caller's environment and binds its own quantifiers on top; a
/// rebinding in the copy shadows the caller's row without touching it.
class RowEnv {
 public:
  RowEnv() = default;
  /// Pre-sizes the array for quantifier ids below `num_slots`, so binding
  /// them never grows it.
  explicit RowEnv(int num_slots)
      : slots_(static_cast<size_t>(num_slots), nullptr) {}

  void Bind(int quantifier_id, const Row* row) {
    const size_t slot = static_cast<size_t>(quantifier_id);
    if (slot >= slots_.size()) slots_.resize(slot + 1, nullptr);
    slots_[slot] = row;
  }
  void Unbind(int quantifier_id) {
    const size_t slot = static_cast<size_t>(quantifier_id);
    if (slot < slots_.size()) slots_[slot] = nullptr;
  }

  /// The bound row for `quantifier_id`, or nullptr.
  const Row* Lookup(int quantifier_id) const {
    const size_t slot = static_cast<size_t>(quantifier_id);
    return quantifier_id >= 0 && slot < slots_.size() ? slots_[slot]
                                                      : nullptr;
  }

  /// Column `column` of the row bound to `quantifier_id`, or nullptr when
  /// no row is bound or the column is out of range.
  const Value* Column(int quantifier_id, int column) const {
    const Row* row = Lookup(quantifier_id);
    if (row == nullptr || column < 0 ||
        static_cast<size_t>(column) >= row->size()) {
      return nullptr;
    }
    return &(*row)[static_cast<size_t>(column)];
  }

 private:
  std::vector<const Row*> slots_;
};

/// Evaluates an expression to a value. Comparisons yield BOOLEAN or NULL
/// (three-valued logic); unresolvable column references are errors.
Result<Value> EvalScalar(const Expr& expr, const RowEnv& env);

namespace internal {
/// EvalRef for everything but a bound column or a literal.
Result<const Value*> EvalRefComputed(const Expr& expr, const RowEnv& env,
                                     Value* scratch);
}  // namespace internal

/// Evaluates an expression without copying what it reads: a column
/// reference yields the bound row's value and a literal the literal
/// itself; any other expression is computed into `*scratch`, which is
/// returned. The pointer is valid while the binding and `*scratch` are.
/// Inline, because join keys, projections and comparisons call it once
/// per operand per row.
inline Result<const Value*> EvalRef(const Expr& expr, const RowEnv& env,
                                    Value* scratch) {
  if (expr.kind == ExprKind::kColumnRef) {
    if (const Value* v = env.Column(expr.quantifier_id, expr.column_index)) {
      return v;
    }
  } else if (expr.kind == ExprKind::kLiteral) {
    return &expr.literal;
  }
  return internal::EvalRefComputed(expr, env, scratch);
}

/// Evaluates a predicate to a TriBool (rows qualify only on kTrue).
/// Comparisons, AND/OR/NOT, IS NULL and LIKE yield their TriBool directly;
/// any other expression must evaluate to a BOOLEAN or NULL.
Result<TriBool> EvalPredicate(const Expr& expr, const RowEnv& env);

/// SQL LIKE matching ('%' = any sequence, '_' = any single character).
bool LikeMatch(const std::string& text, const std::string& pattern);

}  // namespace starmagic

#endif  // STARMAGIC_EXEC_EVAL_H_

#ifndef STARMAGIC_EXEC_SELECT_PLAN_H_
#define STARMAGIC_EXEC_SELECT_PLAN_H_

#include <functional>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "qgm/graph.h"

namespace starmagic {

/// A select box lowered for execution: everything ComputeSelect decides
/// from the box's shape and the catalog's indexes rather than from the
/// rows, worked out once per Executor and reused by every evaluation of
/// the box (each correlated binding, each fixpoint round).
///
/// Expressions stay the box's own QGM expressions. A column reference
/// reads the binding slot of its quantifier id in RowEnv, so lowering
/// resolves every slot without rewriting an expression.
struct SelectPlan {
  /// How a step may read a stored table through a secondary index. It is
  /// taken at run time only while the bound side is no larger than the
  /// table; otherwise the step falls back to its hash or nested-loop form.
  enum class IndexAccess { kNone, kEquality, kRange };

  /// One ForEach quantifier of the join order.
  struct Step {
    Quantifier* q = nullptr;
    /// Non-OK when the join order binds `q` before a quantifier of this
    /// box that its input is correlated with; returned when the step runs.
    Status order_error;
    /// The input references earlier quantifiers of this box: evaluate it
    /// once per combination (correlated nested loop).
    bool correlated = false;
    /// Predicates whose own-box quantifiers are all bound once `q` is,
    /// in box order.
    std::vector<const Expr*> filters;
    /// The hashable equalities among `filters`, each `hash_columns[i]` (a
    /// column of `q`) = `hash_keys[i]` (an expression over what is already
    /// bound), from the conjunct `hash_conjuncts[i]`; and the rest.
    std::vector<int> hash_columns;
    std::vector<const Expr*> hash_keys;
    std::vector<const Expr*> hash_conjuncts;
    std::vector<const Expr*> residual;

    IndexAccess index_access = IndexAccess::kNone;
    const SecondaryIndex* index = nullptr;
    /// kEquality: the expression driving each index key column, and the
    /// filters the probe does not cover (residual + uncovered equalities).
    std::vector<const Expr*> index_keys;
    std::vector<const Expr*> index_residual;
    /// kRange: the bound's expression and direction; the probed conjunct
    /// stays in `residual`, so the index only narrows the scan.
    const Expr* range_bound = nullptr;
    bool range_upper = false;
    bool range_inclusive = false;
  };

  /// An E or A quantifier with the predicates that reference it.
  struct Quantified {
    Quantifier* q;
    std::vector<const Expr*> preds;
  };

  /// Scalar quantifiers whose input does not depend on this box's
  /// quantifiers: evaluated once per box evaluation, before the joins.
  std::vector<Quantifier*> hoisted_scalars;
  /// Scalar quantifiers evaluated once per combination.
  std::vector<Quantifier*> per_row_scalars;
  std::vector<Step> steps;
  std::vector<Quantified> quantified;
  /// Predicates no join step applies (over per-row scalars, or in a box
  /// without ForEach quantifiers), checked per combination in box order.
  std::vector<const Expr*> final_filters;
};

/// The correlation signature of a box (qgm ExternalRefs).
using ExternalRefsFn = std::function<const ColumnRefs&(Box*)>;

/// Lowers `box` (a select box). Index access paths are resolved against
/// `catalog` when `use_secondary_indexes` is set.
SelectPlan LowerSelect(Box* box, const Catalog* catalog,
                       bool use_secondary_indexes,
                       const ExternalRefsFn& external_refs);

}  // namespace starmagic

#endif  // STARMAGIC_EXEC_SELECT_PLAN_H_

#include "exec/select_plan.h"

#include <set>

#include "common/string_util.h"
#include "sys/system_tables.h"

namespace starmagic {

namespace {

// Resolves the secondary-index access of `step` over the stored table
// `table_name`: an equality index covering some of the hashable
// equalities, or else an ordered index under the first range comparison
// whose other side is already bound.
void ResolveIndexAccess(SelectPlan::Step* step, const std::string& table_name,
                        const Catalog* catalog,
                        const std::set<int>& own_qids,
                        const std::set<int>& seen) {
  if (!step->hash_columns.empty()) {
    std::optional<IndexMatch> match =
        catalog->FindEqualityIndex(table_name, step->hash_columns);
    if (!match.has_value()) return;
    // Pair each index key column with the expression driving it; equality
    // conjuncts the index does not cover stay residual.
    const size_t n = step->hash_columns.size();
    std::vector<bool> used(n, false);
    for (int col : match->key_columns) {
      for (size_t i = 0; i < n; ++i) {
        if (!used[i] && step->hash_columns[i] == col) {
          used[i] = true;
          step->index_keys.push_back(step->hash_keys[i]);
          break;
        }
      }
    }
    step->index_residual = step->residual;
    for (size_t i = 0; i < n; ++i) {
      if (!used[i]) step->index_residual.push_back(step->hash_conjuncts[i]);
    }
    step->index_access = SelectPlan::IndexAccess::kEquality;
    step->index = match->index;
    return;
  }
  // Range probe through an ordered index (condition-magic shapes: a
  // c-adorned restriction like t.c < <bound>).
  const int qid = step->q->id;
  for (const Expr* f : step->residual) {
    ColumnComparison cc;
    if (!MatchColumnComparisonFor(*f, qid, &cc)) continue;
    if (!IsRangeOp(cc.op)) continue;
    bool available = true;
    for (int rid : cc.other->ReferencedQuantifiers()) {
      if (rid == qid || (own_qids.count(rid) && !seen.count(rid))) {
        available = false;
        break;
      }
    }
    if (!available) continue;
    const SecondaryIndex* ordered =
        catalog->FindOrderedIndexOn(table_name, cc.column->column_index);
    if (ordered == nullptr) return;
    step->index_access = SelectPlan::IndexAccess::kRange;
    step->index = ordered;
    step->range_bound = cc.other;
    step->range_upper = cc.op == BinaryOp::kLt || cc.op == BinaryOp::kLtEq;
    step->range_inclusive =
        cc.op == BinaryOp::kLtEq || cc.op == BinaryOp::kGtEq;
    return;
  }
}

}  // namespace

SelectPlan LowerSelect(Box* box, const Catalog* catalog,
                       bool use_secondary_indexes,
                       const ExternalRefsFn& external_refs) {
  SelectPlan plan;
  std::set<int> own_qids;
  std::set<int> ea_ids;
  std::vector<Quantifier*> scalar_qs;
  for (const auto& q : box->quantifiers()) {
    own_qids.insert(q->id);
    if (q->type == QuantifierType::kExistential ||
        q->type == QuantifierType::kAll) {
      ea_ids.insert(q->id);
      plan.quantified.push_back({q.get(), {}});
    } else if (q->type == QuantifierType::kScalar) {
      scalar_qs.push_back(q.get());
    }
  }

  // Predicate schedule: a predicate is handled in the E/A phase when it
  // references an E/A quantifier; otherwise it fires at the first join
  // step after which every box quantifier it references is bound.
  struct PredState {
    const Expr* expr;
    bool applied = false;
    bool ea_phase = false;
    std::set<int> own_refs;
  };
  std::vector<PredState> preds;
  for (const ExprPtr& p : box->predicates()) {
    PredState st;
    st.expr = p.get();
    for (int rid : p->ReferencedQuantifiers()) {
      if (own_qids.count(rid)) st.own_refs.insert(rid);
      if (ea_ids.count(rid)) st.ea_phase = true;
    }
    preds.push_back(std::move(st));
  }
  for (SelectPlan::Quantified& eq : plan.quantified) {
    for (const PredState& st : preds) {
      if (st.ea_phase && st.expr->References(eq.q->id)) {
        eq.preds.push_back(st.expr);
      }
    }
  }

  std::set<int> seen;  // bound quantifier ids available to predicates
  // Scalar subqueries that do not depend on this box's quantifiers have a
  // value fixed for the whole evaluation (grounded condition bounds from
  // magic, uncorrelated scalar comparisons), so predicates over them can
  // filter during the joins.
  for (Quantifier* q : scalar_qs) {
    bool depends_on_box = false;
    for (const auto& [rid, col] : external_refs(q->input)) {
      if (own_qids.count(rid)) {
        depends_on_box = true;
        break;
      }
    }
    if (depends_on_box) {
      plan.per_row_scalars.push_back(q);
    } else {
      plan.hoisted_scalars.push_back(q);
      seen.insert(q->id);
    }
  }

  for (Quantifier* q : OrderedForEachQuantifiers(box)) {
    SelectPlan::Step step;
    step.q = q;
    // Correlated input: its subtree references quantifiers of this box.
    for (const auto& [rid, col] : external_refs(q->input)) {
      if (!own_qids.count(rid)) continue;
      if (!seen.count(rid) && step.order_error.ok()) {
        step.order_error = Status::Internal(
            StrCat("join order binds q", q->id, " before its correlation ",
                   "source q", rid, " in ", box->DebugId()));
      }
      step.correlated = true;
    }

    seen.insert(q->id);
    for (PredState& st : preds) {
      if (st.applied || st.ea_phase) continue;
      bool ready = true;
      for (int rid : st.own_refs) {
        if (!seen.count(rid)) {
          ready = false;
          break;
        }
      }
      if (ready) {
        st.applied = true;
        step.filters.push_back(st.expr);
      }
    }

    // Split the filters into hash-joinable equalities and residuals.
    for (const Expr* f : step.filters) {
      ColumnComparison cc;
      bool hashable = false;
      if (MatchColumnComparisonFor(*f, q->id, &cc) && cc.op == BinaryOp::kEq) {
        hashable = true;
        for (int rid : cc.other->ReferencedQuantifiers()) {
          if (rid == q->id || (own_qids.count(rid) && !seen.count(rid))) {
            hashable = false;
            break;
          }
        }
        if (hashable) {
          step.hash_columns.push_back(cc.column->column_index);
          step.hash_keys.push_back(cc.other);
          step.hash_conjuncts.push_back(f);
        }
      }
      if (!hashable) step.residual.push_back(f);
    }

    // Index-nested-loop access: probing a stored table's secondary index
    // per combination instead of materializing and hashing the whole
    // table is what makes magic and supplementary-magic quantifiers cheap.
    // sys.* tables carry no indexes, and resolving one would materialize
    // its snapshot before the scan that should take it.
    if (!step.correlated && use_secondary_indexes &&
        q->input->kind() == BoxKind::kBaseTable &&
        !IsSysTableName(q->input->table_name())) {
      ResolveIndexAccess(&step, q->input->table_name(), catalog, own_qids,
                         seen);
    }
    plan.steps.push_back(std::move(step));
  }

  for (const PredState& st : preds) {
    if (!st.applied && !st.ea_phase) plan.final_filters.push_back(st.expr);
  }
  return plan;
}

}  // namespace starmagic

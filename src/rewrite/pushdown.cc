#include "rewrite/pushdown.h"

#include "common/string_util.h"

namespace starmagic {

ExprPtr MakeTemplateForQuantifier(const Expr& pred, int qid) {
  ExprPtr t = pred.Clone();
  t->RemapColumns([qid](int q, int col) {
    return q == qid ? std::make_pair(kTargetOutputs, col)
                    : std::make_pair(q, col);
  });
  return t;
}

namespace {

// Collects the kTargetOutputs column indexes used by a template.
void CollectTargetColumns(const Expr& e, std::set<int>* out) {
  e.Visit([out](const Expr& node) {
    if (node.kind == ExprKind::kColumnRef &&
        node.quantifier_id == kTargetOutputs) {
      out->insert(node.column_index);
    }
  });
}

// Core of CanPush/Push: `apply` false = dry run.
// When pushing into a groupby box, the template is rerouted (through the
// group-key exprs) into the groupby's input box. For set-ops the template
// is pushed into every branch.
Result<bool> PushImpl(QueryGraph* graph, Box* box, const Expr& pred,
                      bool apply) {
  // A shared box must not be filtered on behalf of a single user. The root
  // call also enforces this: the caller removes the predicate from the
  // parent, so other users of `box` would silently lose rows.
  if (graph->UsesOf(box).size() > 1) return false;

  switch (box->kind()) {
    case BoxKind::kBaseTable:
      return false;
    case BoxKind::kSelect: {
      if (!apply) return true;
      SM_ASSIGN_OR_RETURN(ExprPtr inst, InstantiateTemplate(pred, *box));
      box->AddPredicateIfNew(std::move(inst));
      return true;
    }
    case BoxKind::kGroupBy: {
      std::set<int> cols;
      CollectTargetColumns(pred, &cols);
      for (int c : cols) {
        if (c >= box->num_group_keys()) return false;  // aggregate column
        const OutputColumn& key = box->outputs()[static_cast<size_t>(c)];
        if (key.expr == nullptr || key.expr->kind != ExprKind::kColumnRef) {
          return false;
        }
      }
      // Reroute: target col c -> input column of the key expr.
      ExprPtr rerouted = pred.Clone();
      rerouted->RemapColumns([box](int q, int col) {
        if (q != kTargetOutputs) return std::make_pair(q, col);
        const Expr* key = box->outputs()[static_cast<size_t>(col)].expr.get();
        return std::make_pair(kTargetOutputs, key->column_index);
      });
      Box* input = box->quantifiers()[0]->input;
      return PushImpl(graph, input, *rerouted, apply);
    }
    case BoxKind::kSetOp: {
      for (const auto& q : box->quantifiers()) {
        SM_ASSIGN_OR_RETURN(bool ok,
                            PushImpl(graph, q->input, pred, /*apply=*/false));
        if (!ok) return false;
      }
      if (!apply) return true;
      for (const auto& q : box->quantifiers()) {
        SM_ASSIGN_OR_RETURN(bool ok,
                            PushImpl(graph, q->input, pred, /*apply=*/true));
        if (!ok) {
          return Status::Internal("set-op branch refused push after dry run");
        }
      }
      return true;
    }
    case BoxKind::kCustom: {
      const OperationTraits* traits = box->traits();
      if (traits == nullptr || traits->map_output_column == nullptr) {
        return false;
      }
      std::set<int> cols;
      CollectTargetColumns(pred, &cols);
      bool any = false;
      int n_inputs = static_cast<int>(box->quantifiers().size());
      for (int i = 0; i < n_inputs; ++i) {
        bool all_map = true;
        for (int c : cols) {
          if (traits->map_output_column(*box, c, i) < 0) {
            all_map = false;
            break;
          }
        }
        if (!all_map) continue;
        ExprPtr rerouted = pred.Clone();
        rerouted->RemapColumns([box, traits, i](int q, int col) {
          if (q != kTargetOutputs) return std::make_pair(q, col);
          return std::make_pair(kTargetOutputs,
                                traits->map_output_column(*box, col, i));
        });
        Box* input = box->quantifiers()[static_cast<size_t>(i)]->input;
        SM_ASSIGN_OR_RETURN(bool ok, PushImpl(graph, input, *rerouted, apply));
        if (ok) any = true;
      }
      return any;
    }
  }
  return false;
}

}  // namespace

bool CanPushIntoBox(const QueryGraph& graph, const Box& box, const Expr& pred) {
  Result<bool> r = PushImpl(const_cast<QueryGraph*>(&graph),
                            const_cast<Box*>(&box), pred, /*apply=*/false);
  return r.ok() && *r;
}

Status PushIntoBox(QueryGraph* graph, Box* box, const Expr& pred) {
  SM_ASSIGN_OR_RETURN(bool ok, PushImpl(graph, box, pred, /*apply=*/true));
  if (!ok) return Status::Internal("PushIntoBox called on unpushable predicate");
  return Status::OK();
}

Result<ExprPtr> InstantiateTemplate(const Expr& pred, const Box& box) {
  ExprPtr inst = pred.Clone();
  Status status = Status::OK();
  std::function<void(Expr*)> walk = [&](Expr* e) {
    if (!status.ok()) return;
    if (e->kind == ExprKind::kColumnRef && e->quantifier_id == kTargetOutputs) {
      int col = e->column_index;
      if (col < 0 || col >= box.NumOutputs()) {
        status = Status::Internal(
            StrCat("template column ", col, " out of range for ",
                   box.DebugId()));
        return;
      }
      const OutputColumn& out = box.outputs()[static_cast<size_t>(col)];
      if (out.expr == nullptr) {
        status = Status::Internal(
            StrCat("template column ", col, " of ", box.DebugId(),
                   " has no defining expression"));
        return;
      }
      ExprPtr repl = out.expr->Clone();
      *e = std::move(*repl);
      return;  // replaced subtree; children already final
    }
    for (ExprPtr& c : e->children) walk(c.get());
  };
  walk(inst.get());
  SM_RETURN_IF_ERROR(status);
  return inst;
}

Result<bool> LocalPredicatePushdownRule::Apply(RewriteContext* ctx, Box* box) {
  if (box->kind() != BoxKind::kSelect) return false;
  bool changed = false;
  auto& preds = box->mutable_predicates();
  for (size_t i = 0; i < preds.size();) {
    const Expr& pred = *preds[i];
    std::set<int> refs = pred.ReferencedQuantifiers();
    // Local predicate: references exactly one quantifier, owned by this box.
    int local_qid = -1;
    bool local = !refs.empty();
    for (int qid : refs) {
      if (box->FindQuantifier(qid) == nullptr) {
        local = false;
        break;
      }
      if (local_qid == -1) {
        local_qid = qid;
      } else if (local_qid != qid) {
        local = false;
        break;
      }
    }
    if (!local) {
      ++i;
      continue;
    }
    Quantifier* q = box->FindQuantifier(local_qid);
    // Base tables never accept a pushed predicate (PushImpl); decide that
    // before cloning the predicate into a template.
    if ((q->type != QuantifierType::kForEach &&
         q->type != QuantifierType::kExistential) ||
        q->input->kind() == BoxKind::kBaseTable) {
      ++i;
      continue;
    }
    ExprPtr tmpl = MakeTemplateForQuantifier(pred, local_qid);
    if (!CanPushIntoBox(*ctx->graph, *q->input, *tmpl)) {
      ++i;
      continue;
    }
    SM_RETURN_IF_ERROR(PushIntoBox(ctx->graph, q->input, *tmpl));
    preds.erase(preds.begin() + static_cast<long>(i));
    changed = true;
  }
  return changed;
}

}  // namespace starmagic

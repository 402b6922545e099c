#include "qgm/graph.h"

#include <algorithm>
#include <functional>
#include <set>

#include "common/string_util.h"

namespace starmagic {

namespace {

std::string BuiltinOpName(BoxKind kind, SetOpKind set_op) {
  switch (kind) {
    case BoxKind::kBaseTable:
      return kOpBaseTable;
    case BoxKind::kSelect:
      return kOpSelect;
    case BoxKind::kGroupBy:
      return kOpGroupBy;
    case BoxKind::kSetOp:
      switch (set_op) {
        case SetOpKind::kUnion:
          return kOpUnion;
        case SetOpKind::kIntersect:
          return kOpIntersect;
        case SetOpKind::kExcept:
          return kOpExcept;
      }
      return kOpUnion;
    case BoxKind::kCustom:
      return "";
  }
  return "";
}

}  // namespace

Box* QueryGraph::AllocateBox(BoxKind kind, std::string op_name,
                             std::string label) {
  auto box = std::make_unique<Box>(next_box_id_++, kind, std::move(label));
  box->set_op_name(std::move(op_name));
  Box* raw = box.get();
  box_by_id_[raw->id()] = raw;
  boxes_.push_back(std::move(box));
  return raw;
}

Box* QueryGraph::NewBox(BoxKind kind, std::string label) {
  return AllocateBox(kind, BuiltinOpName(kind, SetOpKind::kUnion),
                     std::move(label));
}

Box* QueryGraph::NewCustomBox(std::string op_name, std::string label) {
  return AllocateBox(BoxKind::kCustom, std::move(op_name), std::move(label));
}

Quantifier* QueryGraph::NewQuantifier(Box* owner, QuantifierType type,
                                      Box* input, std::string name) {
  auto q = std::make_unique<Quantifier>();
  q->id = next_quantifier_id_++;
  q->type = type;
  q->input = input;
  q->name = std::move(name);
  Quantifier* raw = q.get();
  owner->mutable_quantifiers().push_back(std::move(q));
  quantifier_owner_[raw->id] = owner;
  return raw;
}

Status QueryGraph::MoveQuantifier(int qid, Box* from, Box* to) {
  auto& src = from->mutable_quantifiers();
  for (size_t i = 0; i < src.size(); ++i) {
    if (src[i]->id == qid) {
      to->mutable_quantifiers().push_back(std::move(src[i]));
      src.erase(src.begin() + static_cast<long>(i));
      quantifier_owner_[qid] = to;
      return Status::OK();
    }
  }
  return Status::Internal(
      StrCat("MoveQuantifier: q", qid, " not in ", from->DebugId()));
}

Status QueryGraph::RemoveQuantifier(int qid) {
  Box* owner = OwnerOf(qid);
  if (owner == nullptr) {
    return Status::Internal(StrCat("RemoveQuantifier: unknown q", qid));
  }
  for (const ExprPtr& p : owner->predicates()) {
    if (p->References(qid)) {
      return Status::Internal(
          StrCat("RemoveQuantifier: q", qid, " still referenced by predicate ",
                 p->ToString()));
    }
  }
  for (const OutputColumn& out : owner->outputs()) {
    if (out.expr != nullptr && out.expr->References(qid)) {
      return Status::Internal(
          StrCat("RemoveQuantifier: q", qid, " still referenced by output '",
                 out.name, "'"));
    }
  }
  auto& qs = owner->mutable_quantifiers();
  for (size_t i = 0; i < qs.size(); ++i) {
    if (qs[i]->id == qid) {
      qs.erase(qs.begin() + static_cast<long>(i));
      quantifier_owner_.erase(qid);
      return Status::OK();
    }
  }
  return Status::Internal(StrCat("RemoveQuantifier: q", qid, " map mismatch"));
}

std::vector<Box*> QueryGraph::boxes() const {
  std::vector<Box*> out;
  out.reserve(boxes_.size());
  for (const auto& b : boxes_) out.push_back(b.get());
  return out;
}

Box* QueryGraph::GetBox(int box_id) const {
  auto it = box_by_id_.find(box_id);
  return it == box_by_id_.end() ? nullptr : it->second;
}

Box* QueryGraph::OwnerOf(int qid) const {
  auto it = quantifier_owner_.find(qid);
  return it == quantifier_owner_.end() ? nullptr : it->second;
}

Quantifier* QueryGraph::GetQuantifier(int qid) const {
  Box* owner = OwnerOf(qid);
  return owner == nullptr ? nullptr : owner->FindQuantifier(qid);
}

std::vector<Quantifier*> QueryGraph::UsesOf(const Box* box) const {
  std::vector<Quantifier*> uses;
  for (const auto& b : boxes_) {
    for (const auto& q : b->quantifiers()) {
      if (q->input == box) uses.push_back(q.get());
    }
  }
  return uses;
}

int QueryGraph::GarbageCollect() {
  if (top_ == nullptr) return 0;
  std::set<int> reachable;
  std::vector<Box*> stack{top_};
  while (!stack.empty()) {
    Box* b = stack.back();
    stack.pop_back();
    if (!reachable.insert(b->id()).second) continue;
    for (const auto& q : b->quantifiers()) {
      if (q->input != nullptr) stack.push_back(q->input);
    }
    // Magic boxes linked to live NMQ boxes must survive between rewrite
    // phases: EMST consumes the link when it later processes the box. The
    // pipeline clears the links after the final phase.
    if (b->magic_box() != nullptr) stack.push_back(b->magic_box());
  }
  int removed = 0;
  for (auto it = boxes_.begin(); it != boxes_.end();) {
    if (reachable.count((*it)->id())) {
      ++it;
      continue;
    }
    for (const auto& q : (*it)->quantifiers()) quantifier_owner_.erase(q->id);
    box_by_id_.erase((*it)->id());
    it = boxes_.erase(it);
    ++removed;
  }
  return removed;
}

Box* QueryGraph::CopyBoxShallow(const Box* box) {
  Box* copy = AllocateBox(box->kind(), box->op_name(), box->label());
  copy->set_role(box->role());
  copy->set_table_name(box->table_name());
  copy->set_enforce_distinct(box->enforce_distinct());
  copy->set_duplicate_free(box->duplicate_free());
  copy->set_num_group_keys(box->num_group_keys());
  copy->set_set_op(box->set_op());
  if (box->has_unique_key()) copy->set_unique_key(box->unique_key());
  copy->mutable_condition_ops() = box->condition_ops();

  std::map<int, int> qid_map;  // old -> new
  for (const auto& q : box->quantifiers()) {
    Quantifier* nq = NewQuantifier(copy, q->type, q->input, q->name);
    nq->is_magic = q->is_magic;
    nq->requires_empty = q->requires_empty;
    qid_map[q->id] = nq->id;
  }
  auto remap = [&qid_map](int qid, int col) {
    auto it = qid_map.find(qid);
    return std::make_pair(it == qid_map.end() ? qid : it->second, col);
  };
  for (const ExprPtr& p : box->predicates()) {
    ExprPtr copy_pred = p->Clone();
    copy_pred->RemapColumns(remap);
    copy->AddPredicate(std::move(copy_pred));
  }
  for (const OutputColumn& out : box->outputs()) {
    ExprPtr expr;
    if (out.expr != nullptr) {
      expr = out.expr->Clone();
      expr->RemapColumns(remap);
    }
    copy->AddOutput(out.name, std::move(expr));
  }
  std::vector<int> order;
  order.reserve(box->join_order().size());
  for (int qid : box->join_order()) {
    auto it = qid_map.find(qid);
    order.push_back(it == qid_map.end() ? qid : it->second);
  }
  copy->set_join_order(std::move(order));
  return copy;
}

std::unique_ptr<QueryGraph> QueryGraph::Clone() const {
  auto g = std::make_unique<QueryGraph>();
  g->next_box_id_ = next_box_id_;
  g->next_quantifier_id_ = next_quantifier_id_;
  g->order_by = order_by;
  g->limit = limit;

  std::map<const Box*, Box*> box_map;
  for (const auto& b : boxes_) {
    auto copy = std::make_unique<Box>(b->id(), b->kind(), b->label());
    copy->set_op_name(b->op_name());
    copy->set_role(b->role());
    copy->set_table_name(b->table_name());
    copy->set_enforce_distinct(b->enforce_distinct());
    copy->set_duplicate_free(b->duplicate_free());
    copy->set_num_group_keys(b->num_group_keys());
    copy->set_set_op(b->set_op());
    copy->set_adornment(b->adornment());
    copy->set_emst_done(b->emst_done());
    copy->set_join_order(b->join_order());
    if (b->has_unique_key()) copy->set_unique_key(b->unique_key());
    copy->mutable_condition_ops() = b->condition_ops();
    for (const ExprPtr& p : b->predicates()) copy->AddPredicate(p->Clone());
    for (const OutputColumn& out : b->outputs()) {
      copy->AddOutput(out.name, out.expr ? out.expr->Clone() : nullptr);
    }
    Box* raw = copy.get();
    g->box_by_id_[raw->id()] = raw;
    box_map[b.get()] = raw;
    g->boxes_.push_back(std::move(copy));
  }
  // Second pass: quantifiers (need box_map) and magic links.
  for (const auto& b : boxes_) {
    Box* copy = box_map[b.get()];
    for (const auto& q : b->quantifiers()) {
      auto nq = std::make_unique<Quantifier>();
      nq->id = q->id;
      nq->type = q->type;
      nq->name = q->name;
      nq->input = q->input ? box_map[q->input] : nullptr;
      nq->is_magic = q->is_magic;
      nq->requires_empty = q->requires_empty;
      g->quantifier_owner_[nq->id] = copy;
      copy->mutable_quantifiers().push_back(std::move(nq));
    }
    if (b->magic_box() != nullptr) {
      copy->set_magic_box(box_map[b->magic_box()]);
    }
  }
  g->top_ = top_ ? box_map[top_] : nullptr;
  return g;
}

QueryGraph::StrataInfo QueryGraph::ComputeStrata() const {
  StrataInfo info;
  // Tarjan SCC over the child relation (box -> quantifier inputs).
  std::map<int, int> index, lowlink;
  std::map<int, bool> on_stack;
  std::vector<Box*> stack;
  int next_index = 0;
  int next_scc = 0;
  std::map<int, std::vector<int>> scc_members;

  std::function<void(Box*)> strongconnect = [&](Box* v) {
    index[v->id()] = next_index;
    lowlink[v->id()] = next_index;
    ++next_index;
    stack.push_back(v);
    on_stack[v->id()] = true;
    for (const auto& q : v->quantifiers()) {
      Box* w = q->input;
      if (w == nullptr) continue;
      if (!index.count(w->id())) {
        strongconnect(w);
        lowlink[v->id()] = std::min(lowlink[v->id()], lowlink[w->id()]);
      } else if (on_stack[w->id()]) {
        lowlink[v->id()] = std::min(lowlink[v->id()], index[w->id()]);
      }
    }
    if (lowlink[v->id()] == index[v->id()]) {
      int scc = next_scc++;
      while (true) {
        Box* w = stack.back();
        stack.pop_back();
        on_stack[w->id()] = false;
        info.scc_id[w->id()] = scc;
        scc_members[scc].push_back(w->id());
        if (w == v) break;
      }
    }
  };

  for (const auto& b : boxes_) {
    if (!index.count(b->id())) strongconnect(b.get());
  }

  // Mark recursive boxes: SCC with >1 member, or a self-loop.
  for (const auto& [scc, members] : scc_members) {
    bool recursive = members.size() > 1;
    if (!recursive) {
      Box* b = GetBox(members[0]);
      for (const auto& q : b->quantifiers()) {
        if (q->input == b) recursive = true;
      }
    }
    if (recursive) {
      for (int id : members) info.recursive_boxes.insert(id);
    }
  }

  // Stratum = longest path in the condensation (base tables / leaves = 0).
  // Tarjan emits SCCs in reverse topological order: children get smaller
  // scc ids than parents... actually Tarjan pops callees first, so an SCC's
  // children have smaller ids. Process SCCs in id order.
  std::map<int, int> scc_stratum;
  for (int scc = 0; scc < next_scc; ++scc) {
    int stratum = 0;
    for (int bid : scc_members[scc]) {
      Box* b = GetBox(bid);
      for (const auto& q : b->quantifiers()) {
        if (q->input == nullptr) continue;
        int child_scc = info.scc_id[q->input->id()];
        if (child_scc == scc) continue;
        stratum = std::max(stratum, scc_stratum[child_scc] + 1);
      }
    }
    scc_stratum[scc] = stratum;
  }
  for (const auto& b : boxes_) {
    int s = scc_stratum[info.scc_id[b->id()]];
    info.stratum[b->id()] = s;
    info.max_stratum = std::max(info.max_stratum, s);
  }
  return info;
}

Status QueryGraph::Validate() const {
  if (top_ == nullptr) return Status::Internal("graph has no top box");
  std::set<int> live_box_ids;
  for (const auto& b : boxes_) live_box_ids.insert(b->id());
  std::set<int> all_qids;
  for (const auto& b : boxes_) {
    for (const auto& q : b->quantifiers()) {
      if (!all_qids.insert(q->id).second) {
        return Status::Internal(StrCat("duplicate quantifier id q", q->id));
      }
      if (q->input == nullptr) {
        return Status::Internal(
            StrCat("q", q->id, " in ", b->DebugId(), " has null input"));
      }
      if (!live_box_ids.count(q->input->id())) {
        return Status::Internal(StrCat("q", q->id, " references dead box"));
      }
      Box* owner = OwnerOf(q->id);
      if (owner != b.get()) {
        return Status::Internal(
            StrCat("owner map mismatch for q", q->id, " in ", b->DebugId()));
      }
    }
  }
  for (const auto& b : boxes_) {
    // Runs on every EMST candidate before it is costed, so it walks each
    // expression without collecting its quantifiers into a set.
    auto check_expr = [&](const Expr& e, const char* what) -> Status {
      const Expr* unknown = nullptr;
      e.Visit([&](const Expr& node) {
        if (unknown == nullptr && node.kind == ExprKind::kColumnRef &&
            !all_qids.count(node.quantifier_id)) {
          unknown = &node;
        }
      });
      if (unknown == nullptr) return Status::OK();
      return Status::Internal(StrCat(what, " in ", b->DebugId(),
                                     " references unknown q",
                                     unknown->quantifier_id, ": ",
                                     e.ToString()));
    };
    for (const ExprPtr& p : b->predicates()) {
      SM_RETURN_IF_ERROR(check_expr(*p, "predicate"));
    }
    for (const OutputColumn& out : b->outputs()) {
      if (out.expr != nullptr) {
        SM_RETURN_IF_ERROR(check_expr(*out.expr, "output"));
      }
    }
    switch (b->kind()) {
      case BoxKind::kBaseTable:
        if (!b->quantifiers().empty()) {
          return Status::Internal(
              StrCat(b->DebugId(), ": base table with quantifiers"));
        }
        break;
      case BoxKind::kGroupBy: {
        if (b->quantifiers().size() != 1) {
          return Status::Internal(
              StrCat(b->DebugId(), ": groupby must have exactly 1 quantifier"));
        }
        for (int i = 0; i < b->NumOutputs(); ++i) {
          const OutputColumn& out = b->outputs()[static_cast<size_t>(i)];
          bool is_key = i < b->num_group_keys();
          if (out.expr == nullptr) {
            return Status::Internal(
                StrCat(b->DebugId(), ": groupby output without expr"));
          }
          if (is_key && out.expr->ContainsAggregate()) {
            return Status::Internal(
                StrCat(b->DebugId(), ": group key contains aggregate"));
          }
          if (!is_key && out.expr->kind != ExprKind::kAggregate) {
            return Status::Internal(
                StrCat(b->DebugId(), ": non-key output is not an aggregate"));
          }
        }
        break;
      }
      case BoxKind::kSetOp: {
        if (b->quantifiers().size() < 2) {
          return Status::Internal(
              StrCat(b->DebugId(), ": set-op needs >=2 inputs"));
        }
        int arity = b->quantifiers()[0]->input->NumOutputs();
        for (const auto& q : b->quantifiers()) {
          if (q->input->NumOutputs() != arity) {
            return Status::Internal(
                StrCat(b->DebugId(), ": set-op input arity mismatch"));
          }
        }
        if (b->NumOutputs() != arity) {
          return Status::Internal(
              StrCat(b->DebugId(), ": set-op output arity mismatch"));
        }
        break;
      }
      default:
        break;
    }
  }
  return Status::OK();
}

std::map<int, ColumnRefs> ExternalRefs(const Box* root) {
  // Pass 1: the boxes under `root`, each with the references its own
  // expressions make to quantifiers it does not own.
  std::vector<const Box*> boxes;
  std::map<int, size_t> index_of;  // box id -> position in `boxes`
  std::vector<ColumnRefs> own_refs;
  std::vector<const Box*> stack{root};
  while (!stack.empty()) {
    const Box* b = stack.back();
    stack.pop_back();
    if (!index_of.emplace(b->id(), boxes.size()).second) continue;
    boxes.push_back(b);
    ColumnRefs refs;
    auto scan = [&](const Expr& e) {
      e.Visit([&](const Expr& node) {
        if (node.kind == ExprKind::kColumnRef && node.quantifier_id >= 0 &&
            b->FindQuantifier(node.quantifier_id) == nullptr) {
          refs.emplace_back(node.quantifier_id, node.column_index);
        }
      });
    };
    for (const ExprPtr& p : b->predicates()) scan(*p);
    for (const OutputColumn& out : b->outputs()) {
      if (out.expr != nullptr) scan(*out.expr);
    }
    own_refs.push_back(std::move(refs));
    for (const auto& q : b->quantifiers()) {
      if (q->input != nullptr) stack.push_back(q->input);
    }
  }
  // Pass 2: a box's signature is what its subtree's boxes reference
  // outside the quantifiers the subtree owns.
  std::map<int, ColumnRefs> result;
  std::vector<char> seen(boxes.size());
  std::vector<int> owned;
  ColumnRefs refs;
  for (const Box* box : boxes) {
    std::fill(seen.begin(), seen.end(), 0);
    owned.clear();
    refs.clear();
    stack.assign(1, box);
    while (!stack.empty()) {
      const Box* b = stack.back();
      stack.pop_back();
      const size_t k = index_of.at(b->id());
      if (seen[k]) continue;
      seen[k] = 1;
      refs.insert(refs.end(), own_refs[k].begin(), own_refs[k].end());
      for (const auto& q : b->quantifiers()) {
        owned.push_back(q->id);
        if (q->input != nullptr) stack.push_back(q->input);
      }
    }
    std::sort(owned.begin(), owned.end());
    std::sort(refs.begin(), refs.end());
    refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
    ColumnRefs& external = result[box->id()];
    for (const auto& ref : refs) {
      if (!std::binary_search(owned.begin(), owned.end(), ref.first)) {
        external.push_back(ref);
      }
    }
  }
  return result;
}

int QueryGraph::NumBoxes() const { return static_cast<int>(boxes_.size()); }

int QueryGraph::NumQuantifiers() const {
  int n = 0;
  for (const auto& b : boxes_) n += static_cast<int>(b->quantifiers().size());
  return n;
}

}  // namespace starmagic

#include "qgm/box.h"

#include <set>

#include "common/string_util.h"

namespace starmagic {

const char* QuantifierTypeName(QuantifierType type) {
  switch (type) {
    case QuantifierType::kForEach:
      return "F";
    case QuantifierType::kExistential:
      return "E";
    case QuantifierType::kAll:
      return "A";
    case QuantifierType::kScalar:
      return "S";
  }
  return "?";
}

const char* BoxKindName(BoxKind kind) {
  switch (kind) {
    case BoxKind::kBaseTable:
      return "BASETABLE";
    case BoxKind::kSelect:
      return "SELECT";
    case BoxKind::kGroupBy:
      return "GROUPBY";
    case BoxKind::kSetOp:
      return "SETOP";
    case BoxKind::kCustom:
      return "CUSTOM";
  }
  return "?";
}

const char* BoxRoleName(BoxRole role) {
  switch (role) {
    case BoxRole::kRegular:
      return "regular";
    case BoxRole::kMagic:
      return "magic";
    case BoxRole::kSupplementaryMagic:
      return "supplementary-magic";
    case BoxRole::kConditionMagic:
      return "condition-magic";
  }
  return "?";
}

bool Box::AcceptsMagicQuantifier() const {
  const OperationTraits* t = traits();
  return t != nullptr && t->accepts_magic_quantifier;
}

Quantifier* Box::FindQuantifier(int qid) {
  for (auto& q : quantifiers_) {
    if (q->id == qid) return q.get();
  }
  return nullptr;
}

const Quantifier* Box::FindQuantifier(int qid) const {
  for (const auto& q : quantifiers_) {
    if (q->id == qid) return q.get();
  }
  return nullptr;
}

void Box::AddPredicate(ExprPtr pred) { predicates_.push_back(std::move(pred)); }

void Box::AddPredicateIfNew(ExprPtr pred) {
  for (const ExprPtr& existing : predicates_) {
    if (Expr::Equals(*existing, *pred)) return;
  }
  predicates_.push_back(std::move(pred));
}

void Box::AddOutput(std::string name, ExprPtr expr) {
  outputs_.push_back(OutputColumn{std::move(name), std::move(expr)});
}

int Box::FindOutput(const std::string& name) const {
  for (size_t i = 0; i < outputs_.size(); ++i) {
    if (EqualsIgnoreCase(outputs_[i].name, name)) return static_cast<int>(i);
  }
  return -1;
}

std::vector<Quantifier*> OrderedForEachQuantifiers(Box* box) {
  std::vector<Quantifier*> result;
  std::set<int> taken;
  for (int qid : box->join_order()) {
    Quantifier* q = box->FindQuantifier(qid);
    if (q != nullptr && q->type == QuantifierType::kForEach &&
        taken.insert(qid).second) {
      result.push_back(q);
    }
  }
  for (const auto& q : box->quantifiers()) {
    if (q->type == QuantifierType::kForEach && taken.insert(q->id).second) {
      result.push_back(q.get());
    }
  }
  return result;
}

std::string Box::DebugId() const {
  std::string out = StrCat("B", id_, ":", BoxKindName(kind_));
  if (!label_.empty()) out += StrCat("(", label_, ")");
  if (!adornment_.empty()) out += StrCat("^", adornment_);
  return out;
}

}  // namespace starmagic

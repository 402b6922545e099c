#ifndef STARMAGIC_QGM_BOX_H_
#define STARMAGIC_QGM_BOX_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "qgm/expr.h"
#include "qgm/operation.h"

namespace starmagic {

class Box;

/// Kind of a table reference inside a box's mini-graph (§2).
/// F = ordinary join input; E = existential (EXISTS / IN subquery);
/// A = universal (NOT IN; NOT EXISTS uses A + requires_empty);
/// Scalar = scalar subquery producing at most one row per binding.
enum class QuantifierType { kForEach, kExistential, kAll, kScalar };

const char* QuantifierTypeName(QuantifierType type);

/// A table reference inside a box. The quantifier id is unique across the
/// whole query graph, so expressions can name quantifiers from enclosing
/// boxes (correlation predicates).
struct Quantifier {
  int id = -1;
  QuantifierType type = QuantifierType::kForEach;
  std::string name;  ///< display alias ("e", "d", "m"...)
  Box* input = nullptr;

  /// True if this quantifier ranges over a magic / supplementary-magic /
  /// condition-magic box (a "magic quantifier", §4.1).
  bool is_magic = false;

  /// For kAll: the row qualifies iff the input is empty under the current
  /// binding (NOT EXISTS). With false, kAll means "predicates hold for all
  /// input rows" (NOT IN).
  bool requires_empty = false;
};

/// Structural kind of a box. Extensions use kCustom plus an op_name with
/// registered OperationTraits.
enum class BoxKind { kBaseTable, kSelect, kGroupBy, kSetOp, kCustom };

enum class SetOpKind { kUnion, kIntersect, kExcept };

/// EMST's box classification (§4.1): magic boxes contribute tuples to a
/// magic table; supplementary-magic-boxes hold reusable join prefixes;
/// condition-magic-boxes carry non-equality (c-adorned) restrictions.
enum class BoxRole { kRegular, kMagic, kSupplementaryMagic, kConditionMagic };

const char* BoxKindName(BoxKind kind);
const char* BoxRoleName(BoxRole role);

/// One output column of a box: a name plus (for select/groupby boxes) the
/// defining expression over the box's quantifiers. Base-table and set-op
/// boxes have positional outputs with null exprs.
struct OutputColumn {
  std::string name;
  ExprPtr expr;
};

/// A QGM box: one unit of evaluation (§2). A single class carries the
/// fields of all kinds; `kind` discriminates. Boxes are owned by the
/// QueryGraph arena and referenced by raw pointers (cycles allowed for
/// recursion).
class Box {
 public:
  Box(int id, BoxKind kind, std::string label)
      : id_(id), kind_(kind), label_(std::move(label)) {}

  Box(const Box&) = delete;
  Box& operator=(const Box&) = delete;

  int id() const { return id_; }
  BoxKind kind() const { return kind_; }

  const std::string& label() const { return label_; }
  void set_label(std::string label) { label_ = std::move(label); }

  BoxRole role() const { return role_; }
  void set_role(BoxRole role) { role_ = role; }
  bool IsMagicRole() const { return role_ != BoxRole::kRegular; }

  /// Operation-registry key ("SELECT", "GROUPBY", ..., or a custom name).
  const std::string& op_name() const { return op_name_; }
  void set_op_name(std::string name) { op_name_ = std::move(name); }
  const OperationTraits* traits() const {
    return OperationRegistry::Instance().Get(op_name_);
  }
  /// AMQ property (§4.2) from the operation registry.
  bool AcceptsMagicQuantifier() const;

  // --- base table ----------------------------------------------------------
  const std::string& table_name() const { return table_name_; }
  void set_table_name(std::string name) { table_name_ = std::move(name); }

  /// Optimizer annotation for base-table boxes: how the chosen plan reaches
  /// the stored rows ("scan", "index probe via emp_workdept", ...). Purely
  /// informational — shown by the printer / Explain reports.
  const std::string& access_path() const { return access_path_; }
  void set_access_path(std::string path) { access_path_ = std::move(path); }

  // --- quantifiers ---------------------------------------------------------
  const std::vector<std::unique_ptr<Quantifier>>& quantifiers() const {
    return quantifiers_;
  }
  std::vector<std::unique_ptr<Quantifier>>& mutable_quantifiers() {
    return quantifiers_;
  }
  Quantifier* FindQuantifier(int qid);
  const Quantifier* FindQuantifier(int qid) const;

  // --- predicates (conjuncts of the WHERE of the box) -----------------------
  const std::vector<ExprPtr>& predicates() const { return predicates_; }
  std::vector<ExprPtr>& mutable_predicates() { return predicates_; }
  void AddPredicate(ExprPtr pred);
  /// Adds `pred` unless an Equals-identical conjunct already exists.
  void AddPredicateIfNew(ExprPtr pred);

  // --- outputs ---------------------------------------------------------------
  const std::vector<OutputColumn>& outputs() const { return outputs_; }
  std::vector<OutputColumn>& mutable_outputs() { return outputs_; }
  int NumOutputs() const { return static_cast<int>(outputs_.size()); }
  void AddOutput(std::string name, ExprPtr expr);
  /// Output column index by (case-insensitive) name, or -1.
  int FindOutput(const std::string& name) const;

  // --- distinctness ----------------------------------------------------------
  /// The box eliminates duplicates from its result (SELECT DISTINCT /
  /// UNION / INTERSECT / EXCEPT set semantics).
  bool enforce_distinct() const { return enforce_distinct_; }
  void set_enforce_distinct(bool v) { enforce_distinct_ = v; }

  /// Known duplicate-free without enforcement (derived by the distinct
  /// pullup rule); enables the phase-3 merges of Example 4.1.
  bool duplicate_free() const { return duplicate_free_; }
  void set_duplicate_free(bool v) { duplicate_free_ = v; }

  /// Output columns forming a unique key of this box's result, when known
  /// (derived by the distinct-pullup analysis; base tables get it from the
  /// catalog primary key).
  bool has_unique_key() const { return has_unique_key_; }
  const std::vector<int>& unique_key() const { return unique_key_; }
  void set_unique_key(std::vector<int> cols) {
    has_unique_key_ = true;
    unique_key_ = std::move(cols);
  }
  void clear_unique_key() {
    has_unique_key_ = false;
    unique_key_.clear();
  }

  // --- groupby ----------------------------------------------------------------
  /// For kGroupBy: the first `num_group_keys` outputs are grouping keys;
  /// the rest are aggregates.
  int num_group_keys() const { return num_group_keys_; }
  void set_num_group_keys(int n) { num_group_keys_ = n; }

  // --- set op ----------------------------------------------------------------
  SetOpKind set_op() const { return set_op_; }
  void set_set_op(SetOpKind op) { set_op_ = op; }

  // --- EMST bookkeeping -------------------------------------------------------
  /// Adornment of this box copy (b/c/f per output column); empty when the
  /// box is unadorned.
  const std::string& adornment() const { return adornment_; }
  void set_adornment(std::string a) { adornment_ = std::move(a); }

  /// For each 'c'-adorned output column: the comparison operator
  /// (normalized with the column on the left) the condition uses. Carried
  /// on adorned copies so NMQ boxes can pass conditions to their children.
  const std::map<int, BinaryOp>& condition_ops() const { return condition_ops_; }
  std::map<int, BinaryOp>& mutable_condition_ops() { return condition_ops_; }

  /// The magic (or condition-magic) box linked to this box (§4.4 step 4c;
  /// used when this box is NMQ and cannot take a magic quantifier).
  Box* magic_box() const { return magic_box_; }
  void set_magic_box(Box* box) { magic_box_ = box; }

  /// EMST does not process magic boxes (§4.1) or boxes already processed.
  bool emst_done() const { return emst_done_; }
  void set_emst_done(bool v) { emst_done_ = v; }

  // --- plan-optimizer results ---------------------------------------------------
  /// Join order as a sequence of quantifier ids (ForEach quantifiers only),
  /// chosen by the plan optimizer; empty = declaration order.
  const std::vector<int>& join_order() const { return join_order_; }
  void set_join_order(std::vector<int> order) { join_order_ = std::move(order); }

  /// Short display string, e.g. "B3:SELECT(MGRSAL)".
  std::string DebugId() const;

 private:
  int id_;
  BoxKind kind_;
  std::string label_;
  BoxRole role_ = BoxRole::kRegular;
  std::string op_name_;
  std::string table_name_;
  std::string access_path_;
  std::vector<std::unique_ptr<Quantifier>> quantifiers_;
  std::vector<ExprPtr> predicates_;
  std::vector<OutputColumn> outputs_;
  bool enforce_distinct_ = false;
  bool duplicate_free_ = false;
  bool has_unique_key_ = false;
  std::vector<int> unique_key_;
  int num_group_keys_ = 0;
  SetOpKind set_op_ = SetOpKind::kUnion;
  std::string adornment_;
  std::map<int, BinaryOp> condition_ops_;
  Box* magic_box_ = nullptr;
  bool emst_done_ = false;
  std::vector<int> join_order_;
};

/// ForEach quantifiers of `box` in its plan-chosen join order; quantifiers
/// missing from the stored order follow in declaration order. Shared by
/// the EMST rule and the executor.
std::vector<Quantifier*> OrderedForEachQuantifiers(Box* box);

}  // namespace starmagic

#endif  // STARMAGIC_QGM_BOX_H_

#ifndef STARMAGIC_QGM_GRAPH_H_
#define STARMAGIC_QGM_GRAPH_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "qgm/box.h"

namespace starmagic {

/// Ordering applied to the top box output by the executor.
struct OrderSpec {
  int column = 0;
  bool ascending = true;
};

/// Sorted (quantifier id, column) pairs.
using ColumnRefs = std::vector<std::pair<int, int>>;

/// The correlation signature of every box reachable from `root`, keyed by
/// box id: the column references that the box's subtree makes but whose
/// quantifiers it does not own. Each expression is visited once, however
/// many of the subtrees contain it. The executor keys correlated results
/// by these references; the cost model charges a box once per binding.
std::map<int, ColumnRefs> ExternalRefs(const Box* root);

/// The arena owning every box of one query. Quantifier and box ids are
/// unique within the graph. Cycles between boxes represent recursion.
class QueryGraph {
 public:
  QueryGraph() = default;
  QueryGraph(const QueryGraph&) = delete;
  QueryGraph& operator=(const QueryGraph&) = delete;

  /// Allocates a box of `kind` with the matching builtin op_name.
  Box* NewBox(BoxKind kind, std::string label);
  /// Allocates a kCustom box with operation `op_name` (must be registered).
  Box* NewCustomBox(std::string op_name, std::string label);

  /// Creates a quantifier of `type` in `owner` ranging over `input`.
  Quantifier* NewQuantifier(Box* owner, QuantifierType type, Box* input,
                            std::string name);

  /// Moves quantifier `qid` from `from` into `to` (keeps its id). Used by
  /// the merge rule and supplementary-magic construction.
  Status MoveQuantifier(int qid, Box* from, Box* to);

  /// Removes quantifier `qid` from its owner box and drops the ownership
  /// record. Fails if any predicate/output of the owner still references it.
  Status RemoveQuantifier(int qid);

  Box* top() const { return top_; }
  void set_top(Box* box) { top_ = box; }

  /// All live boxes (allocation order).
  std::vector<Box*> boxes() const;
  Box* GetBox(int box_id) const;

  /// Owner box of quantifier `qid`, or nullptr.
  Box* OwnerOf(int qid) const;
  /// The quantifier object for `qid`, or nullptr.
  Quantifier* GetQuantifier(int qid) const;

  /// All quantifiers (graph-wide) that range over `box` (its out-edges).
  std::vector<Quantifier*> UsesOf(const Box* box) const;

  /// Drops boxes unreachable from the top box. Returns # removed.
  int GarbageCollect();

  /// Shallow copy of `box`: new box id, new quantifier ids, predicates and
  /// outputs remapped to the new quantifier ids; quantifier inputs point to
  /// the same child boxes. References to quantifiers owned by *other* boxes
  /// (correlation) are preserved verbatim.
  Box* CopyBoxShallow(const Box* box);

  /// Deep clone of the whole graph (ids preserved). Used by the
  /// optimization pipeline to compare EMST and no-EMST variants.
  std::unique_ptr<QueryGraph> Clone() const;

  /// Stratum number per box id (base tables = 0; SCC members share one
  /// stratum). Boxes in a non-trivial SCC are recursive.
  struct StrataInfo {
    std::map<int, int> stratum;          ///< box id -> stratum
    std::map<int, int> scc_id;           ///< box id -> SCC id
    std::set<int> recursive_boxes;       ///< ids in non-trivial SCCs
    int max_stratum = 0;
  };
  StrataInfo ComputeStrata() const;

  /// Structural invariant checks (tests; also run after each rewrite phase
  /// in debug). Verifies quantifier ownership maps, that non-correlated
  /// expression references resolve, arities of set-ops, etc.
  Status Validate() const;

  /// Count of live boxes / quantifiers (complexity metrics for Figure 4).
  int NumBoxes() const;
  int NumQuantifiers() const;

  // Top-level ORDER BY / LIMIT, applied after the top box is evaluated.
  std::vector<OrderSpec> order_by;
  std::optional<int64_t> limit;

 private:
  Box* AllocateBox(BoxKind kind, std::string op_name, std::string label);

  std::vector<std::unique_ptr<Box>> boxes_;
  std::map<int, Box*> box_by_id_;
  std::map<int, Box*> quantifier_owner_;
  Box* top_ = nullptr;
  int next_box_id_ = 1;
  int next_quantifier_id_ = 1;
};

}  // namespace starmagic

#endif  // STARMAGIC_QGM_GRAPH_H_

#ifndef STARMAGIC_OPTIMIZER_COST_MODEL_H_
#define STARMAGIC_OPTIMIZER_COST_MODEL_H_

#include <vector>

#include "optimizer/cardinality.h"

namespace starmagic {

/// Simple work-based cost model: cost counts tuples scanned, probed, and
/// produced by left-deep hash-join pipelines, once per box evaluation;
/// boxes whose subtree carries correlation (references to outer
/// quantifiers) are charged once per estimated outer binding.
///
/// When a catalog is supplied, base-table joins whose bound columns are
/// covered by a declared secondary index skip the scan/build charge (the
/// executor probes the index instead); without a usable index the full
/// input is charged. This is what makes an index flip the paper's C1/C2
/// comparison on bound queries.
class CostModel {
 public:
  struct Options {
    /// Executor memoizes correlated evaluations per distinct binding
    /// (true for the Original/Magic strategies, false for Correlated).
    bool memoized_correlation = true;
  };

  CostModel(const QueryGraph* graph, CardinalityEstimator* estimator,
            const Catalog* catalog)
      : graph_(graph), estimator_(estimator), catalog_(catalog) {}
  CostModel(const QueryGraph* graph, CardinalityEstimator* estimator,
            const Catalog* catalog, Options options)
      : graph_(graph), estimator_(estimator), catalog_(catalog),
        options_(options) {}

  /// Cost of evaluating `box` once with the given ForEach join order
  /// (quantifier ids). Also returns the output row estimate via out param.
  double BoxCost(const Box* box, const std::vector<int>& order,
                 double* out_rows = nullptr);

  /// Cost of one full evaluation of the graph: every box reachable from
  /// the top, weighted by its correlation multiplier.
  double GraphCost();

  /// Estimated number of times a box whose correlation signature is
  /// `external` (qgm ExternalRefs) is evaluated: 1 when uncorrelated.
  double CorrelationMultiplier(const ColumnRefs& external);

  /// The secondary index (if any) the executor would probe when joining
  /// quantifier `qid` of `box` after the quantifiers in `bound` are
  /// available. Returns nullptr when no declared, synced index applies.
  const SecondaryIndex* UsableIndex(const Box* box, const Quantifier& q,
                                    const std::set<int>& bound) const;

 private:
  const QueryGraph* graph_;
  CardinalityEstimator* estimator_;
  const Catalog* catalog_;
  Options options_;
};

}  // namespace starmagic

#endif  // STARMAGIC_OPTIMIZER_COST_MODEL_H_

#ifndef STARMAGIC_QGM_BUILDER_H_
#define STARMAGIC_QGM_BUILDER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "qgm/graph.h"
#include "sql/ast.h"

namespace starmagic {

/// Translates a parsed query into a QGM query graph: resolves names
/// against the catalog, expands views (sharing a single box per view —
/// common subexpressions, §2), lowers subqueries to E/A/Scalar
/// quantifiers, and builds groupby-triplets for blocks with grouping or
/// aggregation (§2).
class QgmBuilder {
 public:
  explicit QgmBuilder(const Catalog* catalog) : catalog_(catalog) {}

  /// Builds the graph for a query blob. The top box is labeled "QUERY".
  Result<std::unique_ptr<QueryGraph>> Build(const AstBlob& blob);

 private:
  struct Scope;

  Result<Box*> BuildBlob(QueryGraph* g, const AstBlob& blob, Scope* correlation,
                         const std::string& label);
  Result<Box*> BuildBlock(QueryGraph* g, const AstBlock& block,
                          Scope* correlation, const std::string& label);
  Result<Box*> BuildSimpleSelect(QueryGraph* g, const AstBlock& block,
                                 Scope* correlation, const std::string& label);
  Result<Box*> BuildGroupByTriplet(QueryGraph* g, const AstBlock& block,
                                   Scope* correlation, const std::string& label);

  /// Resolves a FROM-clause relation name to its box (base table, view, or
  /// in-progress recursive view).
  Result<Box*> ResolveRelation(QueryGraph* g, const std::string& name);
  Result<Box*> BuildView(QueryGraph* g, const ViewDefinition& view);

  /// Adds one WHERE/HAVING conjunct to `box`: subquery conjuncts become
  /// quantifiers; everything else becomes a predicate expression.
  Status AddConjunct(QueryGraph* g, Box* box, Scope* scope,
                     const AstExpr& conjunct);

  /// Lowers an AST expression to a QGM expression over `scope`; scalar
  /// subqueries become kScalar quantifiers in `box`. When `allow_aggregates`
  /// aggregate calls become kAggregate nodes (groupby construction only).
  Result<ExprPtr> BuildExpr(QueryGraph* g, Box* box, Scope* scope,
                            const AstExpr& e, bool allow_aggregates);

  Result<ExprPtr> ResolveColumn(Scope* scope, const AstColumnRef& ref);

  const Catalog* catalog_;
  // Per-Build() memo state.
  std::map<std::string, Box*> table_boxes_;     ///< base tables, keyed lower
  std::map<std::string, Box*> view_boxes_;      ///< finished views
  std::map<std::string, Box*> views_in_progress_;  ///< recursive placeholders
  /// Every view being expanded (plain and recursive), outermost first.
  std::vector<std::string> view_stack_;
  int anon_counter_ = 0;
};

/// Splits an AST boolean expression into top-level AND conjuncts
/// (borrowed by tests).
void SplitAstConjuncts(const AstExpr& e, std::vector<const AstExpr*>* out);

}  // namespace starmagic

#endif  // STARMAGIC_QGM_BUILDER_H_

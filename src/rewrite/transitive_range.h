#ifndef STARMAGIC_REWRITE_TRANSITIVE_RANGE_H_
#define STARMAGIC_REWRITE_TRANSITIVE_RANGE_H_

#include <vector>

#include "rewrite/rule.h"

namespace starmagic {

/// Derives range conjuncts across join equalities: in a select box with
/// `a = b` between columns of two ForEach quantifiers and `a θ X` (θ one
/// of <, <=, >, >=), adds `b θ X` when no conjunct says so already. The
/// new conjunct is implied, so no answer changes; it lets a range that
/// condition magic grounds on one join input (`e.workdept <= bound.bound`)
/// filter the other input too, whichever the join order scans first.
///
/// It derives only when
///  - X is a non-NULL literal or a column of a ForEach or scalar
///    quantifier (of this box or an enclosing one), and does not
///    reference b's quantifier;
///  - b's quantifier ranges over a stored table. A conjunct derived onto
///    a view's column would be moved into the view by local-pushdown and
///    derived again on the next pass; views are restricted by magic;
///  - a, b and X have one known static type, traced through column
///    references and MIN/MAX to stored columns or literals, and that type
///    is INTEGER, VARCHAR or BOOLEAN. Such comparisons never raise an
///    error, so the derived conjunct raises none the query would not.
///    DOUBLE is left out: a DOUBLE column may hold INTEGER values, which
///    compare exactly with each other but by rounding with doubles, so
///    `a = b` and `a < X` need not imply `b < X` beyond 2^53.
class TransitiveRangeRule : public RewriteRule {
 public:
  const char* name() const override { return "transitive-range"; }
  Result<bool> Apply(RewriteContext* ctx, Box* box) override;
};

/// Groups the range conjuncts of `box` that imply each other through its
/// join equalities: `a θ X` and `b θ X` with `a = b` (transitively, and
/// with either side written first). Entry i is the index of the first
/// predicate in predicate i's group, i itself for a predicate in no
/// group. Empty when the box has no join equality or fewer than two range
/// conjuncts, i.e. when no group can have two members.
/// Cardinality estimation counts each group's selectivity once, so the
/// conjuncts TransitiveRangeRule adds leave row estimates unchanged.
std::vector<int> ImpliedRangeGroups(const Box& box);

}  // namespace starmagic

#endif  // STARMAGIC_REWRITE_TRANSITIVE_RANGE_H_

#ifndef STARMAGIC_MAGIC_EMST_RULE_H_
#define STARMAGIC_MAGIC_EMST_RULE_H_

#include <map>
#include <string>

#include "magic/adornment.h"
#include "rewrite/rule.h"

namespace starmagic {

/// Tuning knobs for the extended magic-sets transformation. Defaults
/// reproduce the paper's behavior; the ablation benches flip them.
struct EmstOptions {
  /// Build supplementary-magic-boxes for reusable join prefixes (§4.1).
  bool use_supplementary = true;
  /// Push non-equality conditions via condition magic — grounded as
  /// MIN/MAX bounds over the magic table (the ground-magic-sets / magic
  /// conditions idea of [MFPR90b]).
  bool push_conditions = true;
  /// Consider stored (base) tables as adornable targets. The paper leaves
  /// stored tables untouched; kept as an option for experimentation.
  bool magic_on_base_tables = false;
};

/// The EMST rewrite rule (§4): combines adornment (Algorithm 4.1,
/// adorn-box) and the magic transformation (Algorithm 4.2, magic-process)
/// into one pass over each QGM box. Enabled only in phase 2 of
/// query-rewrite (§3.3); requires join orders chosen by a prior plan
/// optimization.
///
/// Per box B, in join order, each ForEach quantifier q over a derived box
/// Bq is adorned from the predicates that eligible (preceding) quantifiers
/// can feed it; q is retargeted to a per-(box, adornment) copy of Bq; a
/// magic box (select- or union-box) computing the relevant bindings is
/// attached — as a magic quantifier when the copy accepts one (AMQ), or as
/// a linked magic box otherwise (NMQ), in which case the copy passes the
/// restriction to its children when it is itself processed. Supplementary-
/// magic-boxes factor shared join prefixes; conditions ('c' adornments)
/// are grounded as aggregate bounds over the magic table.
class EmstRule : public RewriteRule {
 public:
  /// `pristine` is the graph as phase 2 found it (QueryGraph::Clone keeps
  /// box ids); adorning a box whose unadorned origin was already
  /// garbage-collected rebuilds the origin from it. May be null.
  explicit EmstRule(EmstOptions options = {},
                    const QueryGraph* pristine = nullptr)
      : options_(options), pristine_(pristine) {}

  const char* name() const override { return "emst"; }
  Result<bool> Apply(RewriteContext* ctx, Box* box) override;

  /// Clears the per-query memo of adorned copies. The pipeline calls this
  /// between queries (rule instances are otherwise stateless).
  void ResetMemo() {
    adorned_copies_.clear();
    origins_.clear();
    stand_ins_.clear();
  }

 private:
  struct AdornResult {
    std::string adornment;
    std::map<int, BinaryOp> condition_ops;  ///< per 'c' column
    std::vector<Binding> bindings;          ///< 'b' and 'c' bindings
  };

  /// Algorithm 4.1 applied to quantifier `q` of AMQ box `box`:
  /// derives the adornment from predicates over the eligible quantifiers.
  AdornResult AdornQuantifier(const Box& box, const Quantifier& q,
                              const std::set<int>& eligible) const;

  Result<bool> ProcessAmqBox(RewriteContext* ctx, Box* box);
  Result<bool> ProcessNmqBox(RewriteContext* ctx, Box* box);

  /// Returns (creating if needed) the adorned copy of `target`: `target`
  /// itself when it already carries `adorn`, else the memoized or new copy
  /// of the unadorned box it came from.
  Result<Box*> GetOrCreateAdornedCopy(RewriteContext* ctx, Box* target,
                                      const AdornResult& adorn);

  /// The live unadorned box with id `origin_id`, rebuilt from `pristine_`
  /// (with any collected descendants) once garbage collection removed it.
  Result<Box*> LiveOrigin(QueryGraph* g, int origin_id);

  /// Attaches the magic contribution `m` to `copy` (AMQ: magic quantifier
  /// + join/bound predicates; NMQ: link), extending an existing magic box
  /// into a union-box when the copy already has one (recursive magic).
  Status AttachMagic(RewriteContext* ctx, Box* copy, Box* m,
                     const AdornResult& adorn);

  std::string MemoKey(int origin_id, const AdornResult& adorn) const;

  EmstOptions options_;
  std::map<std::string, int> adorned_copies_;  ///< memo key -> box id
  const QueryGraph* pristine_;
  /// Adorned copy or stand-in id -> id of the unadorned box it stands for.
  std::map<int, int> origins_;
  /// Collected origin id -> id of the stand-in rebuilt from `pristine_`.
  std::map<int, int> stand_ins_;
};

}  // namespace starmagic

#endif  // STARMAGIC_MAGIC_EMST_RULE_H_

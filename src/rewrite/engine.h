#ifndef STARMAGIC_REWRITE_ENGINE_H_
#define STARMAGIC_REWRITE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "rewrite/rule.h"

namespace starmagic {

/// Per-rule outcome of one RewriteEngine::Run (the paper's Table-1 story
/// depends on attributing *which* rules fired in which phase).
struct RuleRunStats {
  std::string rule;
  int64_t fires = 0;     ///< applications that changed the graph
  int64_t attempts = 0;  ///< (rule, box) offers
  /// Time of this rule's attempts (fired or not): each spans from the end
  /// of the previous attempt in the pass to the end of its own Apply.
  double wall_ms = 0;
};

/// Aggregate outcome of one RewriteEngine::Run.
struct RewriteRunStats {
  int total_applications = 0;
  int passes = 0;  ///< fixpoint passes, including the final no-change pass
  std::vector<RuleRunStats> rules;  ///< one entry per added rule, add order
};

/// Forward-chaining rule engine (§3.1). A cursor traverses the boxes of
/// the query graph depth-first from the top; at each box every enabled
/// rule is offered the box. Passes repeat until a fixpoint (no rule fires
/// through a whole pass) or the application budget is exhausted.
class RewriteEngine {
 public:
  RewriteEngine() = default;

  /// Adds a rule; rules fire in the order they were added.
  void AddRule(std::unique_ptr<RewriteRule> rule);

  /// Enables/disables a rule by name (EMST is only enabled in phase 2,
  /// §3.3). Returns false — and emits a warning event on the configured
  /// tracer — when no rule has that name, so configuration typos are
  /// detectable.
  bool SetEnabled(const std::string& name, bool enabled);
  bool IsEnabled(const std::string& name) const;

  /// Tracer for SetEnabled warnings and (when ctx->tracer is null) Run
  /// instrumentation. May be null.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Runs to fixpoint. Returns per-rule fire counts and wall time.
  Result<RewriteRunStats> Run(RewriteContext* ctx);

  /// Safety budget (default 10000 applications).
  void set_max_applications(int n) { max_applications_ = n; }

 private:
  struct Entry {
    std::unique_ptr<RewriteRule> rule;
    bool enabled = true;
  };
  std::vector<Entry> rules_;
  int max_applications_ = 10000;
  Tracer* tracer_ = nullptr;
};

/// Depth-first (pre-order) box order from the top box; shared with the
/// EMST driver which wants the same traversal.
std::vector<Box*> DepthFirstBoxes(const QueryGraph& graph);

}  // namespace starmagic

#endif  // STARMAGIC_REWRITE_ENGINE_H_

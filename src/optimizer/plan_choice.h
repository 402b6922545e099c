#ifndef STARMAGIC_OPTIMIZER_PLAN_CHOICE_H_
#define STARMAGIC_OPTIMIZER_PLAN_CHOICE_H_

#include <cstdint>
#include <string>

namespace starmagic {

/// One (phase, rule) row of the per-rule fire table: which rewrite rules
/// fired in which pipeline phase, and how long their Apply calls took.
struct RuleFireStats {
  std::string phase;  ///< "phase1", "phase2", "phase3", "phase2-sips", ...
  std::string rule;
  int64_t fires = 0;
  int64_t attempts = 0;
  double wall_ms = 0;
};

/// The §3.2 outcome of one compile. A base of every struct that carries
/// it (PipelineResult, CachedPlan, QueryResult, QueryLogEntry), so passing
/// the outcome along is one assignment.
struct PlanChoice {
  double cost_no_emst = 0;       ///< C1: plan cost before EMST
  double cost_with_emst = 0;     ///< C2: plan cost after EMST (magic only)
  bool emst_applied = false;     ///< EMST pipeline ran
  bool emst_chosen = false;      ///< transformed plan was the winner
  int rewrite_applications = 0;  ///< total across phases (= sum of fires)
};

}  // namespace starmagic

#endif  // STARMAGIC_OPTIMIZER_PLAN_CHOICE_H_

#ifndef STARMAGIC_OBS_DECISION_AUDIT_H_
#define STARMAGIC_OBS_DECISION_AUDIT_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace starmagic {

/// The outcome of auditing one §3.2 plan decision: what the optimizer
/// estimated for the plan it chose, what execution actually cost, and
/// whether the estimate was off by more than the configured ratio.
struct DecisionAudit {
  bool emst_chosen = false;
  double estimated_cost = 0;  ///< C2 when EMST won, C1 otherwise
  int64_t actual_work = 0;    ///< ExecStats::TotalWork of the execution
  double qerror = 1;          ///< max(est/act, act/est), inputs clamped >= 1
  bool mispredicted = false;  ///< qerror exceeded the threshold

  /// "est_cost=... actual_work=... qerror=... verdict=ok|MISPREDICT".
  std::string ToString() const;
};

/// Q-error of an estimate against an actual: max(e/a, a/e) with both sides
/// clamped to >= 1 so zero/negative inputs cannot blow up the ratio.
/// Always >= 1; 1 means a perfect estimate.
double QError(double estimated, double actual);

/// The Q-error past which the engine's audit of each executed decision
/// counts a mispredict.
constexpr double kMispredictRatio = 10.0;

/// Audits one executed plan decision of the §3.2 heuristic (optimize
/// without EMST -> C1, with EMST -> C2, run the cheaper plan):
///   * increments `optimizer.decisions.emst` or `optimizer.decisions.no_emst`,
///   * observes the estimate-vs-actual Q-error in `qerror.plan_cost`,
///   * past `mispredict_ratio`, increments `optimizer.mispredict` and
///     records a `decision-audit` span carrying a `warning` attribute plus
///     an `optimizer.mispredict` instant event.
/// Both sinks may be null; the returned audit is computed regardless.
/// Deterministic: every input is a deterministic estimate or work counter.
DecisionAudit AuditPlanDecision(double cost_no_emst, double cost_with_emst,
                                bool emst_chosen, int64_t actual_work,
                                double mispredict_ratio,
                                MetricsRegistry* metrics, Tracer* tracer);

}  // namespace starmagic

#endif  // STARMAGIC_OBS_DECISION_AUDIT_H_

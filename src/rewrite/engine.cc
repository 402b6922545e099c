#include "rewrite/engine.h"

#include <chrono>
#include <set>

#include "common/string_util.h"

namespace starmagic {

std::vector<Box*> DepthFirstBoxes(const QueryGraph& graph) {
  std::vector<Box*> order;
  if (graph.top() == nullptr) return order;
  std::set<int> seen;
  std::vector<Box*> stack{graph.top()};
  while (!stack.empty()) {
    Box* b = stack.back();
    stack.pop_back();
    if (!seen.insert(b->id()).second) continue;
    order.push_back(b);
    // Push children in reverse so the first quantifier is visited first.
    const auto& qs = b->quantifiers();
    for (auto it = qs.rbegin(); it != qs.rend(); ++it) {
      if ((*it)->input != nullptr) stack.push_back((*it)->input);
    }
  }
  return order;
}

void RewriteEngine::AddRule(std::unique_ptr<RewriteRule> rule) {
  rules_.push_back(Entry{std::move(rule), true});
}

bool RewriteEngine::SetEnabled(const std::string& name, bool enabled) {
  bool found = false;
  for (Entry& e : rules_) {
    if (name == e.rule->name()) {
      e.enabled = enabled;
      found = true;
    }
  }
  if (!found && tracer_ != nullptr) {
    tracer_->AddEvent("rewrite.unknown_rule", "rewrite",
                      {{"rule", name}, {"enabled", enabled}});
  }
  return found;
}

bool RewriteEngine::IsEnabled(const std::string& name) const {
  for (const Entry& e : rules_) {
    if (name == e.rule->name()) return e.enabled;
  }
  return false;
}

Result<RewriteRunStats> RewriteEngine::Run(RewriteContext* ctx) {
  using Clock = std::chrono::steady_clock;
  RewriteRunStats run;
  run.rules.reserve(rules_.size());
  for (const Entry& e : rules_) {
    run.rules.push_back(RuleRunStats{e.rule->name(), 0, 0, 0});
  }
  Tracer* tracer = ctx->tracer != nullptr ? ctx->tracer : tracer_;

  int total = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    ++run.passes;
    SpanScope pass_span(tracer, StrCat("rewrite-pass ", run.passes),
                        "rewrite");
    int fires_this_pass = 0;
    // Snapshot the traversal; rules may mutate the graph, in which case we
    // restart the pass (boxes may be dead).
    std::vector<Box*> order = DepthFirstBoxes(*ctx->graph);
    // Ids are captured while every snapshot box is still live: a rule may
    // GC boxes mid-pass, after which `box` must not be dereferenced until
    // the id lookup below proves it still exists.
    std::vector<int> ids;
    ids.reserve(order.size());
    for (const Box* b : order) ids.push_back(b->id());
    // One clock read per attempt: each attempt ends where the next starts,
    // so the per-rule wall times tile the pass (the bookkeeping between
    // two Apply calls is charged to the second).
    Clock::time_point mark = Clock::now();
    for (size_t i = 0; i < order.size(); ++i) {
      Box* box = order[i];
      const int box_id = ids[i];
      if (ctx->graph->GetBox(box_id) != box) {
        changed = true;
        break;
      }
      for (size_t ri = 0; ri < rules_.size(); ++ri) {
        Entry& e = rules_[ri];
        if (!e.enabled) continue;
        RuleRunStats& rstats = run.rules[ri];
        std::string debug_id;
        if (ctx->trace != nullptr ||
            (tracer != nullptr && tracer->enabled())) {
          debug_id = box->DebugId();
        }
        ++rstats.attempts;
        Result<bool> applied = e.rule->Apply(ctx, box);
        Clock::time_point now = Clock::now();
        rstats.wall_ms +=
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - mark)
                .count() /
            1e6;
        mark = now;
        if (!applied.ok()) return applied.status();
        if (*applied) {
          ++total;
          ++fires_this_pass;
          ++rstats.fires;
          ctx->applications++;
          if (ctx->trace != nullptr) {
            *ctx->trace += StrCat(e.rule->name(), " fired at ", debug_id, "\n");
          }
          if (tracer != nullptr && tracer->enabled()) {
            tracer->AddEvent("rule-fire", "rewrite",
                             {{"rule", e.rule->name()}, {"box", debug_id}});
          }
          if (total > max_applications_) {
            return Status::Internal(
                StrCat("rewrite did not converge after ", max_applications_,
                       " rule applications"));
          }
          changed = true;
        }
        // A rule may have removed `box`; stop offering it further rules.
        if (ctx->graph->GetBox(box_id) != box) break;
      }
      if (ctx->graph->GetBox(box_id) != box) break;
    }
    ctx->graph->GarbageCollect();
    pass_span.SetAttribute("fires", static_cast<int64_t>(fires_this_pass));
    pass_span.SetAttribute("boxes", static_cast<int64_t>(order.size()));
  }
  run.total_applications = total;
  return run;
}

}  // namespace starmagic

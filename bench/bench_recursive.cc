// Magic sets on recursion (§4: "the EMST rule applies to nonrecursive and
// general recursive queries with stratified negation and aggregation").
//
// The classic demonstration: transitive closure with a bound source.
// Original evaluates the full closure; magic restricts the fixpoint to
// tuples reachable from the bound source via a recursive magic table.

#include <cstdio>

#include "bench_json.h"
#include "workloads.h"

namespace starmagic::bench {
namespace {

int Run() {
  BenchObs obs("recursive");
  BenchJson report("recursive", BenchObs::Smoke() ? 60 : 400);
  Database db;
  if (Status s = LoadEdges(&db, BenchObs::Smoke() ? 60 : 400, 2.5, 2024);
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = db.Execute(
          "CREATE RECURSIVE VIEW tc (src, dst) AS "
          "SELECT src, dst FROM edge UNION "
          "SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src");
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  const char* bound_query = "SELECT src, dst FROM tc WHERE src = 5";
  const char* full_query = "SELECT COUNT(*) AS pairs FROM tc";

  std::printf("Recursive magic: transitive closure over %d nodes\n\n",
              BenchObs::Smoke() ? 60 : 400);
  std::printf("bound-source query: %s\n", bound_query);
  std::printf("%-11s %10s %12s %8s %10s\n", "strategy", "time(ms)", "work",
              "rows", "fixpoint");
  Measured original;
  Measured magic;
  for (ExecutionStrategy strategy :
       {ExecutionStrategy::kOriginal, ExecutionStrategy::kMagic}) {
    auto m = MeasureQuery(&db, bound_query, obs.Options(strategy));
    if (!m.ok()) {
      std::fprintf(stderr, "%s: %s\n", StrategyName(strategy),
                   m.status().ToString().c_str());
      return 1;
    }
    std::printf("%-11s %10.2f %12lld %8lld %10lld\n", StrategyName(strategy),
                m->exec_ms, static_cast<long long>(m->work()),
                static_cast<long long>(m->rows()),
                static_cast<long long>(m->last.exec_stats.fixpoint_iterations));
    report.Add({"bound_source", StrategyName(strategy), m->work(), m->exec_ms,
                m->rows()});
    (strategy == ExecutionStrategy::kOriginal ? original : magic) =
        std::move(*m);
  }
  if (original.rows() != magic.rows()) {
    std::printf("RESULTS DIVERGE (%lld vs %lld rows)\n",
                static_cast<long long>(original.rows()),
                static_cast<long long>(magic.rows()));
    return 1;
  }
  double ratio = magic.work() > 0
                     ? static_cast<double>(original.work()) / magic.work()
                     : 0;
  std::printf("\nmagic restricts the fixpoint: %.1fx less work\n", ratio);

  std::printf("\nfull-closure query (magic cannot help; the §3.2 heuristic "
              "must not degrade it): %s\n", full_query);
  auto full_orig = MeasureQuery(&db, full_query,
                                obs.Options(ExecutionStrategy::kOriginal));
  auto full_magic =
      MeasureQuery(&db, full_query, obs.Options(ExecutionStrategy::kMagic));
  if (!full_orig.ok() || !full_magic.ok()) {
    std::fprintf(stderr, "%s %s\n", full_orig.status().ToString().c_str(),
                 full_magic.status().ToString().c_str());
    return 1;
  }
  report.Add({"full_closure", "Original", full_orig->work(),
              full_orig->exec_ms, full_orig->rows()});
  report.Add({"full_closure", "EMST", full_magic->work(), full_magic->exec_ms,
              full_magic->rows()});
  std::printf("original work=%lld, magic-strategy work=%lld\n",
              static_cast<long long>(full_orig->work()),
              static_cast<long long>(full_magic->work()));
  const int64_t full_work = full_orig->work();
  bool ok =
      ratio >= 2.0 && full_magic->work() <= full_work + full_work / 10 + 64;
  std::printf("%s\n", ok ? "CLAIMS REPRODUCED" : "CLAIMS NOT REPRODUCED");
  return obs.Verdict(ok);
}

}  // namespace
}  // namespace starmagic::bench

int main() { return starmagic::bench::Run(); }

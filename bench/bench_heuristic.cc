// Exercises the §3.2 property of the cost-based join-order heuristic:
// "usage of the EMST rewrite rule cannot degrade a query plan produced
// without using the EMST rule."
//
// For a battery of queries we optimize twice — once with the full magic
// pipeline (which compares plan costs and keeps the cheaper plan) and once
// with EMST disabled — execute both, and check that the heuristic's choice
// never does more work than the no-EMST plan (within a small tolerance for
// tie-breaking).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/string_util.h"
#include "workloads.h"

namespace starmagic::bench {
namespace {

int Run() {
  BenchObs obs("heuristic");
  Database db;
  EmpDeptConfig config;
  config.num_departments = 200;
  config.num_employees = BenchObs::Smoke() ? 500 : 10000;
  config.num_projects = BenchObs::Smoke() ? 100 : 2000;
  if (Status s = LoadEmpDept(&db, config); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = LoadProbe(&db, "probe", 500, 20, 7); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = CreateBenchViews(&db); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // A mix of magic-friendly and magic-hostile queries. The last ones ask
  // for *everything* in a view — magic can only add overhead there, so the
  // cost comparison must fall back to the no-EMST plan.
  std::vector<std::string> queries = {
      "SELECT d.deptname, s.avgsalary FROM department d, avgDeptSal s "
      "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'",
      "SELECT p.tag, a.spend FROM probe p, deptActivity a "
      "WHERE p.pdept = a.dept",
      "SELECT d.deptname, s.workdept, s.avgsalary "
      "FROM department d, avgMgrSal s WHERE d.deptno = s.workdept "
      "AND d.deptname = 'Planning'",
      "SELECT d.deptname, a.spend FROM department d, deptActivity a "
      "WHERE a.dept <= d.deptno AND d.deptname = 'Planning'",
      // Magic-hostile: the whole view is needed.
      "SELECT s.workdept, s.avgsalary FROM avgDeptSal s",
      "SELECT d.deptname, s.avgsalary FROM department d, avgDeptSal s "
      "WHERE d.deptno = s.workdept",
      // Local predicate only on the view output (no join restriction).
      "SELECT s.workdept FROM avgDeptSal s WHERE s.avgsalary > 60000",
  };

  std::printf("Heuristic property (§3.2): chosen plan never worse than the "
              "no-EMST plan\n\n");
  std::printf("%-3s %14s %14s %9s %s\n", "Q", "no-EMST work", "chosen work",
              "chosen", "verdict");
  BenchJson report("heuristic", config.num_employees);
  int failures = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto baseline = MeasureQuery(&db, queries[i],
                                 obs.Options(ExecutionStrategy::kOriginal));
    auto chosen =
        MeasureQuery(&db, queries[i], obs.Options(ExecutionStrategy::kMagic));
    if (!baseline.ok() || !chosen.ok()) {
      std::fprintf(stderr, "Q%zu failed: %s %s\n", i,
                   baseline.status().ToString().c_str(),
                   chosen.status().ToString().c_str());
      ++failures;
      continue;
    }
    std::string workload = StrCat("Q", i);
    report.Add({workload, "no-emst", baseline->work(), baseline->wall_ms,
                baseline->rows()});
    report.Add(
        {workload, "chosen", chosen->work(), chosen->wall_ms, chosen->rows()});
    // Tolerance: magic tables add a few probes even when they help overall;
    // "cannot degrade" is about the plan-cost decision, which we verify by
    // measured work with 10% + constant slack.
    const int64_t base_work = baseline->work();
    bool ok = chosen->work() <= base_work + base_work / 10 + 64;
    if (!ok) ++failures;
    std::printf("%-3zu %14lld %14lld %9s %s\n", i,
                static_cast<long long>(base_work),
                static_cast<long long>(chosen->work()),
                chosen->last.emst_chosen ? "EMST" : "no-EMST",
                ok ? "ok" : "DEGRADED");
  }
  std::printf("\n%s\n", failures == 0 ? "PROPERTY HOLDS" : "PROPERTY VIOLATED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace starmagic::bench

int main() { return starmagic::bench::Run(); }

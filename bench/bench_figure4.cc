// Reproduces Figures 4 and 5 of the paper: the QGM query graph of query D
// (Example 1.1) before query-rewrite and after phases 1, 2, and 3, plus
// the SQL-ish rendering of every box (Figure 5).
//
// Checks, mirroring Example 4.1:
//   * phase 1 merges AVGMGRSAL and MGRSAL select-boxes (graph shrinks),
//   * phase 2 introduces a supplementary-magic-box (sm_QUERY) and magic
//     boxes for the adorned views (m_*), and the groupby box is adorned bf,
//   * phase 3 merges the magic boxes away again (SD2' shape): the final
//     graph has exactly one extra box and one extra join relative to
//     phase 1, as the paper states in the introduction.

#include <cstdio>
#include <string>

#include "bench_json.h"
#include "qgm/printer.h"
#include "workloads.h"

namespace starmagic::bench {
namespace {

int CountSubstring(const std::string& text, const std::string& needle) {
  int n = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

int Run() {
  BenchObs obs("figure4");
  Database db;
  EmpDeptConfig config;
  config.num_departments = 50;
  config.num_employees = BenchObs::Smoke() ? 200 : 1000;
  config.num_projects = 100;
  if (Status s = LoadEmpDept(&db, config); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = CreatePaperViews(&db); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  const char* query_d =
      "SELECT d.deptname, s.workdept, s.avgsalary "
      "FROM department d, avgMgrSal s "
      "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'";

  QueryOptions options = obs.Options();
  options.pipeline.capture_snapshots = true;
  options.pipeline.cost_compare = false;  // always show the transformed graph
  auto r = db.Explain(query_d, options);
  if (!r.ok()) {
    std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
    return 1;
  }

  std::printf("Figure 4: QGM query graph of query D through the rewrite "
              "phases\n\n");
  const std::string* phase1 = nullptr;
  const std::string* phase2 = nullptr;
  const std::string* phase3 = nullptr;
  for (const auto& [label, snapshot] : r->snapshots) {
    std::printf("======== %s ========\n%s\n", label.c_str(), snapshot.c_str());
    if (label == "after-phase1") phase1 = &snapshot;
    if (label == "after-phase2") phase2 = &snapshot;
    if (label == "after-phase3") phase3 = &snapshot;
  }
  std::printf("======== final graph as SQL (Figure 5) ========\n%s\n",
              GraphToSql(*r->graph).c_str());

  int failures = 0;
  auto expect = [&failures](bool cond, const char* what) {
    std::printf("  [%s] %s\n", cond ? "ok" : "FAIL", what);
    if (!cond) ++failures;
  };
  std::printf("Example 4.1 structural checks:\n");
  expect(phase1 != nullptr && phase2 != nullptr && phase3 != nullptr,
         "snapshots captured for all three phases");
  if (phase1 && phase2 && phase3) {
    expect(CountSubstring(*phase1, "AVGMGRSAL_T1") >= 1 &&
               CountSubstring(*phase1, "(MGRSAL)") == 0,
           "phase 1 merged MGRSAL into the groupby triplet (merge rule)");
    expect(CountSubstring(*phase2, "supplementary-magic") >= 1,
           "phase 2 created a supplementary-magic-box (sm_QUERY)");
    expect(CountSubstring(*phase2, "[magic]") >= 1,
           "phase 2 created magic boxes (m_*)");
    expect(CountSubstring(*phase2, "^bf") >= 1,
           "phase 2 adorned the view bf (workdept bound)");
    expect(CountSubstring(*phase3, "[magic]") == 0,
           "phase 3 merged the magic boxes away (SD2' shape)");
    expect(CountSubstring(*phase3, "supplementary-magic") == 1,
           "phase 3 kept the shared supplementary box (one extra box)");
  }
  // Run the query once under the same options, so this bench also
  // contributes a work-counter sample to the regression harness.
  {
    BenchJson report("figure4", config.num_employees);
    auto m = MeasureQuery(&db, query_d, options);
    expect(m.ok() && m->last.emst_chosen, "the transformed query executes");
    if (m.ok()) {
      report.Add({"queryD", "EMST", m->work(), m->exec_ms, m->rows()});
    }
  }

  std::printf("\n%s\n", failures == 0 ? "ALL CHECKS PASSED" : "CHECKS FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace starmagic::bench

int main() { return starmagic::bench::Run(); }

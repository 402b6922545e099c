// Plan-cache compile savings: the same magic-rewritten queries executed
// cold (full parse -> rewrite -> optimize -> execute pipeline per run) and
// cached (EXECUTE of a prepared statement: plan-cache hit, clone + bind +
// execute only). The claim under test is twofold:
//
//   1. Identity — result rows and deterministic work counters are
//      bit-identical cold vs cached, at 1, 2, and 8 threads, and every
//      cached run actually hits (plan_cache_hit with zero rule fires on
//      the hot path). Any divergence is a correctness bug and fails hard
//      at every scale, smoke included.
//   2. Savings — skipping compilation makes the cached path faster than
//      the cold path on repeated executions (min over several reps).
//      Informational in smoke mode, where runs are too short to measure.
//
// Writes BENCH_plancache.json with paired "plan_cache=cold" /
// "plan_cache=cached" strategies per workload cell, which
// scripts/bench_report.py cross-checks for identity again offline.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/string_util.h"
#include "workloads.h"

namespace starmagic::bench {
namespace {

// `runs` Query() calls of `sql`, wall-clocked end to end — for the cold
// side that includes the whole compile pipeline, for the cached side the
// lookup, clone, bind and execution — checking that every run hit the plan
// cache (with no rule fired) exactly when `expect_hit`.
Result<Measured> MeasureSide(Database* db, const std::string& sql,
                             const QueryOptions& options, int runs,
                             bool expect_hit) {
  const int64_t hits_before = db->plan_cache()->stats().hits;
  SM_ASSIGN_OR_RETURN(Measured m, MeasureQuery(db, sql, options, runs));
  const int64_t hits = db->plan_cache()->stats().hits - hits_before;
  if (hits != (expect_hit ? runs : 0)) {
    return Status::Internal(StrCat(hits, " of ", runs,
                                   " runs hit the plan cache for: ", sql));
  }
  if (expect_hit && !m.last.rule_fires.empty()) {
    return Status::Internal(
        StrCat("rule fires on the cached hot path for: ", sql));
  }
  return m;
}

struct Workload {
  std::string name;
  std::string prepare;   ///< PREPARE <name> AS <body with ?>
  std::string execute;   ///< EXECUTE <name>(<args>)
  std::string cold_sql;  ///< the body with the arguments inlined
};

int Run() {
  BenchObs obs("plancache");
  const bool smoke = BenchObs::Smoke();
  const int reps = smoke ? 5 : 9;

  const int64_t nodes = smoke ? 300 : 3000;
  Database db;
  EmpDeptConfig emp_config;
  if (smoke) {
    emp_config.num_departments = 200;
    emp_config.num_employees = 5'000;
    emp_config.num_projects = 500;
  }
  if (Status st = LoadEdges(&db, nodes, 3.0, 11); !st.ok() ||
      !(st = db.ExecuteScript(R"sql(
        CREATE RECURSIVE VIEW tc (src, dst) AS
          SELECT src, dst FROM edge
          UNION
          SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src;
      )sql"))
           .ok() ||
      !(st = LoadEmpDept(&db, emp_config)).ok() ||
      !(st = CreateBenchViews(&db)).ok() ||
      !(st = db.Execute("ANALYZE")).ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  BenchJson report("plancache", nodes);

  const std::vector<Workload> workloads = {
      {"magic_recursive",
       "PREPARE deep AS SELECT dst FROM tc WHERE src = ? ORDER BY dst",
       "EXECUTE deep(1)",
       "SELECT dst FROM tc WHERE src = 1 ORDER BY dst"},
      {"magic_view_join",
       "PREPARE depts AS SELECT d.deptname, a.avgsalary "
       "FROM department d, avgDeptSal a "
       "WHERE d.deptno = a.workdept AND d.deptno = ? ORDER BY d.deptname",
       "EXECUTE depts(7)",
       "SELECT d.deptname, a.avgsalary FROM department d, avgDeptSal a "
       "WHERE d.deptno = a.workdept AND d.deptno = 7 ORDER BY d.deptname"},
  };

  std::printf(
      "Plan-cache compile savings (magic strategy, %d reps, min wall)\n\n",
      reps);
  std::printf("%-22s %-8s %-18s %10s %12s %8s\n", "workload", "threads",
              "strategy", "time(ms)", "work", "rows");

  bool identical = true;
  bool savings_ok = true;
  for (const Workload& w : workloads) {
    // PREPARE once; the compile it performs warms the cache for every
    // thread count (the plan is thread-count independent).
    if (auto r = db.Query(w.prepare, obs.Options()); !r.ok()) {
      std::fprintf(stderr, "%s: %s\n", w.name.c_str(),
                   r.status().ToString().c_str());
      return 1;
    }
    for (int threads : {1, 2, 8}) {
      QueryOptions options = obs.Options();
      options.num_threads = threads;
      auto cold = MeasureSide(&db, w.cold_sql, options, reps, false);
      auto cached = MeasureSide(&db, w.execute, options, reps, true);
      if (!cold.ok() || !cached.ok()) {
        std::fprintf(stderr, "%s: %s %s\n", w.name.c_str(),
                     cold.status().ToString().c_str(),
                     cached.status().ToString().c_str());
        return 1;
      }
      if (cached->work() != cold->work() || cached->rows() != cold->rows()) {
        std::fprintf(stderr,
                     "FAIL %s at %d threads: cached work %lld vs %lld, "
                     "rows %lld vs %lld\n",
                     w.name.c_str(), threads,
                     static_cast<long long>(cached->work()),
                     static_cast<long long>(cold->work()),
                     static_cast<long long>(cached->rows()),
                     static_cast<long long>(cold->rows()));
        identical = false;
      }
      if (threads == 1 && cached->wall_ms >= cold->wall_ms) savings_ok = false;
      std::string cell = StrCat(w.name, "_t", threads);
      for (bool hit : {false, true}) {
        const Measured& m = hit ? *cached : *cold;
        const char* strategy = hit ? "plan_cache=cached" : "plan_cache=cold";
        std::printf("%-22s %-8d %-18s %10.3f %12lld %8lld\n", cell.c_str(),
                    threads, strategy, m.wall_ms,
                    static_cast<long long>(m.work()),
                    static_cast<long long>(m.rows()));
        report.Add({cell, strategy, m.work(), m.wall_ms, m.rows()});
      }
    }
    std::printf("\n");
  }

  PlanCacheStats stats = db.plan_cache()->stats();
  std::printf("plan cache: hits=%lld misses=%lld invalidations=%lld "
              "evictions=%lld resident=%lld bytes\n",
              static_cast<long long>(stats.hits),
              static_cast<long long>(stats.misses),
              static_cast<long long>(stats.invalidations),
              static_cast<long long>(stats.evictions),
              static_cast<long long>(db.plan_cache()->resident_bytes()));

  // Identity is a correctness claim: a cached plan that computes something
  // different from a cold compile fails at every scale, smoke included.
  if (!identical) return 1;
  if (Status st = report.Write(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("claim: cached execution identical to cold compile: PASS\n");
  std::printf("claim: plan-cache hit faster than cold compile: %s%s\n",
              savings_ok ? "PASS" : "FAIL",
              smoke ? " (informational in smoke)" : "");
  return obs.Verdict(savings_ok);
}

}  // namespace
}  // namespace starmagic::bench

int main() { return starmagic::bench::Run(); }

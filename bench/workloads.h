#ifndef STARMAGIC_BENCH_WORKLOADS_H_
#define STARMAGIC_BENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "engine/database.h"

namespace starmagic::bench {

/// Observability hooks shared by the bench binaries, driven by env vars:
///   STARMAGIC_TRACE=1       record query-lifecycle spans; the destructor
///                           writes TRACE_<name>.json into the cwd.
///   STARMAGIC_BENCH_SMOKE=1 benches shrink their data scales (each bench
///                           checks Smoke() itself) and claim gates become
///                           informational instead of failing the process.
class BenchObs {
 public:
  explicit BenchObs(std::string name);
  ~BenchObs();

  /// The span sink to thread into QueryOptions; null when tracing is off
  /// so instrumented code stays on its zero-cost path.
  Tracer* tracer() { return tracer_.enabled() ? &tracer_ : nullptr; }

  /// QueryOptions for `strategy` with this bench's tracer attached.
  QueryOptions Options(
      ExecutionStrategy strategy = ExecutionStrategy::kMagic) {
    QueryOptions options(strategy);
    options.tracer = tracer();
    return options;
  }

  static bool Smoke();

  /// Exit code for a reproduction claim: failures are forgiven in smoke
  /// mode (tiny scales cannot reproduce the paper's ratios).
  int Verdict(bool pass) const { return pass || Smoke() ? 0 : 1; }

 private:
  std::string name_;
  Tracer tracer_;
};

/// What MeasureQuery saw: the best times over its runs and the record of
/// the last run (work, rows, emst_chosen, exec_stats, table, ...).
struct Measured {
  double exec_ms = 0;  ///< min QueryResult::exec_ms: execution only
  double wall_ms = 0;  ///< min QueryResult::wall_ms: the whole Query()
  QueryResult last;

  int64_t work() const { return last.exec_stats.TotalWork(); }
  int64_t rows() const { return last.table.num_rows(); }
};

/// The one bench harness: runs db->Query(sql, options) `runs` times and
/// returns the best times and the last record. Every run compiles and
/// executes afresh (no result cache survives a Query); catalog indexes
/// persist, as in a real system. Fails with the first failing run.
Result<Measured> MeasureQuery(Database* db, const std::string& sql,
                              const QueryOptions& options, int runs = 1);

/// Deterministic pseudo-random generator (splitmix64) so every bench run
/// sees identical data.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  int64_t Uniform(int64_t n);
  /// Zipf-ish skewed value in [0, n): low values are much more frequent.
  int64_t Skewed(int64_t n, double exponent = 1.2);

 private:
  uint64_t state_;
};

/// Parameters for the employee/department corpus used by Table 1.
struct EmpDeptConfig {
  int64_t num_departments = 2000;
  int64_t num_employees = 50000;
  int64_t num_projects = 5000;
  uint64_t seed = 42;
};

/// Creates and populates:
///   department(deptno, deptname, mgrno, budget)  PK deptno
///   employee(empno, empname, workdept, salary, bonus)  PK empno
///   project(projno, projname, deptno, budget)  PK projno
/// plus ANALYZE. Department 7 is named 'Planning'.
Status LoadEmpDept(Database* db, const EmpDeptConfig& config);

/// A probe table with controllable duplication: `<name>(pdept, tag)` with
/// `rows` rows whose pdept values are drawn from `distinct_depts` distinct
/// departments (so rows/distinct_depts duplicates per value on average).
Status LoadProbe(Database* db, const std::string& name, int64_t rows,
                 int64_t distinct_depts, uint64_t seed);

/// Registers the decision-support views shared by the Table 1 experiments:
///   avgDeptSal(workdept, avgsalary)        — aggregation over employee
///   deptActivity(dept, people, spend)      — aggregation over a join with
///                                            fan-out (employee x project)
///   bigDeptActivity(dept, people, spend)   — a view over deptActivity
/// plus the paper's mgrSal / avgMgrSal (CreatePaperViews).
Status CreateBenchViews(Database* db);

/// Directed graph for recursion benches: `edge(src, dst)` with
/// `num_nodes` nodes and roughly `num_nodes * avg_degree` edges, layered
/// so that paths terminate.
Status LoadEdges(Database* db, int64_t num_nodes, double avg_degree,
                 uint64_t seed);

/// Registers the avgMgrSal / mgrSal views of the paper's Example 1.1.
Status CreatePaperViews(Database* db);

}  // namespace starmagic::bench

#endif  // STARMAGIC_BENCH_WORKLOADS_H_

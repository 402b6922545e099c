#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"

namespace starmagic::bench {

BenchObs::BenchObs(std::string name) : name_(std::move(name)) {
  if (std::getenv("STARMAGIC_TRACE") != nullptr) tracer_.SetEnabled(true);
}

BenchObs::~BenchObs() {
  if (!tracer_.enabled()) return;
  std::string path = StrCat("TRACE_", name_, ".json");
  Status s = tracer_.WriteTraceEventJson(path);
  if (s.ok()) {
    std::printf("wrote %s (%zu spans, %zu events)\n", path.c_str(),
                tracer_.spans().size(), tracer_.events().size());
  } else {
    std::fprintf(stderr, "trace write failed: %s\n", s.ToString().c_str());
  }
}

bool BenchObs::Smoke() {
  return std::getenv("STARMAGIC_BENCH_SMOKE") != nullptr;
}

Result<Measured> MeasureQuery(Database* db, const std::string& sql,
                              const QueryOptions& options, int runs) {
  Measured m;
  for (int i = 0; i < runs; ++i) {
    SM_ASSIGN_OR_RETURN(m.last, db->Query(sql, options));
    if (i == 0 || m.last.exec_ms < m.exec_ms) m.exec_ms = m.last.exec_ms;
    if (i == 0 || m.last.wall_ms < m.wall_ms) m.wall_ms = m.last.wall_ms;
  }
  return m;
}

uint64_t Rng::Next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int64_t Rng::Uniform(int64_t n) {
  return n <= 0 ? 0 : static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
}

int64_t Rng::Skewed(int64_t n, double exponent) {
  if (n <= 1) return 0;
  double u = static_cast<double>(Next() % (1ULL << 53)) / (1ULL << 53);
  double v = std::pow(u, exponent * 2.0);
  int64_t r = static_cast<int64_t>(v * static_cast<double>(n));
  return std::min(n - 1, std::max<int64_t>(0, r));
}

Status LoadEmpDept(Database* db, const EmpDeptConfig& config) {
  SM_RETURN_IF_ERROR(db->Execute(
      "CREATE TABLE department (deptno INTEGER, deptname VARCHAR, "
      "mgrno INTEGER, budget DOUBLE)"));
  SM_RETURN_IF_ERROR(db->Execute(
      "CREATE TABLE employee (empno INTEGER, empname VARCHAR, "
      "workdept INTEGER, salary DOUBLE, bonus DOUBLE)"));
  SM_RETURN_IF_ERROR(db->Execute(
      "CREATE TABLE project (projno INTEGER, projname VARCHAR, "
      "deptno INTEGER, budget DOUBLE)"));

  Rng rng(config.seed);
  Table* dept = db->catalog()->GetTable("department");
  for (int64_t d = 0; d < config.num_departments; ++d) {
    std::string name = d == 7 ? "Planning" : StrCat("Dept", d);
    // Managers are employees 0..num_departments-1 (one per department).
    SM_RETURN_IF_ERROR(dept->Append(
        {Value::Int(d), Value::String(name), Value::Int(d),
         Value::Double(50000.0 + static_cast<double>(rng.Uniform(1000000)))}));
  }
  Table* emp = db->catalog()->GetTable("employee");
  for (int64_t e = 0; e < config.num_employees; ++e) {
    // Employee e < num_departments manages department e.
    int64_t workdept = e < config.num_departments
                           ? e
                           : rng.Uniform(config.num_departments);
    SM_RETURN_IF_ERROR(emp->Append(
        {Value::Int(e), Value::String(StrCat("Emp", e)), Value::Int(workdept),
         Value::Double(20000.0 + static_cast<double>(rng.Uniform(100000))),
         Value::Double(static_cast<double>(rng.Uniform(5000)))}));
  }
  Table* proj = db->catalog()->GetTable("project");
  for (int64_t p = 0; p < config.num_projects; ++p) {
    SM_RETURN_IF_ERROR(proj->Append(
        {Value::Int(p), Value::String(StrCat("Proj", p)),
         Value::Int(rng.Uniform(config.num_departments)),
         Value::Double(1000.0 + static_cast<double>(rng.Uniform(500000)))}));
  }
  SM_RETURN_IF_ERROR(db->SetPrimaryKey("department", {"deptno"}));
  SM_RETURN_IF_ERROR(db->SetPrimaryKey("employee", {"empno"}));
  SM_RETURN_IF_ERROR(db->SetPrimaryKey("project", {"projno"}));
  return db->AnalyzeAll();
}

Status LoadProbe(Database* db, const std::string& name, int64_t rows,
                 int64_t distinct_depts, uint64_t seed) {
  SM_RETURN_IF_ERROR(db->Execute(
      StrCat("CREATE TABLE ", name, " (pdept INTEGER, tag INTEGER)")));
  Rng rng(seed);
  Table* probe = db->catalog()->GetTable(name);
  for (int64_t i = 0; i < rows; ++i) {
    SM_RETURN_IF_ERROR(probe->Append(
        {Value::Int(rng.Uniform(distinct_depts)), Value::Int(i)}));
  }
  return db->AnalyzeAll();
}

Status CreateBenchViews(Database* db) {
  SM_RETURN_IF_ERROR(db->Execute(
      "CREATE VIEW avgDeptSal (workdept, avgsalary) AS "
      "SELECT workdept, AVG(salary) FROM employee GROUP BY workdept"));
  SM_RETURN_IF_ERROR(db->Execute(
      "CREATE VIEW deptActivity (dept, people, spend) AS "
      "SELECT e.workdept, COUNT(*), SUM(p.budget) "
      "FROM employee e, project p WHERE e.workdept = p.deptno "
      "GROUP BY e.workdept"));
  SM_RETURN_IF_ERROR(db->Execute(
      "CREATE VIEW bigDeptActivity (dept, people, spend) AS "
      "SELECT dept, people, spend FROM deptActivity WHERE people > 0"));
  return CreatePaperViews(db);
}

Status LoadEdges(Database* db, int64_t num_nodes, double avg_degree,
                 uint64_t seed) {
  SM_RETURN_IF_ERROR(
      db->Execute("CREATE TABLE edge (src INTEGER, dst INTEGER)"));
  Rng rng(seed);
  Table* edge = db->catalog()->GetTable("edge");
  int64_t num_edges = static_cast<int64_t>(
      static_cast<double>(num_nodes) * avg_degree);
  for (int64_t i = 0; i < num_edges; ++i) {
    int64_t src = rng.Uniform(num_nodes);
    // Edges point "forward" so the graph is acyclic and paths terminate.
    int64_t span = std::max<int64_t>(1, num_nodes / 20);
    int64_t dst = std::min(num_nodes - 1, src + 1 + rng.Uniform(span));
    if (src == dst) continue;
    SM_RETURN_IF_ERROR(edge->Append({Value::Int(src), Value::Int(dst)}));
  }
  return db->AnalyzeAll();
}

Status CreatePaperViews(Database* db) {
  SM_RETURN_IF_ERROR(db->Execute(
      "CREATE VIEW mgrSal (empno, empname, workdept, salary) AS "
      "SELECT e.empno, e.empname, e.workdept, e.salary "
      "FROM employee e, department d WHERE e.empno = d.mgrno"));
  return db->Execute(
      "CREATE VIEW avgMgrSal (workdept, avgsalary) AS "
      "SELECT workdept, AVG(salary) FROM mgrSal GROUP BY workdept");
}

}  // namespace starmagic::bench

#include "workload.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>

#include "common/string_util.h"

namespace perfbench {

using starmagic::Database;
using starmagic::ExecutionStrategy;
using starmagic::Status;
using starmagic::StrCat;
using starmagic::Table;
using starmagic::Value;

namespace {

// Deterministic generator (splitmix64): one seed gives one corpus and one
// operation sequence on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  int64_t Uniform(int64_t n) {
    return n <= 0 ? 0
                  : static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }

 private:
  uint64_t state_;
};

// Corpus sizes. The employee/department/project shape and the probe tables
// follow the Table-1 bench (bench/workloads.cc) at the 50k-employee scale.
constexpr int64_t kDepartments = 2000;
constexpr int64_t kEmployees = 50000;
constexpr int64_t kProjects = 5000;
// Reachability graph: components of kComponent nodes, each node with two
// forward edges inside its component, so a bound source reaches at most
// kComponent - 1 nodes while the unbound closure stays finite.
constexpr int64_t kNodes = 1000;
constexpr int64_t kComponent = 20;
// Sources per reachability report: a range, which EMST binds through
// condition magic.
constexpr int64_t kSourceRange = 40;

// Share of operations that are writes, on every workload.
constexpr double kWriteShare = 0.10;

// Operations per second each workload is sized for: the sequence holds
// rate * seconds operations, so the timed phase lasts about `seconds` on
// the host the rates were measured on and is identical everywhere.
double NominalRate(const std::string& name) {
  if (name == "report_views") return 150;
  if (name == "adhoc_lookups") return 2200;
  return 3500;  // prepared_oltp
}

Status AppendRows(Database* db, const std::string& table,
                  int64_t count, const std::function<starmagic::Row(int64_t)>& row) {
  Table* t = db->catalog()->GetTable(table);
  if (t == nullptr) return Status::NotFound(StrCat("table ", table));
  for (int64_t i = 0; i < count; ++i) {
    SM_RETURN_IF_ERROR(t->Append(row(i)));
  }
  return Status::OK();
}

Status LoadProbe(Database* db, Rng* rng, const std::string& name, int64_t rows,
                 int64_t distinct_depts) {
  SM_RETURN_IF_ERROR(db->Execute(
      StrCat("CREATE TABLE ", name, " (pdept INTEGER, tag INTEGER)")));
  return AppendRows(db, name, rows, [&](int64_t i) -> starmagic::Row {
    return {Value::Int(rng->Uniform(distinct_depts)), Value::Int(i)};
  });
}

// `n` values spread over [lo, hi), one uniform draw in each of n equal
// strata, so that the pools of different seeds cost nearly the same.
std::vector<int64_t> Pool(Rng* rng, int n, int64_t lo, int64_t hi) {
  std::vector<int64_t> pool;
  int64_t width = (hi - lo) / n;
  for (int i = 0; i < n; ++i) pool.push_back(lo + i * width + rng->Uniform(width));
  return pool;
}

// A seeded permutation of [0, n).
std::vector<int64_t> Permutation(Rng* rng, int64_t n) {
  std::vector<int64_t> perm(static_cast<size_t>(n));
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int64_t>(i);
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1],
              perm[static_cast<size_t>(rng->Uniform(static_cast<int64_t>(i)))]);
  }
  return perm;
}

// Builds a fixed composition (round(weight * reads) reads per template,
// plus kWriteShare writes) and shuffles it with the seed, so every seed
// runs the same number of each template and the tail percentile is fixed.
std::vector<int> Composition(Rng* rng, const std::vector<double>& weights,
                             int64_t total, int write_tmpl) {
  int64_t writes = std::llround(static_cast<double>(total) * kWriteShare);
  int64_t reads = total - writes;
  double sum = 0;
  for (double w : weights) sum += w;
  std::vector<int> order;
  for (size_t t = 0; t < weights.size(); ++t) {
    int64_t n = std::max<int64_t>(
        1, std::llround(static_cast<double>(reads) * weights[t] / sum));
    order.insert(order.end(), static_cast<size_t>(n), static_cast<int>(t));
  }
  order.insert(order.end(), static_cast<size_t>(writes), write_tmpl);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<size_t>(rng->Uniform(
                                static_cast<int64_t>(i)))]);
  }
  return order;
}

Op Query(int tmpl, std::string sql) {
  Op op;
  op.tmpl = tmpl;
  op.sql = std::move(sql);
  return op;
}

Op Write(int tmpl, std::string sql) {
  Op op;
  op.kind = OpKind::kWrite;
  op.tmpl = tmpl;
  op.sql = std::move(sql);
  return op;
}

// The client's audit log: one INSERT of the ids and templates of the ten
// operations before it, into a table no read touches.
Op LogWrite(int tmpl, const std::vector<int>& order, size_t i) {
  std::string sql = "INSERT INTO op_log VALUES ";
  for (size_t k = 1; k <= 10; ++k) {
    size_t j = i >= k ? i - k : 0;
    sql += StrCat(k > 1 ? ", (" : "(", j, ", ", order[j], ")");
  }
  return Write(tmpl, std::move(sql));
}

// Decision-support reports: duplicated outers probing aggregate and
// fan-out views (Table-1 B/C/D/E), the range-restricted view H, and
// reachability from a range of bound sources. Each template cycles
// through a small pool of parameters fixed by the seed, so reports repeat
// as dashboards do, and each template's weight is inverse to its cost so
// that none takes most of the timed phase. The B/C/D/E parameter is the
// start of a fixed-width window of probe rows.
Workload ReportViews(uint64_t seed, int64_t total) {
  Workload w;
  w.name = "report_views";
  w.oracle = ExecutionStrategy::kOriginal;
  w.templates = {"B_probe_avg", "C_probe_fanout", "D_probe_nested",
                 "E_probe_two_views", "H_range_view", "R_reach_range",
                 "W_log_insert"};
  Rng rng(seed ^ 0x5245504f5254ULL);
  // Probe windows are half of each probe table.
  const std::vector<std::vector<int64_t>> pools = {
      Pool(&rng, 4, 0, 200),     Pool(&rng, 4, 0, 2000),
      Pool(&rng, 4, 0, 8000),    Pool(&rng, 4, 0, 500),
      Pool(&rng, 4, 18, 26),     Pool(&rng, 8, 0, kNodes - kSourceRange)};
  const int64_t windows[] = {200, 2000, 8000, 500};
  auto read = [&](int t, int64_t k) {
    std::string window =
        t < 4 ? StrCat(" AND p.tag >= ", k, " AND p.tag < ", k + windows[t])
              : "";
    switch (t) {
      case 0:
        return Query(t, StrCat("SELECT p.tag, s.avgsalary FROM probe_b p, "
                               "avgDeptSal s WHERE p.pdept = s.workdept",
                               window));
      case 1:
        return Query(t, StrCat("SELECT p.tag, a.spend FROM probe_c p, "
                               "deptActivity a WHERE p.pdept = a.dept",
                               window));
      case 2:
        return Query(t, StrCat("SELECT p.tag, t.spend FROM probe_d p, "
                               "bigDeptActivity t WHERE p.pdept = t.dept",
                               window));
      case 3:
        return Query(t, StrCat("SELECT p.tag, s.avgsalary, a.spend FROM "
                               "probe_e p, avgDeptSal s, deptActivity a "
                               "WHERE p.pdept = s.workdept AND p.pdept = "
                               "a.dept", window));
      case 4:
        return Query(t, StrCat("SELECT d.deptname, a.spend FROM department "
                               "d, deptActivity a WHERE a.dept <= d.deptno "
                               "AND d.deptname = 'Dept", k, "'"));
      default:
        return Query(t, StrCat("SELECT t.src, t.dst FROM tc t WHERE t.src >= ",
                               k, " AND t.src < ", k + kSourceRange));
    }
  };
  for (int t = 0; t < 6; ++t) w.warmup.push_back(read(t, pools[t][0]));
  std::vector<int> order =
      Composition(&rng, {30, 6, 3, 6, 2, 8}, total, /*write_tmpl=*/6);
  std::vector<size_t> uses(pools.size(), 0);
  for (size_t i = 0; i < order.size(); ++i) {
    int t = order[i];
    if (t == 6) {
      w.ops.push_back(LogWrite(t, order, i));
      continue;
    }
    const std::vector<int64_t>& pool = pools[static_cast<size_t>(t)];
    w.ops.push_back(read(t, pool[uses[static_cast<size_t>(t)]++ % pool.size()]));
  }
  return w;
}

// Selective ad-hoc queries (Table-1 A/F/G shapes and indexed lookups),
// each text used once: compile dominates and no plan could be reused.
Workload AdhocLookups(uint64_t seed, int64_t total) {
  Workload w;
  w.name = "adhoc_lookups";
  w.oracle = ExecutionStrategy::kCorrelated;
  w.templates = {"A_dept_avg",  "F_probe_avg",  "G_mgr_avg",
                 "L_emp_by_id", "L_emp_dept",   "L_proj_budget",
                 "W_log_insert"};
  Rng rng(seed ^ 0x4144484f43ULL);
  std::set<std::string> used;
  auto read = [&](int t) {
    for (;;) {
      int64_t dept = rng.Uniform(kDepartments);
      int64_t x = 20000 + rng.Uniform(100000);
      std::string sql;
      switch (t) {
        case 0:
          sql = StrCat("SELECT d.deptname, s.avgsalary FROM department d, "
                       "avgDeptSal s WHERE d.deptno = s.workdept AND "
                       "d.deptname = 'Dept", dept, "' AND s.avgsalary > ", x);
          break;
        case 1:
          sql = StrCat("SELECT p.tag, s.avgsalary FROM probe_f p, avgDeptSal "
                       "s WHERE p.pdept = s.workdept AND p.tag = ",
                       rng.Uniform(kDepartments), " AND s.avgsalary < ", x);
          break;
        case 2:
          sql = StrCat("SELECT d.deptname, s.workdept, s.avgsalary FROM "
                       "department d, avgMgrSal s WHERE d.deptno = "
                       "s.workdept AND d.deptname = 'Dept", dept,
                       "' AND s.avgsalary > ", x);
          break;
        case 3:
          sql = StrCat("SELECT empname, workdept, salary FROM employee "
                       "WHERE empno = ", rng.Uniform(kEmployees));
          break;
        case 4:
          sql = StrCat("SELECT e.empname, d.deptname FROM employee e, "
                       "department d WHERE e.workdept = d.deptno AND "
                       "e.empno = ", rng.Uniform(kEmployees));
          break;
        default:
          sql = StrCat("SELECT projno, budget FROM project WHERE deptno = ",
                       dept, " AND budget > ", x * 4);
          break;
      }
      if (used.insert(sql).second) return Query(t, std::move(sql));
    }
  };
  for (int t = 0; t < 6; ++t) w.warmup.push_back(read(t));
  std::vector<int> order =
      Composition(&rng, {25, 20, 25, 10, 10, 10}, total, /*write_tmpl=*/6);
  for (size_t i = 0; i < order.size(); ++i) {
    int t = order[i];
    w.ops.push_back(t == 6 ? LogWrite(t, order, i) : read(t));
  }
  return w;
}

// EXECUTE of prepared point and aggregate lookups with writes into the
// tables those plans read: writes invalidate cached plans, so the next
// EXECUTE of an affected statement recompiles.
Workload PreparedOltp(uint64_t seed, int64_t total) {
  struct Prepared {
    const char* name;
    const char* body;
    bool string_arg;
  };
  static const Prepared kPrepared[] = {
      {"emp_profile",
       "SELECT e.empname, e.salary, d.deptname, s.avgsalary "
       "FROM employee e, department d, avgDeptSal s "
       "WHERE e.workdept = d.deptno AND d.deptno = s.workdept AND e.empno = ?",
       false},
      {"dept_roster",
       "SELECT empno, empname, salary FROM employee WHERE workdept = ?", false},
      {"dept_avg",
       "SELECT d.deptname, s.avgsalary FROM department d, avgDeptSal s "
       "WHERE d.deptno = s.workdept AND d.deptno = ?", false},
      {"dept_projects",
       "SELECT p.projno, p.budget, a.people FROM project p, deptActivity a "
       "WHERE p.deptno = a.dept AND p.deptno = ?", false},
      {"emp_dept",
       "SELECT e.empname, d.deptname FROM employee e, department d "
       "WHERE e.workdept = d.deptno AND e.empno = ?", false},
      {"dept_spend",
       "SELECT d.deptname, s.nproj, s.spend FROM department d, projSpend s "
       "WHERE d.deptno = s.deptno AND d.deptname = ?", true},
  };
  Workload w;
  w.name = "prepared_oltp";
  w.oracle = ExecutionStrategy::kCorrelated;
  w.writes_change_reads = true;
  for (const Prepared& p : kPrepared) {
    w.templates.push_back(p.name);
    w.prepares.push_back(StrCat("PREPARE ", p.name, " AS ", p.body));
  }
  for (const char* name : {"W_emp_insert", "W_proj_insert", "W_proj_update",
                           "W_proj_delete"}) {
    w.templates.push_back(name);
  }
  const int kWriteTmpl = 6;
  Rng rng(seed ^ 0x4f4c5450ULL);
  auto read = [&](int t) {
    const Prepared& p = kPrepared[t];
    int64_t key = t == 0 || t == 4 ? rng.Uniform(kEmployees)
                                   : rng.Uniform(kDepartments);
    std::string arg = p.string_arg ? StrCat("'Dept", key, "'") : StrCat(key);
    std::string body = p.body;
    Op op;
    op.kind = OpKind::kExecute;
    op.tmpl = t;
    op.sql = StrCat("EXECUTE ", p.name, "(", arg, ")");
    op.inline_sql = body.replace(body.find('?'), 1, arg);
    op.prepared_body = p.body;
    return op;
  };
  // New employees and projects go to departments in a seeded round robin,
  // so departments grow evenly and the largest one is the same size in
  // every seed.
  const std::vector<int64_t> perm = Permutation(&rng, kDepartments);
  auto dept_of = [&](int64_t i) { return perm[static_cast<size_t>(i % kDepartments)]; };
  int64_t next_emp = kEmployees;
  int64_t next_proj = kProjects;
  auto write = [&]() {
    int64_t r = rng.Uniform(100);
    if (r < 60) {  // a batch of four hires
      std::string sql = "INSERT INTO employee VALUES ";
      for (int k = 0; k < 4; ++k) {
        int64_t e = next_emp++;
        sql += StrCat(k > 0 ? ", (" : "(", e, ", 'New", e, "', ", dept_of(e),
                      ", ",
                      20000 + rng.Uniform(100000), ".0, ",
                      rng.Uniform(5000), ".0)");
      }
      return Write(kWriteTmpl, std::move(sql));
    }
    if (r < 85) {
      int64_t p = next_proj++;
      return Write(kWriteTmpl + 1,
                   StrCat("INSERT INTO project VALUES (", p, ", 'NewProj", p,
                          "', ", dept_of(p), ", ", 1000 + rng.Uniform(500000),
                          ".0)"));
    }
    if (r < 93) {
      return Write(kWriteTmpl + 2,
                   StrCat("UPDATE project SET budget = budget + ",
                          1 + rng.Uniform(1000), ".0 WHERE projno = ",
                          rng.Uniform(next_proj)));
    }
    return Write(kWriteTmpl + 3, StrCat("DELETE FROM project WHERE projno = ",
                                        rng.Uniform(next_proj)));
  };
  for (int t = 0; t < 6; ++t) w.warmup.push_back(read(t));
  std::vector<int> order = Composition(&rng, {25, 15, 15, 15, 15, 15}, total,
                                       kWriteTmpl);
  for (int t : order) w.ops.push_back(t == kWriteTmpl ? write() : read(t));
  return w;
}

}  // namespace

Workload MakeWorkload(const std::string& name, uint64_t seed, double seconds) {
  int64_t total = std::max<int64_t>(20, std::llround(NominalRate(name) * seconds));
  if (name == "report_views") return ReportViews(seed, total);
  if (name == "adhoc_lookups") return AdhocLookups(seed, total);
  if (name == "prepared_oltp") return PreparedOltp(seed, total);
  return Workload{};
}

Status SetUpDatabase(Database* db, const Workload& w, uint64_t seed) {
  Rng rng(seed);
  SM_RETURN_IF_ERROR(db->ExecuteScript(R"sql(
    CREATE TABLE department (deptno INTEGER, deptname VARCHAR, mgrno INTEGER,
                             budget DOUBLE);
    CREATE TABLE employee (empno INTEGER, empname VARCHAR, workdept INTEGER,
                           salary DOUBLE, bonus DOUBLE);
    CREATE TABLE project (projno INTEGER, projname VARCHAR, deptno INTEGER,
                          budget DOUBLE);
    CREATE TABLE edge (src INTEGER, dst INTEGER);
    CREATE TABLE op_log (op INTEGER, tmpl INTEGER);
  )sql"));
  // Every double is a whole number, so sums are exact in any order and the
  // oracle's answers compare bit for bit.
  SM_RETURN_IF_ERROR(AppendRows(db, "department", kDepartments,
                                [&](int64_t d) -> starmagic::Row {
    return {Value::Int(d), Value::String(StrCat("Dept", d)), Value::Int(d),
            Value::Double(static_cast<double>(50000 + rng.Uniform(1000000)))};
  }));
  // Departments get employees and projects through seeded permutations, so
  // every department has the same head count and every seed's joins and
  // aggregates do the same amount of work.
  std::vector<int64_t> perm = Permutation(&rng, kDepartments);
  SM_RETURN_IF_ERROR(AppendRows(db, "employee", kEmployees,
                                [&](int64_t e) -> starmagic::Row {
    // Employee e < kDepartments manages department e.
    int64_t dept = e < kDepartments
                       ? e
                       : perm[static_cast<size_t>(e % kDepartments)];
    return {Value::Int(e), Value::String(StrCat("Emp", e)), Value::Int(dept),
            Value::Double(static_cast<double>(20000 + rng.Uniform(100000))),
            Value::Double(static_cast<double>(rng.Uniform(5000)))};
  }));
  perm = Permutation(&rng, kDepartments);
  SM_RETURN_IF_ERROR(AppendRows(db, "project", kProjects,
                                [&](int64_t p) -> starmagic::Row {
    return {Value::Int(p), Value::String(StrCat("Proj", p)),
            Value::Int(perm[static_cast<size_t>(p % kDepartments)]),
            Value::Double(static_cast<double>(1000 + rng.Uniform(500000)))};
  }));
  Table* edge = db->catalog()->GetTable("edge");
  for (int64_t v = 0; v < kNodes; ++v) {
    int64_t end = (v / kComponent + 1) * kComponent;
    for (int k = 0; k < 2; ++k) {
      int64_t dst = v + 1 + rng.Uniform(4);
      if (dst < end) {
        SM_RETURN_IF_ERROR(edge->Append({Value::Int(v), Value::Int(dst)}));
      }
    }
  }
  SM_RETURN_IF_ERROR(LoadProbe(db, &rng, "probe_b", 400, 16));
  SM_RETURN_IF_ERROR(LoadProbe(db, &rng, "probe_c", 4000, 80));
  SM_RETURN_IF_ERROR(LoadProbe(db, &rng, "probe_d", 16000, 120));
  SM_RETURN_IF_ERROR(LoadProbe(db, &rng, "probe_e", 1000, 80));
  SM_RETURN_IF_ERROR(LoadProbe(db, &rng, "probe_f", kDepartments, kDepartments));
  SM_RETURN_IF_ERROR(db->SetPrimaryKey("department", {"deptno"}));
  SM_RETURN_IF_ERROR(db->SetPrimaryKey("employee", {"empno"}));
  SM_RETURN_IF_ERROR(db->SetPrimaryKey("project", {"projno"}));
  SM_RETURN_IF_ERROR(db->ExecuteScript(R"sql(
    CREATE VIEW avgDeptSal (workdept, avgsalary) AS
      SELECT workdept, AVG(salary) FROM employee GROUP BY workdept;
    CREATE VIEW deptActivity (dept, people, spend) AS
      SELECT e.workdept, COUNT(*), SUM(p.budget)
      FROM employee e, project p WHERE e.workdept = p.deptno
      GROUP BY e.workdept;
    CREATE VIEW bigDeptActivity (dept, people, spend) AS
      SELECT dept, people, spend FROM deptActivity WHERE people > 0;
    CREATE VIEW mgrSal (empno, empname, workdept, salary) AS
      SELECT e.empno, e.empname, e.workdept, e.salary
      FROM employee e, department d WHERE e.empno = d.mgrno;
    CREATE VIEW avgMgrSal (workdept, avgsalary) AS
      SELECT workdept, AVG(salary) FROM mgrSal GROUP BY workdept;
    CREATE VIEW projSpend (deptno, nproj, spend) AS
      SELECT deptno, COUNT(*), SUM(budget) FROM project GROUP BY deptno;
    CREATE RECURSIVE VIEW tc (src, dst) AS
      SELECT src, dst FROM edge
      UNION
      SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src;
    CREATE INDEX emp_workdept ON employee (workdept);
    CREATE INDEX emp_empno ON employee (empno);
    CREATE INDEX dept_deptno ON department (deptno);
    CREATE INDEX dept_deptname ON department (deptname);
    CREATE INDEX dept_mgrno ON department (mgrno);
    CREATE INDEX proj_deptno ON project (deptno);
    CREATE INDEX edge_src ON edge (src);
    CREATE INDEX probe_f_tag ON probe_f (tag);
    ANALYZE;
  )sql"));
  for (const std::string& prepare : w.prepares) {
    SM_RETURN_IF_ERROR(db->Query(prepare).status());
  }
  return Status::OK();
}

}  // namespace perfbench

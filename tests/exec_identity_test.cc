// Box-level evaluator identity: what the executor returns for queries whose
// join predicates, residual filters, E/A predicates and projections hit the
// evaluator's edge cases, compared byte for byte against
// tests/golden/exec_identity.txt.
//
// The cases cover comparison type errors (INT vs VARCHAR), non-boolean
// predicates, NULL under every comparison operator and under AND/OR/NOT, a
// correlated subquery reading a column bound two box levels up, a hoisted
// scalar subquery inside a join predicate, a bound join into an aggregate
// view, and recursive views whose fixpoint joins inside the SCC. Each case
// runs under the three strategies (magic with the cost comparison off, so
// the EMST graph is what runs), with the secondary indexes used and
// ignored, at 1, 2 and 8 threads with two-row morsels, so every join step
// kind (hash, equality index, range index, nested loop, correlated nested
// loop, partitioned scan) and its morsel path is reached.
//
// Per run the file pins the Status text, TotalWork, the governor's
// peak_bytes and every result row in executor order (no ORDER BY, so the
// row order a join step emits is pinned too). The 2- and 8-thread runs must
// match the 1-thread run exactly; an error's work and peak are pinned for
// the 1-thread run only, because workers past the failing morsel may have
// counted work before the error stopped them.
//
// A deliberate change to what the executor computes regenerates the file:
//   STARMAGIC_UPDATE_GOLDEN=1 ./build/tests/exec_identity_test

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "engine/database.h"
#include "exec/executor.h"

namespace starmagic {
namespace {

constexpr const char* kGoldenPath = STARMAGIC_GOLDEN_DIR "/exec_identity.txt";

constexpr const char* kSchema = R"sql(
  CREATE TABLE t (a INTEGER, b INTEGER, s VARCHAR);
  INSERT INTO t VALUES (1, 10, 'x'), (2, NULL, 'y'), (NULL, 30, NULL),
                       (4, 40, 'z'), (2, 20, 'y'), (5, NULL, 'w'),
                       (3, 30, 'x'), (NULL, NULL, 'v'), (4, 15, NULL),
                       (6, 60, 'u');
  CREATE TABLE u (a INTEGER, c INTEGER);
  INSERT INTO u VALUES (1, 5), (2, NULL), (NULL, 7), (4, 50), (3, 30),
                       (2, 25), (6, 6), (5, NULL);
  CREATE TABLE dept (id INTEGER, budget INTEGER);
  INSERT INTO dept VALUES (1, 100), (2, 200), (3, 50), (4, NULL);
  CREATE TABLE emp (id INTEGER, dept INTEGER, sal INTEGER);
  INSERT INTO emp VALUES (10, 1, 30), (11, 1, 60), (12, 2, 80), (13, 3, 20),
                         (14, NULL, 10), (15, 2, NULL), (16, 4, 70);
  CREATE TABLE proj (owner INTEGER, cost INTEGER);
  INSERT INTO proj VALUES (10, 90), (10, 150), (11, 40), (12, 250),
                          (13, 60), (15, 10), (NULL, 5), (16, 1);
  CREATE TABLE edge (src INTEGER, dst INTEGER);
  INSERT INTO edge VALUES (1, 2), (2, 3), (3, 4), (2, 5), (5, 6), (6, 2),
                          (10, 11), (11, 12), (NULL, 1), (4, NULL);
  CREATE RECURSIVE VIEW reach (src, dst) AS
    SELECT src, dst FROM edge
    UNION
    SELECT r.src, e.dst FROM reach r, edge e WHERE r.dst = e.src;
  CREATE RECURSIVE VIEW hop (src, dst) AS
    SELECT src, dst FROM edge
    UNION
    SELECT h1.src, h2.dst FROM hop h1, hop h2 WHERE h1.dst = h2.src;
  CREATE VIEW usum (a, total, n) AS
    SELECT a, SUM(c), COUNT(*) FROM u GROUP BY a;
  CREATE INDEX u_a ON u (a);
  CREATE INDEX u_c ON u (c) USING ORDERED;
  CREATE INDEX t_a ON t (a) USING ORDERED;
  CREATE INDEX emp_dept ON emp (dept);
  CREATE INDEX proj_owner ON proj (owner);
  CREATE INDEX edge_src ON edge (src);
  ANALYZE;
)sql";

struct Case {
  const char* name;
  const char* sql;
};

const Case kCases[] = {
    // INT vs VARCHAR in a join equality, a residual, an E/A predicate, a
    // range probe and a projection.
    {"type-error-join", "SELECT t.a FROM t, u WHERE t.s = u.a"},
    {"type-error-residual",
     "SELECT t.a FROM t, u WHERE t.a = u.a AND t.s < u.c"},
    {"type-error-exists",
     "SELECT t.a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.a = t.s)"},
    {"type-error-range", "SELECT t.a, u.c FROM t, u WHERE u.c < t.s"},
    {"type-error-projection", "SELECT t.a, t.s = t.a AS bad FROM t"},
    // Non-boolean predicates.
    {"non-boolean-filter", "SELECT t.a FROM t WHERE t.b + 1"},
    {"non-boolean-join", "SELECT t.a FROM t, u WHERE t.a = u.a AND u.c"},
    {"non-boolean-exists",
     "SELECT t.a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.a = t.a "
     "AND t.b)"},
    // NULL under each comparison operator, in join predicates.
    {"null-eq", "SELECT t.a, u.c FROM t, u WHERE t.b = u.c"},
    {"null-neq", "SELECT t.a, t.b, u.c FROM t, u WHERE t.a = u.a AND "
                 "t.b <> u.c"},
    {"null-lt", "SELECT t.a, u.a FROM t, u WHERE t.b < u.c"},
    {"null-le", "SELECT t.a, u.a FROM t, u WHERE t.b <= u.c AND u.a = 2"},
    {"null-gt", "SELECT t.a, u.a FROM t, u WHERE t.a > u.a AND t.b > u.c"},
    {"null-ge", "SELECT t.a, u.a FROM t, u WHERE u.c >= t.b"},
    // NULL under AND/OR/NOT, in filters and projections.
    {"null-and-or",
     "SELECT t.a, t.b FROM t WHERE (t.b > 15 OR t.a < 3) AND "
     "NOT (t.a = 4 AND t.b IS NULL)"},
    {"null-projection",
     "SELECT t.a, t.b < 25 AS lt, t.a = 2 OR t.b > 20 AS o, "
     "t.a = 1 AND t.b > 5 AS n, t.s <> 'x' AS ne FROM t"},
    {"null-in",
     "SELECT t.a, t.s FROM t WHERE t.a IN (SELECT u.a FROM u WHERE u.c > 5)"},
    {"null-not-in",
     "SELECT t.a FROM t WHERE t.b NOT IN (SELECT u.c FROM u WHERE u.a < 3)"},
    {"null-not-in-clean",
     "SELECT t.a FROM t WHERE t.a NOT IN (SELECT u.a FROM u WHERE u.c > 6)"},
    // Correlation reaching two box levels up.
    {"correlated-two-levels",
     "SELECT d.id FROM dept d WHERE EXISTS (SELECT 1 FROM emp e WHERE "
     "e.dept = d.id AND EXISTS (SELECT 1 FROM proj p WHERE p.owner = e.id "
     "AND p.cost > d.budget))"},
    {"correlated-two-levels-scalar",
     "SELECT d.id, e.id FROM dept d, emp e WHERE e.dept = d.id AND e.sal < "
     "(SELECT MAX(p.cost) FROM proj p WHERE p.owner = e.id AND "
     "p.cost < d.budget)"},
    // Hoisted scalar subqueries inside join predicates.
    {"hoisted-scalar-join",
     "SELECT t.a, u.c FROM t, u WHERE t.a + (SELECT MIN(c) FROM u) < u.c"},
    {"hoisted-scalar-key",
     "SELECT t.a, u.c FROM t, u WHERE u.a = t.a + (SELECT MIN(a) FROM u) - 1"},
    {"hoisted-scalar-residual",
     "SELECT t.a, u.c FROM t, u WHERE t.a = u.a AND "
     "u.c > (SELECT AVG(b) FROM t)"},
    // A bound join into an aggregate view: the magic runs probe it through
    // magic and supplementary-magic boxes.
    {"view-join",
     "SELECT t.a, t.s, v.total FROM t, usum v WHERE t.a = v.a AND t.b > 15 "
     "AND v.n < 3"},
    // Recursive views whose fixpoint joins inside the SCC.
    {"recursive-linear", "SELECT src, dst FROM reach"},
    {"recursive-bound", "SELECT src, dst FROM reach WHERE src = 2"},
    {"recursive-nonlinear", "SELECT src, dst FROM hop WHERE dst = 2"},
};

struct Outcome {
  std::string status;
  int64_t work = 0;
  int64_t peak = 0;
  std::string rows;
};

Outcome RunOnce(Database* db, const std::string& sql,
                ExecutionStrategy strategy, bool use_indexes, int threads) {
  Outcome out;
  // The tables are tiny, so the §3.2 comparison would keep the original
  // plan; turn it off so the magic runs execute the EMST-rewritten graph.
  QueryOptions qopts(strategy);
  qopts.pipeline.cost_compare = false;
  auto plan = db->Explain(sql, qopts);
  if (!plan.ok()) {
    out.status = StrCat("compile ", plan.status().ToString());
    return out;
  }
  ResourceGovernor governor(ResourceBudget::Unlimited());
  ExecOptions eo;
  eo.memoize_correlation = strategy != ExecutionStrategy::kCorrelated;
  eo.use_secondary_indexes = use_indexes;
  eo.num_threads = threads;
  eo.morsel_size = 2;
  eo.governor = &governor;
  Executor executor(plan->graph.get(), db->catalog(), eo);
  auto table = executor.Run();
  out.status = table.status().ToString();
  out.work = executor.stats().TotalWork();
  out.peak = governor.Stats().peak_bytes;
  if (table.ok()) {
    for (const Row& row : table->rows()) out.rows += RowToString(row);
  }
  return out;
}

std::string RunAll() {
  Database db;
  Status setup = db.ExecuteScript(kSchema);
  if (!setup.ok()) return StrCat("setup failed: ", setup.ToString(), "\n");
  const std::pair<ExecutionStrategy, const char*> strategies[] = {
      {ExecutionStrategy::kOriginal, "original"},
      {ExecutionStrategy::kCorrelated, "correlated"},
      {ExecutionStrategy::kMagic, "magic"},
  };
  std::string text;
  for (const Case& c : kCases) {
    text += StrCat("-- ", c.name, ": ", c.sql, "\n");
    for (const auto& [strategy, strategy_name] : strategies) {
      for (bool use_indexes : {true, false}) {
        const std::string label =
            StrCat(strategy_name, use_indexes ? " indexes" : " scans");
        Outcome seq = RunOnce(&db, c.sql, strategy, use_indexes, 1);
        const bool ok = seq.status == "OK";
        for (int threads : {2, 8}) {
          Outcome par = RunOnce(&db, c.sql, strategy, use_indexes, threads);
          const std::string where =
              StrCat(c.name, " ", label, " threads=", threads);
          EXPECT_EQ(par.status, seq.status) << where;
          if (ok) {
            EXPECT_EQ(par.work, seq.work) << where;
            EXPECT_EQ(par.peak, seq.peak) << where;
            EXPECT_EQ(par.rows, seq.rows) << where;
          }
        }
        text += StrCat(label, ": ", seq.status, " work=", seq.work,
                       " peak=", seq.peak, ok ? " rows=" : "", seq.rows,
                       "\n");
      }
    }
  }
  return text;
}

std::vector<std::string> SplitLines(const std::string& s) {
  std::vector<std::string> lines;
  std::istringstream in(s);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(ExecIdentityTest, OutcomesMatchTheGoldenFileAtEveryThreadCount) {
  std::string actual = RunAll();

  if (std::getenv("STARMAGIC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << actual;
    GTEST_SKIP() << "rewrote " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << kGoldenPath;
  std::stringstream golden;
  golden << in.rdbuf();
  if (golden.str() == actual) return;

  std::vector<std::string> want = SplitLines(golden.str());
  std::vector<std::string> got = SplitLines(actual);
  std::string section;
  for (size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string& w = i < want.size() ? want[i] : "<end of file>";
    const std::string& g = i < got.size() ? got[i] : "<end of output>";
    if (g.rfind("-- ", 0) == 0) section = g;
    if (w != g) {
      FAIL() << "executor output differs from " << kGoldenPath << " at line "
             << i + 1 << " (" << section << ")\n  golden: " << w
             << "\n  actual: " << g;
    }
  }
  FAIL() << "executor output differs from " << kGoldenPath;
}

}  // namespace
}  // namespace starmagic

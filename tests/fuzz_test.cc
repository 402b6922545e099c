#include <gtest/gtest.h>

#include "engine/database.h"

namespace starmagic {
namespace {

// Randomized strategy-equivalence: generate random (data, query) pairs and
// check that Original / Correlated / Magic produce identical bags. This is
// the strongest property the system offers — the three pipelines share
// only the parser and executor primitives, so agreement across hundreds of
// random shapes is meaningful evidence of rewrite correctness.

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 2654435761u + 1) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int64_t Uniform(int64_t n) { return static_cast<int64_t>(Next() % n); }
  bool Chance(int percent) { return Uniform(100) < percent; }
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[static_cast<size_t>(Uniform(static_cast<int64_t>(v.size())))];
  }

 private:
  uint64_t state_;
};

// Builds a random database: two base tables with NULLs/duplicates and an
// aggregate view over one of them.
void BuildRandomDb(Database* db, Rng* rng) {
  ASSERT_TRUE(db->ExecuteScript(R"sql(
    CREATE TABLE fact (k INTEGER, g INTEGER, v DOUBLE, s VARCHAR);
    CREATE TABLE dim (g INTEGER, name VARCHAR, w INTEGER);
    CREATE VIEW agg (g, total, cnt, avg_v) AS
      SELECT g, SUM(v), COUNT(*), AVG(v) FROM fact GROUP BY g;
    CREATE VIEW syscols (tname, ncols) AS
      SELECT table_name, COUNT(*) FROM sys.columns GROUP BY table_name;
  )sql")
                  .ok());
  Table* fact = db->catalog()->GetTable("fact");
  Table* dim = db->catalog()->GetTable("dim");
  int64_t nfact = 30 + rng->Uniform(120);
  int64_t groups = 2 + rng->Uniform(10);
  for (int64_t i = 0; i < nfact; ++i) {
    Row row;
    row.push_back(Value::Int(rng->Uniform(20)));
    row.push_back(rng->Chance(10) ? Value::Null()
                                  : Value::Int(rng->Uniform(groups)));
    row.push_back(rng->Chance(10)
                      ? Value::Null()
                      : Value::Double(static_cast<double>(rng->Uniform(1000)) / 4));
    row.push_back(rng->Chance(15)
                      ? Value::Null()
                      : Value::String(std::string(1, static_cast<char>(
                                                         'a' + rng->Uniform(5)))));
    ASSERT_TRUE(fact->Append(std::move(row)).ok());
  }
  int64_t ndim = groups + rng->Uniform(groups);  // some groups duplicated
  for (int64_t i = 0; i < ndim; ++i) {
    Row row;
    row.push_back(rng->Chance(8) ? Value::Null()
                                 : Value::Int(rng->Uniform(groups)));
    row.push_back(Value::String("n" + std::to_string(rng->Uniform(4))));
    row.push_back(Value::Int(rng->Uniform(50)));
    ASSERT_TRUE(dim->Append(std::move(row)).ok());
  }
  ASSERT_TRUE(db->AnalyzeAll().ok());
  // A random subset of secondary indexes (built after the loads, so they
  // are synced). Queries must answer identically with or without them.
  for (const char* ddl :
       {"CREATE INDEX f_g ON fact (g)",
        "CREATE INDEX f_k ON fact (k) USING ORDERED",
        "CREATE INDEX f_gk ON fact (g, k)",
        "CREATE INDEX d_g ON dim (g) USING ORDERED",
        "CREATE INDEX d_w ON dim (w) USING ORDERED"}) {
    if (rng->Chance(50)) {
      ASSERT_TRUE(db->Execute(ddl).ok());
    }
  }
}

// Produces a random query over fact/dim/agg, or — when *is_sys comes back
// true — over the catalog-backed sys.* tables (sys.tables / sys.columns /
// sys.indexes), whose snapshots are deterministic between DDL statements,
// so consecutive strategies still see identical rows.
std::string RandomQuery(Rng* rng, bool* is_sys) {
  std::vector<std::string> compare_ops = {"=", "<", "<=", ">", ">=", "<>"};
  std::string sql;
  *is_sys = false;
  switch (rng->Uniform(10)) {
    case 9:  // self-observation: the running query in sys.active_queries.
      // Projects only strategy-invariant columns — the statement text —
      // never id/phase/morsels/elapsed_us, which differ run to run.
      *is_sys = true;
      sql = "SELECT a.sql, t.name FROM sys.active_queries a, sys.tables t "
            "WHERE t.kind = 'table'";
      if (rng->Chance(50)) sql += " AND t.stale = FALSE";
      break;
    case 6:  // join of two system tables
      *is_sys = true;
      sql = "SELECT c.table_name, c.name, t.kind FROM sys.columns c, "
            "sys.tables t WHERE c.table_name = t.name";
      if (rng->Chance(60)) {
        sql += " AND c.ordinal " + rng->Pick(compare_ops) + " " +
               std::to_string(rng->Uniform(4));
      }
      break;
    case 7:  // aggregate view over sys.columns, bound via sys.tables join
      *is_sys = true;
      sql = "SELECT t.name, s.ncols FROM sys.tables t, syscols s WHERE "
            "s.tname = t.name";
      if (rng->Chance(70)) sql += " AND t.kind = 'table'";
      break;
    case 8:  // sys.indexes against the stored-table side of sys.tables
      *is_sys = true;
      sql = "SELECT i.name, i.columns, t.stale FROM sys.indexes i, "
            "sys.tables t WHERE i.table_name = t.name";
      if (rng->Chance(50)) sql += " AND i.synced = TRUE";
      break;
    case 0:  // view joined with dim (the magic shape)
      sql = "SELECT d.name, a.total, a.cnt FROM dim d, agg a WHERE "
            "d.g = a.g";
      if (rng->Chance(70)) {
        sql += " AND d.w " + rng->Pick(compare_ops) + " " +
               std::to_string(rng->Uniform(50));
      }
      break;
    case 1:  // range join against the view (condition magic)
      sql = "SELECT d.name, a.avg_v FROM dim d, agg a WHERE a.g " +
            rng->Pick(compare_ops) + " d.g AND d.w < " +
            std::to_string(rng->Uniform(40));
      break;
    case 2:  // plain join with filters
      sql = "SELECT f.k, f.v, d.name FROM fact f, dim d WHERE f.g = d.g";
      if (rng->Chance(60)) {
        sql += " AND f.v " + rng->Pick(compare_ops) + " " +
               std::to_string(rng->Uniform(200));
      }
      if (rng->Chance(30)) sql += " AND d.name LIKE 'n%'";
      break;
    case 3:  // EXISTS / NOT EXISTS
      sql = std::string("SELECT d.name FROM dim d WHERE ") +
            (rng->Chance(50) ? "EXISTS" : "NOT EXISTS") +
            " (SELECT f.k FROM fact f WHERE f.g = d.g AND f.v > " +
            std::to_string(rng->Uniform(150)) + ")";
      break;
    case 4:  // IN / NOT IN
      sql = std::string("SELECT f.k FROM fact f WHERE f.g ") +
            (rng->Chance(50) ? "IN" : "NOT IN") +
            " (SELECT d.g FROM dim d WHERE d.w < " +
            std::to_string(rng->Uniform(50)) + ")";
      break;
    default:  // scalar subquery
      sql = "SELECT f.k FROM fact f WHERE f.v > (SELECT AVG(v) FROM fact "
            "f2 WHERE f2.g = f.g)";
      break;
  }
  if (rng->Chance(25)) sql = "SELECT DISTINCT " + sql.substr(7);
  return sql;
}

class FuzzEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzEquivalenceTest, StrategiesAgreeOnRandomQueries) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  Database db;
  BuildRandomDb(&db, &rng);
  for (int q = 0; q < 8; ++q) {
    bool is_sys = false;
    std::string sql = RandomQuery(&rng, &is_sys);
    auto original = db.Query(sql, QueryOptions(ExecutionStrategy::kOriginal));
    ASSERT_TRUE(original.ok()) << sql << "\n" << original.status().ToString();
    for (ExecutionStrategy strategy :
         {ExecutionStrategy::kCorrelated, ExecutionStrategy::kMagic}) {
      auto other = db.Query(sql, QueryOptions(strategy));
      ASSERT_TRUE(other.ok())
          << StrategyName(strategy) << " failed on: " << sql << "\n"
          << other.status().ToString();
      ASSERT_TRUE(Table::BagEquals(original->table, other->table))
          << StrategyName(strategy) << " diverged on seed " << GetParam()
          << ": " << sql << "\noriginal rows=" << original->table.num_rows()
          << " other rows=" << other->table.num_rows();
    }
    // Magic with the cost comparison disabled (transformation forced) must
    // also agree.
    QueryOptions forced(ExecutionStrategy::kMagic);
    forced.pipeline.cost_compare = false;
    auto forced_result = db.Query(sql, forced);
    ASSERT_TRUE(forced_result.ok()) << sql;
    ASSERT_TRUE(Table::BagEquals(original->table, forced_result->table))
        << "forced magic diverged on seed " << GetParam() << ": " << sql;
    // The same optimized plan executed with secondary indexes disabled
    // (pure scans) must also produce the same bag. Skipped for sys.*
    // queries: a raw Executor over the Explain graph runs outside the
    // per-query snapshot scope that Query() establishes.
    if (!is_sys) {
      auto pipeline = db.Explain(sql, QueryOptions(ExecutionStrategy::kMagic));
      ASSERT_TRUE(pipeline.ok()) << sql;
      ExecOptions scan_opts;
      scan_opts.use_secondary_indexes = false;
      Executor scans(pipeline->graph.get(), db.catalog(), scan_opts);
      auto scan_table = scans.Run();
      ASSERT_TRUE(scan_table.ok()) << sql;
      ASSERT_TRUE(Table::BagEquals(original->table, *scan_table))
          << "scan-forced execution diverged on seed " << GetParam() << ": "
          << sql;
      EXPECT_EQ(scans.stats().index_probes, 0);
    }
    // Occasional index churn between queries: create/drop must never
    // change answers (only access paths).
    if (rng.Chance(30)) {
      db.Execute("DROP INDEX churn").ok();  // may not exist yet
      ASSERT_TRUE(db.Execute("CREATE INDEX churn ON fact (v)").ok());
    }
  }
}

// A parameterized query template for the prepared-statement fuzz: the
// engine side runs PREPARE/EXECUTE with '?' placeholders; the reference
// side inlines the same arguments as literals and compiles cold.
struct ParamTemplate {
  const char* sql;
  int num_params;
};

std::string InlineArgs(const std::string& templ,
                       const std::vector<std::string>& args) {
  std::string out;
  size_t next = 0;
  for (char c : templ) {
    if (c == '?') {
      out += args[next++];
    } else {
      out.push_back(c);
    }
  }
  return out;
}

TEST_P(FuzzEquivalenceTest, PreparedExecutionMatchesInlineLiterals) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919u);
  Database db;
  BuildRandomDb(&db, &rng);
  const std::vector<ParamTemplate> templates = {
      {"SELECT f.k, f.v FROM fact f WHERE f.g = ? AND f.v > ?", 2},
      {"SELECT d.name, d.w FROM dim d WHERE d.w < ?", 1},
      {"SELECT d.name, a.total, a.cnt FROM dim d, agg a "
       "WHERE d.g = a.g AND d.w > ?",
       1},
      {"SELECT f.k FROM fact f WHERE f.g IN "
       "(SELECT d.g FROM dim d WHERE d.w < ?)",
       1},
      {"SELECT d.name FROM dim d WHERE EXISTS "
       "(SELECT f.k FROM fact f WHERE f.g = d.g AND f.v > ?)",
       1},
  };
  QueryOptions magic(ExecutionStrategy::kMagic);
  for (int q = 0; q < 4; ++q) {
    const ParamTemplate& templ = rng.Pick(templates);
    std::string name = "fz" + std::to_string(q);
    auto prep = db.Query("PREPARE " + name + " AS " + templ.sql, magic);
    ASSERT_TRUE(prep.ok()) << templ.sql << "\n" << prep.status().ToString();
    // Several argument permutations against one prepared plan, with DDL
    // and DML churn interleaved: every execution must match a cold
    // compile of the same query with the arguments inlined — stale plans
    // must invalidate, never serve old data or shapes.
    for (int round = 0; round < 3; ++round) {
      std::vector<std::string> args;
      for (int p = 0; p < templ.num_params; ++p) {
        args.push_back(std::to_string(rng.Uniform(60)));
      }
      std::string arg_list;
      for (const std::string& a : args) {
        arg_list += (arg_list.empty() ? "" : ", ") + a;
      }
      auto executed =
          db.Query("EXECUTE " + name + "(" + arg_list + ")", magic);
      ASSERT_TRUE(executed.ok())
          << templ.sql << " args(" << arg_list << ")\n"
          << executed.status().ToString();
      auto inlined = db.Query(InlineArgs(templ.sql, args),
                              QueryOptions(ExecutionStrategy::kOriginal));
      ASSERT_TRUE(inlined.ok()) << InlineArgs(templ.sql, args);
      ASSERT_TRUE(Table::BagEquals(inlined->table, executed->table))
          << "prepared execution diverged on seed " << GetParam() << ": "
          << templ.sql << " args(" << arg_list << ")";
      switch (rng.Uniform(4)) {
        case 0:
          ASSERT_TRUE(db.Execute("INSERT INTO fact VALUES (3, 1, 9.5, 'z')")
                          .ok());
          break;
        case 1:
          db.Execute("DROP INDEX fuzz_churn").ok();  // may not exist yet
          ASSERT_TRUE(
              db.Execute("CREATE INDEX fuzz_churn ON dim (w)").ok());
          break;
        case 2:
          ASSERT_TRUE(db.Execute("ANALYZE fact").ok());
          break;
        default:  // no churn this round: the next EXECUTE should hit
          break;
      }
    }
    ASSERT_TRUE(db.Query("DEALLOCATE " + name, magic).ok());
  }
  // The loop prepared and deallocated everything it created.
  EXPECT_TRUE(db.PreparedStatementNames().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalenceTest, ::testing::Range(1, 25));

}  // namespace
}  // namespace starmagic

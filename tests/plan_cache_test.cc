#include "plan/plan_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/database.h"
#include "exec/executor.h"

namespace starmagic {
namespace {

// ---------------------------------------------------------------------------
// Key construction: SQL normalization and options fingerprint.
// ---------------------------------------------------------------------------

TEST(PlanCacheKeyTest, NormalizeSqlCollapsesWhitespaceOutsideStrings) {
  EXPECT_EQ(PlanCache::NormalizeSql("  SELECT  a\n\tFROM   t ;  "),
            "SELECT a FROM t");
  // Whitespace inside string literals is content, not formatting.
  EXPECT_EQ(PlanCache::NormalizeSql("SELECT 'a  b'   FROM t"),
            "SELECT 'a  b' FROM t");
  // Case is preserved: normalization must never fold literals.
  EXPECT_EQ(PlanCache::NormalizeSql("select A from T"), "select A from T");
  EXPECT_EQ(PlanCache::NormalizeSql(""), "");
  EXPECT_EQ(PlanCache::NormalizeSql(" ; "), "");
}

TEST(PlanCacheKeyTest, EquivalentFormattingsShareOneKey) {
  EXPECT_EQ(PlanCache::NormalizeSql("SELECT dst FROM tc WHERE src = ?"),
            PlanCache::NormalizeSql("SELECT dst\n  FROM tc\n  WHERE src = ?;"));
}

TEST(PlanCacheKeyTest, FingerprintCoversEveryPlanAffectingKnob) {
  PipelineOptions base;
  const std::string fp = PlanCache::Fingerprint(base);

  PipelineOptions strategy = base;
  strategy.strategy = ExecutionStrategy::kOriginal;
  EXPECT_NE(PlanCache::Fingerprint(strategy), fp);

  PipelineOptions toggle = base;
  toggle.toggles.constant_folding = !toggle.toggles.constant_folding;
  EXPECT_NE(PlanCache::Fingerprint(toggle), fp);

  PipelineOptions emst = base;
  emst.emst.push_conditions = !emst.emst.push_conditions;
  EXPECT_NE(PlanCache::Fingerprint(emst), fp);

  PipelineOptions cost = base;
  cost.cost_compare = !cost.cost_compare;
  EXPECT_NE(PlanCache::Fingerprint(cost), fp);

  PipelineOptions sips = base;
  sips.try_sips_order = !sips.try_sips_order;
  EXPECT_NE(PlanCache::Fingerprint(sips), fp);

  // Observability sinks change what compilation reports, not what it
  // produces — they must NOT fragment the cache.
  PipelineOptions sinks = base;
  sinks.capture_snapshots = true;
  EXPECT_EQ(PlanCache::Fingerprint(sinks), fp);
}

// ---------------------------------------------------------------------------
// Cache mechanics: LRU, capacity, residency accounting, invalidation.
// ---------------------------------------------------------------------------

class PlanCacheUnitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE edge (src INTEGER, dst INTEGER);
      INSERT INTO edge VALUES (1,2),(2,3),(3,4);
      ANALYZE;
    )sql")
                    .ok());
  }

  // A CachedPlan compiled from `sql`, pinned at the catalog's current
  // versions (what Database::CachePlan would build).
  CachedPlan Compile(const std::string& sql) {
    auto pipeline = db_.Explain(sql, QueryOptions(ExecutionStrategy::kMagic));
    EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    CachedPlan plan;
    plan.graph = std::move(pipeline->graph);
    for (const std::string& table : ReferencedBaseTables(*plan.graph)) {
      plan.pins.push_back({table, db_.catalog()->TableVersion(table),
                           db_.catalog()->LastAnalyzeVersion(table)});
    }
    plan.ddl_version = db_.catalog()->ddl_version();
    plan.normalized_sql = PlanCache::NormalizeSql(sql);
    plan.fingerprint = PlanCache::Fingerprint(PipelineOptions{});
    return plan;
  }

  Database db_;
};

TEST_F(PlanCacheUnitTest, LruEvictsOldestPastCapacity) {
  PlanCache cache(2);
  EXPECT_EQ(cache.Insert(Compile("SELECT src FROM edge")), 0);
  EXPECT_EQ(cache.Insert(Compile("SELECT dst FROM edge")), 0);
  EXPECT_EQ(cache.Insert(Compile("SELECT src, dst FROM edge")), 1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);

  const std::string fp = PlanCache::Fingerprint(PipelineOptions{});
  // The first insert was the LRU tail: evicted.
  EXPECT_EQ(cache.Lookup("SELECT src FROM edge", fp, *db_.catalog()).plan,
            nullptr);
  // The other two survive.
  EXPECT_NE(cache.Lookup("SELECT dst FROM edge", fp, *db_.catalog()).plan,
            nullptr);
  EXPECT_NE(
      cache.Lookup("SELECT src, dst FROM edge", fp, *db_.catalog()).plan,
      nullptr);
}

TEST_F(PlanCacheUnitTest, LookupRefreshesLruPosition) {
  PlanCache cache(2);
  cache.Insert(Compile("SELECT src FROM edge"));
  cache.Insert(Compile("SELECT dst FROM edge"));
  const std::string fp = PlanCache::Fingerprint(PipelineOptions{});
  // Touch the older entry; the newer one becomes the eviction victim.
  ASSERT_NE(cache.Lookup("SELECT src FROM edge", fp, *db_.catalog()).plan,
            nullptr);
  cache.Insert(Compile("SELECT src, dst FROM edge"));
  EXPECT_NE(cache.Lookup("SELECT src FROM edge", fp, *db_.catalog()).plan,
            nullptr);
  EXPECT_EQ(cache.Lookup("SELECT dst FROM edge", fp, *db_.catalog()).plan,
            nullptr);
}

TEST_F(PlanCacheUnitTest, SameKeyInsertReplacesWithoutEviction) {
  PlanCache cache(2);
  cache.Insert(Compile("SELECT src FROM edge"));
  EXPECT_EQ(cache.Insert(Compile("SELECT src FROM edge")), 0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 0);
}

TEST_F(PlanCacheUnitTest, DistinctFingerprintsAreDistinctEntries) {
  PlanCache cache;
  CachedPlan a = Compile("SELECT src FROM edge");
  CachedPlan b = Compile("SELECT src FROM edge");
  b.fingerprint = "other";
  cache.Insert(std::move(a));
  cache.Insert(std::move(b));
  EXPECT_EQ(cache.size(), 2u);
}

TEST_F(PlanCacheUnitTest, SetCapacityZeroDisablesAndClears) {
  PlanCache cache;
  cache.Insert(Compile("SELECT src FROM edge"));
  EXPECT_GT(cache.resident_bytes(), 0);
  cache.SetCapacity(0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0);
  // Disabled: lookups miss, inserts are dropped.
  const std::string fp = PlanCache::Fingerprint(PipelineOptions{});
  EXPECT_EQ(cache.Lookup("SELECT src FROM edge", fp, *db_.catalog()).plan,
            nullptr);
  cache.Insert(Compile("SELECT src FROM edge"));
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(PlanCacheUnitTest, ResidentBytesReturnToZeroOnClear) {
  PlanCache cache;
  cache.Insert(Compile("SELECT src FROM edge"));
  cache.Insert(Compile("SELECT dst FROM edge"));
  int64_t resident = cache.resident_bytes();
  EXPECT_GT(resident, 0);
  EXPECT_GE(cache.peak_resident_bytes(), resident);
  cache.Clear();
  EXPECT_EQ(cache.resident_bytes(), 0);
  EXPECT_GE(cache.peak_resident_bytes(), resident);  // peak survives
  EXPECT_EQ(cache.stats().evictions, 0);  // Clear is not an eviction
}

TEST_F(PlanCacheUnitTest, DmlInvalidatesThroughTableVersionPin) {
  PlanCache cache;
  cache.Insert(Compile("SELECT src FROM edge"));
  const std::string fp = PlanCache::Fingerprint(PipelineOptions{});
  ASSERT_NE(cache.Lookup("SELECT src FROM edge", fp, *db_.catalog()).plan,
            nullptr);
  ASSERT_TRUE(db_.Execute("INSERT INTO edge VALUES (4,5)").ok());
  PlanCache::LookupResult stale =
      cache.Lookup("SELECT src FROM edge", fp, *db_.catalog());
  EXPECT_EQ(stale.plan, nullptr);
  EXPECT_TRUE(stale.invalidated);
  EXPECT_EQ(cache.size(), 0u);  // dropped, not retained
  EXPECT_EQ(cache.stats().invalidations, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);  // the stale lookup is also a miss
}

TEST_F(PlanCacheUnitTest, AnalyzeInvalidatesThroughAnalyzeVersionPin) {
  ASSERT_TRUE(db_.Execute("INSERT INTO edge VALUES (4,5)").ok());
  PlanCache cache;
  cache.Insert(Compile("SELECT src FROM edge"));
  const std::string fp = PlanCache::Fingerprint(PipelineOptions{});
  ASSERT_TRUE(db_.Execute("ANALYZE edge").ok());
  PlanCache::LookupResult stale =
      cache.Lookup("SELECT src FROM edge", fp, *db_.catalog());
  EXPECT_EQ(stale.plan, nullptr);
  EXPECT_TRUE(stale.invalidated);
}

TEST_F(PlanCacheUnitTest, UnrelatedDdlInvalidatesThroughDdlVersionPin) {
  // The catalog-wide DDL pin over-invalidates by design: it is the only
  // pin that catches drop-and-recreate of a referenced table.
  PlanCache cache;
  cache.Insert(Compile("SELECT src FROM edge"));
  const std::string fp = PlanCache::Fingerprint(PipelineOptions{});
  ASSERT_TRUE(db_.Execute("CREATE TABLE unrelated (x INTEGER)").ok());
  EXPECT_TRUE(
      cache.Lookup("SELECT src FROM edge", fp, *db_.catalog()).invalidated);
}

TEST_F(PlanCacheUnitTest, DropAndRecreateNeverServesTheOldPlan) {
  PlanCache cache;
  cache.Insert(Compile("SELECT src FROM edge"));
  const std::string fp = PlanCache::Fingerprint(PipelineOptions{});
  ASSERT_TRUE(db_.Execute("DROP TABLE edge").ok());
  ASSERT_TRUE(
      db_.Execute("CREATE TABLE edge (src INTEGER, dst INTEGER)").ok());
  PlanCache::LookupResult stale =
      cache.Lookup("SELECT src FROM edge", fp, *db_.catalog());
  EXPECT_EQ(stale.plan, nullptr);
  EXPECT_TRUE(stale.invalidated);
}

// ---------------------------------------------------------------------------
// Parameter binding into a cloned master graph.
// ---------------------------------------------------------------------------

TEST_F(PlanCacheUnitTest, BindParametersRejectsMissingBinding) {
  auto pipeline = db_.Explain("SELECT src FROM edge WHERE dst = ?",
                              QueryOptions(ExecutionStrategy::kOriginal));
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  Status s = BindParameters(pipeline->graph.get(), {});
  EXPECT_EQ(s.code(), StatusCode::kExecutionError);
  EXPECT_NE(s.message().find("?1"), std::string::npos);
}

TEST_F(PlanCacheUnitTest, MasterGraphSurvivesBindingIntoClones) {
  // The cached master keeps its kParameter nodes across executions: each
  // run binds into a clone, so the same entry serves different arguments.
  CachedPlan master = Compile("SELECT src FROM edge WHERE dst = ?");
  for (int64_t dst : {2, 3, 2}) {
    std::unique_ptr<QueryGraph> clone = master.graph->Clone();
    ASSERT_TRUE(BindParameters(clone.get(), {Value::Int(dst)}).ok());
    Executor executor(clone.get(), db_.catalog());
    auto result = executor.Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->num_rows(), 1);
    EXPECT_EQ(result->rows()[0][0].int_value(), dst - 1);
  }
}

TEST_F(PlanCacheUnitTest, SysPlansAreRecognizedAsUncacheable) {
  auto sys = db_.Explain("SELECT name FROM sys.tables",
                         QueryOptions(ExecutionStrategy::kOriginal));
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  EXPECT_TRUE(ReferencesSysTables(*sys->graph));
  auto base = db_.Explain("SELECT src FROM edge",
                          QueryOptions(ExecutionStrategy::kOriginal));
  ASSERT_TRUE(base.ok());
  EXPECT_FALSE(ReferencesSysTables(*base->graph));
}

// ---------------------------------------------------------------------------
// PREPARE / EXECUTE / DEALLOCATE through the Database.
// ---------------------------------------------------------------------------

class PreparedStatementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE edge (src INTEGER, dst INTEGER);
      INSERT INTO edge VALUES (1,2),(2,3),(3,4),(2,5),(5,6),(10,11),(11,12);
      CREATE RECURSIVE VIEW tc (src, dst) AS
        SELECT src, dst FROM edge
        UNION
        SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src;
      ANALYZE;
    )sql")
                    .ok());
  }

  Result<QueryResult> Run(const std::string& sql, int threads = 1) {
    QueryOptions options(ExecutionStrategy::kMagic);
    options.metrics = &metrics_;
    options.num_threads = threads;
    return db_.Query(sql, options);
  }

  Database db_;
  MetricsRegistry metrics_;
};

TEST_F(PreparedStatementTest, ExecuteSkipsCompileAndMatchesColdResults) {
  // Cold reference: the same query with the literal inlined.
  auto cold = Run("SELECT dst FROM tc WHERE src = 2 ORDER BY dst");
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_EQ(cold->table.num_rows(), 4);  // 3, 4, 5, 6

  auto prep = Run("PREPARE deep AS SELECT dst FROM tc WHERE src = ? "
                  "ORDER BY dst");
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  EXPECT_FALSE(prep->plan_cache_hit);
  // PREPARE compiles eagerly: the pipeline diagnostics are real.
  EXPECT_FALSE(prep->rule_fires.empty());

  // Every EXECUTE hits the plan PREPARE warmed: the compile pipeline is
  // skipped, so the hot path reports zero rule fires.
  for (int i = 0; i < 3; ++i) {
    auto exec = Run("EXECUTE deep(2)");
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_TRUE(exec->plan_cache_hit);
    EXPECT_TRUE(exec->rule_fires.empty());
    EXPECT_EQ(exec->table.ToString(100), cold->table.ToString(100));
  }
  EXPECT_EQ(metrics_.CounterValue("plan_cache.hits"), 3);
  EXPECT_EQ(metrics_.CounterValue("plan_cache.misses"), 1);  // the PREPARE

  // Different arguments reuse the same cached master plan.
  auto other = Run("EXECUTE deep(10)");
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_TRUE(other->plan_cache_hit);
  ASSERT_EQ(other->table.num_rows(), 2);  // 11, 12
  EXPECT_EQ(db_.plan_cache()->size(), 1u);
}

TEST_F(PreparedStatementTest, CachedResultsAreByteIdenticalAcrossThreads) {
  ASSERT_TRUE(
      Run("PREPARE deep AS SELECT dst FROM tc WHERE src = ? ORDER BY dst")
          .ok());
  auto cold = Run("SELECT dst FROM tc WHERE src = 1 ORDER BY dst");
  ASSERT_TRUE(cold.ok());
  const std::string expected = cold->table.ToString(100);
  for (int threads : {1, 2, 8}) {
    auto exec = Run("EXECUTE deep(1)", threads);
    ASSERT_TRUE(exec.ok()) << threads << ": " << exec.status().ToString();
    EXPECT_TRUE(exec->plan_cache_hit);
    EXPECT_EQ(exec->table.ToString(100), expected) << "threads=" << threads;
    EXPECT_EQ(exec->exec_stats.TotalWork(), cold->exec_stats.TotalWork())
        << "threads=" << threads;
  }
}

TEST_F(PreparedStatementTest, DmlInvalidatesBeforeNextExecution) {
  ASSERT_TRUE(
      Run("PREPARE deep AS SELECT dst FROM tc WHERE src = ? ORDER BY dst")
          .ok());
  auto warm = Run("EXECUTE deep(3)");
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);
  ASSERT_EQ(warm->table.num_rows(), 1);  // 4

  // New edge 4->7 extends the closure; the stale plan must not serve it.
  ASSERT_TRUE(db_.Execute("INSERT INTO edge VALUES (4,7)").ok());
  auto recompiled = Run("EXECUTE deep(3)");
  ASSERT_TRUE(recompiled.ok()) << recompiled.status().ToString();
  EXPECT_FALSE(recompiled->plan_cache_hit);
  ASSERT_EQ(recompiled->table.num_rows(), 2);  // 4, 7
  EXPECT_EQ(metrics_.CounterValue("plan_cache.invalidations"), 1);

  // The recompile re-cached; the next execution hits again.
  auto rewarmed = Run("EXECUTE deep(3)");
  ASSERT_TRUE(rewarmed.ok());
  EXPECT_TRUE(rewarmed->plan_cache_hit);
}

TEST_F(PreparedStatementTest, PlanCacheMetricsMatchCacheStats) {
  // Capacity 1 makes the second statement evict the first, so every
  // counter moves.
  db_.plan_cache()->SetCapacity(1);
  auto expect_agree = [&](const std::string& step) {
    const PlanCacheStats stats = db_.plan_cache()->stats();
    EXPECT_EQ(metrics_.CounterValue("plan_cache.hits"), stats.hits) << step;
    EXPECT_EQ(metrics_.CounterValue("plan_cache.misses"), stats.misses)
        << step;
    EXPECT_EQ(metrics_.CounterValue("plan_cache.invalidations"),
              stats.invalidations)
        << step;
    EXPECT_EQ(metrics_.CounterValue("plan_cache.evictions"), stats.evictions)
        << step;
  };
  for (const char* sql :
       {"PREPARE deep AS SELECT dst FROM tc WHERE src = ?", "EXECUTE deep(2)",
        "PREPARE flat AS SELECT dst FROM edge WHERE src = ?",
        "EXECUTE deep(2)"}) {
    ASSERT_TRUE(Run(sql).ok()) << sql;
    expect_agree(sql);
  }
  ASSERT_TRUE(db_.Execute("INSERT INTO edge VALUES (6,7)").ok());
  auto recompiled = Run("EXECUTE deep(2)");
  ASSERT_TRUE(recompiled.ok()) << recompiled.status().ToString();
  EXPECT_FALSE(recompiled->plan_cache_hit);
  expect_agree("EXECUTE after invalidating INSERT");

  const PlanCacheStats stats = db_.plan_cache()->stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 4);
  EXPECT_EQ(stats.invalidations, 1);
  EXPECT_EQ(stats.evictions, 2);

  // PREPARE is a lookup like EXECUTE: re-preparing a cached body hits.
  ASSERT_TRUE(Run("DEALLOCATE deep").ok());
  auto reprepared = Run("PREPARE deep AS SELECT dst FROM tc WHERE src = ?");
  ASSERT_TRUE(reprepared.ok()) << reprepared.status().ToString();
  EXPECT_TRUE(reprepared->plan_cache_hit);
  EXPECT_TRUE(reprepared->rule_fires.empty());
  expect_agree("re-PREPARE");
}

TEST_F(PreparedStatementTest, AnalyzeAndDdlInvalidateBeforeNextExecution) {
  ASSERT_TRUE(Run("PREPARE deep AS SELECT dst FROM tc WHERE src = ?").ok());
  ASSERT_TRUE(Run("EXECUTE deep(2)")->plan_cache_hit);

  ASSERT_TRUE(db_.Execute("INSERT INTO edge VALUES (6,8)").ok());
  ASSERT_TRUE(db_.Execute("ANALYZE edge").ok());
  EXPECT_FALSE(Run("EXECUTE deep(2)")->plan_cache_hit);
  ASSERT_TRUE(Run("EXECUTE deep(2)")->plan_cache_hit);

  ASSERT_TRUE(db_.Execute("CREATE TABLE unrelated (x INTEGER)").ok());
  EXPECT_FALSE(Run("EXECUTE deep(2)")->plan_cache_hit);
  ASSERT_TRUE(Run("EXECUTE deep(2)")->plan_cache_hit);
}

TEST_F(PreparedStatementTest, LifecycleErrorsAreTyped) {
  EXPECT_EQ(Run("EXECUTE nope").status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(Run("PREPARE p AS SELECT dst FROM tc WHERE src = ?").ok());
  EXPECT_EQ(Run("PREPARE p AS SELECT src FROM edge").status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(Run("EXECUTE p").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Run("EXECUTE p(1, 2)").status().code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(Run("DEALLOCATE p").ok());
  EXPECT_EQ(Run("EXECUTE p(1)").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(Run("DEALLOCATE p").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(db_.PreparedStatementNames().empty());
}

TEST_F(PreparedStatementTest, PreparedNamesAreCaseInsensitiveAndListed) {
  ASSERT_TRUE(Run("PREPARE Deep AS SELECT dst FROM tc WHERE src = ?").ok());
  EXPECT_EQ(Run("PREPARE DEEP AS SELECT src FROM edge").status().code(),
            StatusCode::kAlreadyExists);
  ASSERT_EQ(db_.PreparedStatementNames().size(), 1u);
  ASSERT_TRUE(Run("EXECUTE deep(2)").ok());
  ASSERT_TRUE(Run("DEALLOCATE DEEP").ok());
}

TEST_F(PreparedStatementTest, StatementsGoThroughQueryNotExecute) {
  EXPECT_FALSE(db_.Execute("PREPARE p AS SELECT src FROM edge").ok());
  EXPECT_FALSE(db_.Execute("EXECUTE p").ok());
  EXPECT_FALSE(db_.Execute("DEALLOCATE p").ok());
}

// ---------------------------------------------------------------------------
// Opt-in caching for plain SELECT / EXPLAIN.
// ---------------------------------------------------------------------------

TEST_F(PreparedStatementTest, SelectCachingIsOptIn) {
  // Default options never consult the cache.
  ASSERT_FALSE(Run("SELECT dst FROM tc WHERE src = 2")->plan_cache_hit);
  ASSERT_FALSE(Run("SELECT dst FROM tc WHERE src = 2")->plan_cache_hit);
  EXPECT_EQ(db_.plan_cache()->size(), 0u);

  QueryOptions options(ExecutionStrategy::kMagic);
  options.use_plan_cache = true;
  auto first = db_.Query("SELECT dst FROM tc WHERE src = 2", options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->plan_cache_hit);
  // Different formatting, same normalized key.
  auto second =
      db_.Query("SELECT dst\n   FROM tc  WHERE src = 2 ;", options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->plan_cache_hit);
  EXPECT_TRUE(second->rule_fires.empty());
  EXPECT_TRUE(Table::BagEquals(first->table, second->table));
}

TEST_F(PreparedStatementTest, ExplainReportsCacheDisposition) {
  QueryOptions options(ExecutionStrategy::kMagic);
  options.use_plan_cache = true;
  auto miss = db_.Query("EXPLAIN SELECT dst FROM tc WHERE src = 2", options);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_NE(miss->analyze_report.find("plan_cache=miss"), std::string::npos);
  auto hit = db_.Query("EXPLAIN SELECT dst FROM tc WHERE src = 2", options);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->plan_cache_hit);
  EXPECT_NE(hit->analyze_report.find("plan_cache=hit"), std::string::npos);
}

TEST_F(PreparedStatementTest, SysTableQueriesAreNeverCached) {
  QueryOptions options(ExecutionStrategy::kOriginal);
  options.use_plan_cache = true;
  for (int i = 0; i < 2; ++i) {
    auto r = db_.Query("SELECT name FROM sys.tables", options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->plan_cache_hit);
  }
  EXPECT_EQ(db_.plan_cache()->size(), 0u);
}

TEST_F(PreparedStatementTest, DisabledCacheStillExecutesPreparedStatements) {
  db_.plan_cache()->SetCapacity(0);
  ASSERT_TRUE(
      Run("PREPARE deep AS SELECT dst FROM tc WHERE src = ? ORDER BY dst")
          .ok());
  auto exec = Run("EXECUTE deep(2)");
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_FALSE(exec->plan_cache_hit);  // recompiled per execution
  ASSERT_EQ(exec->table.num_rows(), 4);
}

// ---------------------------------------------------------------------------
// sys.plan_cache: introspection rows and join determinism.
// ---------------------------------------------------------------------------

TEST_F(PreparedStatementTest, SysPlanCacheRowsReflectEntries) {
  ASSERT_TRUE(Run("PREPARE deep AS SELECT dst FROM tc WHERE src = ?").ok());
  ASSERT_TRUE(Run("EXECUTE deep(2)").ok());
  ASSERT_TRUE(Run("EXECUTE deep(10)").ok());

  auto r = Run("SELECT sql, hits, num_params, tables FROM sys.plan_cache");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->table.num_rows(), 1);
  const Row& row = r->table.rows()[0];
  EXPECT_EQ(row[0].string_value(), "SELECT dst FROM tc WHERE src = ?");
  EXPECT_EQ(row[1].int_value(), 2);
  EXPECT_EQ(row[2].int_value(), 1);
  // The recursive view bottoms out in the edge base table; its pin
  // carries the modified/analyzed versions the entry was compiled at.
  EXPECT_NE(row[3].string_value().find("edge@"), std::string::npos);
}

TEST_F(PreparedStatementTest, SysPlanCacheJoinIsDeterministicAcrossThreads) {
  ASSERT_TRUE(Run("PREPARE deep AS SELECT dst FROM tc WHERE src = ?").ok());
  ASSERT_TRUE(Run("EXECUTE deep(2)").ok());
  const char* join_sql =
      "SELECT p.entry, p.sql, p.num_params, t.name "
      "FROM sys.plan_cache p, sys.tables t "
      "WHERE t.name = 'edge' ORDER BY p.entry";
  auto baseline = Run(join_sql, 1);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->table.num_rows(), 1);
  for (int threads : {2, 8}) {
    auto r = Run(join_sql, threads);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->table.ToString(100), baseline->table.ToString(100))
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Executor cache charges: released exactly once, reconciled box stats.
// ---------------------------------------------------------------------------

class ExecutorChargeTest : public PreparedStatementTest {};

TEST_F(ExecutorChargeTest, CacheChargesReleaseExactlyOnceOnDestruction) {
  auto pipeline = db_.Explain("SELECT dst FROM tc WHERE src = 2",
                              QueryOptions(ExecutionStrategy::kMagic));
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  ResourceGovernor governor(ResourceBudget::Unlimited());
  // Two executors sharing one governor: without the destructor release,
  // the second run would start with the first run's cache bytes leaked.
  for (int run = 0; run < 2; ++run) {
    std::unique_ptr<QueryGraph> graph = pipeline->graph->Clone();
    ExecOptions options;
    options.governor = &governor;
    Executor executor(graph.get(), db_.catalog(), options);
    auto result = executor.Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(governor.peak_bytes(), 0);
  }
  EXPECT_EQ(governor.used_bytes(), 0);
}

TEST_F(ExecutorChargeTest, CorrelatedMemoChargesAlsoRelease) {
  auto pipeline = db_.Explain(
      "SELECT src FROM edge e WHERE src IN (SELECT src FROM tc WHERE "
      "dst = e.dst)",
      QueryOptions(ExecutionStrategy::kOriginal));
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  ResourceGovernor governor(ResourceBudget::Unlimited());
  {
    ExecOptions options;
    options.governor = &governor;
    options.memoize_correlation = true;
    Executor executor(pipeline->graph.get(), db_.catalog(), options);
    ASSERT_TRUE(executor.Run().ok());
  }
  EXPECT_EQ(governor.used_bytes(), 0);
}

TEST_F(ExecutorChargeTest, BoxStatsCacheHitsReconcileWithExecStats) {
  // EXPLAIN ANALYZE collects per-box stats; summing their cache_hits must
  // reproduce ExecStats::cache_hits exactly — including hits on already-
  // converged recursive components — at every thread count.
  for (int threads : {1, 2, 8}) {
    auto r = Run("EXPLAIN ANALYZE SELECT src, dst FROM tc", threads);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    int64_t box_hits = 0;
    for (const auto& [id, stats] : r->box_stats) box_hits += stats.cache_hits;
    EXPECT_EQ(box_hits, r->exec_stats.cache_hits) << "threads=" << threads;
    EXPECT_GT(r->exec_stats.cache_hits, 0) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace starmagic

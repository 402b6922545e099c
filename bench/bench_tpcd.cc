// TPC-D-style decision-support queries (the paper's conclusion: "much
// effort has been spent to optimize TPCD benchmark queries by hand... The
// magic-sets transformation provides an opportunity to optimize decision
// support queries in a stable manner").
//
// A scaled-down TPC-D-like schema (region, nation, supplier, customer,
// orders, lineitem) with aggregate views in the spirit of Q5/Q10/Q11-style
// questions; each query runs under the three strategies and must agree.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/string_util.h"
#include "workloads.h"

namespace starmagic::bench {
namespace {

Status LoadTpcd(Database* db, int64_t scale_percent) {
  SM_RETURN_IF_ERROR(db->ExecuteScript(R"sql(
    CREATE TABLE region   (regionkey INTEGER, rname VARCHAR);
    CREATE TABLE nation   (nationkey INTEGER, nname VARCHAR,
                           regionkey INTEGER);
    CREATE TABLE supplier (suppkey INTEGER, sname VARCHAR,
                           nationkey INTEGER, acctbal DOUBLE);
    CREATE TABLE customer (custkey INTEGER, cname VARCHAR,
                           nationkey INTEGER, segment VARCHAR);
    CREATE TABLE orders   (orderkey INTEGER, custkey INTEGER,
                           totalprice DOUBLE, opriority INTEGER);
    CREATE TABLE lineitem (orderkey INTEGER, suppkey INTEGER,
                           quantity INTEGER, price DOUBLE,
                           discount DOUBLE);
  )sql"));

  Rng rng(4242);
  const int64_t nations = 25;
  const int64_t suppliers = 200 * scale_percent / 100;
  const int64_t customers = 1500 * scale_percent / 100;
  const int64_t orders = 6000 * scale_percent / 100;
  const int64_t lineitems_per_order = 3;

  Table* region = db->catalog()->GetTable("region");
  for (int64_t r = 0; r < 5; ++r) {
    SM_RETURN_IF_ERROR(region->Append(
        {Value::Int(r), Value::String(r == 2 ? std::string("ASIA") : StrCat("R", r))}));
  }
  Table* nation = db->catalog()->GetTable("nation");
  for (int64_t n = 0; n < nations; ++n) {
    SM_RETURN_IF_ERROR(nation->Append(
        {Value::Int(n), Value::String(StrCat("N", n)), Value::Int(n % 5)}));
  }
  Table* supplier = db->catalog()->GetTable("supplier");
  for (int64_t s = 0; s < suppliers; ++s) {
    SM_RETURN_IF_ERROR(supplier->Append(
        {Value::Int(s), Value::String(StrCat("S", s)),
         Value::Int(rng.Uniform(nations)),
         Value::Double(static_cast<double>(rng.Uniform(10000)))}));
  }
  Table* customer = db->catalog()->GetTable("customer");
  for (int64_t c = 0; c < customers; ++c) {
    SM_RETURN_IF_ERROR(customer->Append(
        {Value::Int(c), Value::String(StrCat("C", c)),
         Value::Int(rng.Uniform(nations)),
         Value::String(rng.Uniform(5) == 0 ? "BUILDING"
                                           : StrCat("SEG", rng.Uniform(4)))}));
  }
  Table* orders_t = db->catalog()->GetTable("orders");
  Table* lineitem = db->catalog()->GetTable("lineitem");
  for (int64_t o = 0; o < orders; ++o) {
    SM_RETURN_IF_ERROR(orders_t->Append(
        {Value::Int(o), Value::Int(rng.Uniform(customers)),
         Value::Double(static_cast<double>(1000 + rng.Uniform(90000)) / 10),
         Value::Int(rng.Uniform(5))}));
    for (int64_t l = 0; l < lineitems_per_order; ++l) {
      SM_RETURN_IF_ERROR(lineitem->Append(
          {Value::Int(o), Value::Int(rng.Uniform(suppliers)),
           Value::Int(1 + rng.Uniform(50)),
           Value::Double(static_cast<double>(100 + rng.Uniform(9900)) / 10),
           Value::Double(static_cast<double>(rng.Uniform(10)) / 100)}));
    }
  }
  SM_RETURN_IF_ERROR(db->SetPrimaryKey("region", {"regionkey"}));
  SM_RETURN_IF_ERROR(db->SetPrimaryKey("nation", {"nationkey"}));
  SM_RETURN_IF_ERROR(db->SetPrimaryKey("supplier", {"suppkey"}));
  SM_RETURN_IF_ERROR(db->SetPrimaryKey("customer", {"custkey"}));
  SM_RETURN_IF_ERROR(db->SetPrimaryKey("orders", {"orderkey"}));

  // Aggregate views: revenue per supplier and order volume per customer —
  // the expensive intermediates TPC-D-style questions drill into.
  SM_RETURN_IF_ERROR(db->ExecuteScript(R"sql(
    CREATE VIEW suppRevenue (suppkey, revenue, items) AS
      SELECT suppkey, SUM(price * (1 - discount)), COUNT(*)
      FROM lineitem GROUP BY suppkey;
    CREATE VIEW custVolume (custkey, spent, norders) AS
      SELECT custkey, SUM(totalprice), COUNT(*)
      FROM orders GROUP BY custkey;
  )sql"));
  return db->AnalyzeAll();
}

struct QuerySpec {
  const char* id;
  const char* description;
  std::string sql;
};

int Run(int64_t scale) {
  BenchObs obs("tpcd");
  BenchJson report("tpcd", scale);
  Database db;
  if (Status s = LoadTpcd(&db, scale); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  std::vector<QuerySpec> queries = {
      {"Q-A", "revenue of suppliers in one region (Q5-flavoured)",
       "SELECT n.nname, s.sname, v.revenue "
       "FROM region r, nation n, supplier s, suppRevenue v "
       "WHERE r.regionkey = n.regionkey AND n.nationkey = s.nationkey "
       "AND s.suppkey = v.suppkey AND r.rname = 'ASIA' "
       "AND v.revenue > 5000"},
      {"Q-B", "order volume of BUILDING-segment customers (Q10-flavoured)",
       "SELECT c.cname, v.spent, v.norders "
       "FROM customer c, custVolume v "
       "WHERE c.custkey = v.custkey AND c.segment = 'BUILDING' "
       "AND v.spent > 20000"},
      {"Q-C", "top suppliers of one nation (Q11-flavoured)",
       "SELECT s.sname, v.revenue FROM nation n, supplier s, suppRevenue v "
       "WHERE n.nationkey = s.nationkey AND s.suppkey = v.suppkey "
       "AND n.nname = 'N7' "
       "AND v.revenue > (SELECT AVG(revenue) FROM suppRevenue)"},
      {"Q-D", "customers with above-average volume in a nation",
       "SELECT c.cname, v.spent FROM customer c, custVolume v "
       "WHERE c.custkey = v.custkey AND c.nationkey = 3 AND v.norders >= 2"},
  };

  std::printf("TPC-D-style decision support (scale=%lld%%), work counters\n\n",
              static_cast<long long>(scale));
  std::printf("%-5s %12s %12s %12s  %8s  %s\n", "Q", "Original", "Correlated",
              "EMST", "rows", "agree");
  bool all_ok = true;
  for (const QuerySpec& q : queries) {
    int64_t work[3] = {0, 0, 0};
    Table results[3];
    bool ok = true;
    int i = 0;
    for (ExecutionStrategy strategy :
         {ExecutionStrategy::kOriginal, ExecutionStrategy::kCorrelated,
          ExecutionStrategy::kMagic}) {
      auto m = MeasureQuery(&db, q.sql, obs.Options(strategy));
      if (!m.ok()) {
        std::fprintf(stderr, "%s/%s: %s\n", q.id, StrategyName(strategy),
                     m.status().ToString().c_str());
        return 1;
      }
      work[i] = m->work();
      report.Add({q.id, StrategyName(strategy), work[i], m->exec_ms,
                  m->rows()});
      results[i] = std::move(m->last.table);
      ++i;
    }
    ok = Table::BagEquals(results[0], results[1]) &&
         Table::BagEquals(results[0], results[2]);
    all_ok = all_ok && ok;
    std::printf("%-5s %12lld %12lld %12lld  %8lld  %s\n", q.id,
                static_cast<long long>(work[0]),
                static_cast<long long>(work[1]),
                static_cast<long long>(work[2]),
                static_cast<long long>(results[0].num_rows()),
                ok ? "yes" : "NO");
    std::printf("      -- %s\n", q.description);
  }
  std::printf("\n%s\n", all_ok
                            ? "EMST optimizes decision-support queries in a "
                              "stable manner (paper's conclusion)"
                            : "RESULTS DIVERGED");
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace starmagic::bench

int main(int argc, char** argv) {
  int64_t scale = starmagic::bench::BenchObs::Smoke() ? 10 : 100;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) scale = std::atoll(arg.c_str() + 8);
  }
  return starmagic::bench::Run(scale);
}

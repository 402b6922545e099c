// The embedded observability endpoint: route table, HTTP plumbing
// (ephemeral ports, 404/405/400, percent-decoding), the OpenMetrics
// exposition, three-way counter agreement (registry render == sys.metrics
// == GET /metrics), byte-identity of query results with the server on vs.
// off, and a scrape-under-load test that hammers /metrics and
// /sys/active_queries from a second thread while an 8-way parallel
// recursive query runs (the TSan battery's data-race probe).
//
// When STARMAGIC_SCRAPE_OUT is set, OpenMetricsExposition writes its live
// scrape there so scripts/metrics_lint.py can validate a real exposition.

#include "net/obs_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "engine/database.h"
#include "obs/exporter.h"
#include "obs/metrics.h"

namespace starmagic {
namespace {

using obs::MakeObsEndpoints;
using obs::ObsEndpoints;
using obs::ObsRequest;
using obs::ObsResponse;
using obs::ObsServer;

// Minimal raw-socket HTTP/1.1 GET against 127.0.0.1:`port` — deliberately
// not reusing any server-side code so the wire format itself is under test.
struct HttpReply {
  int status = 0;
  std::map<std::string, std::string> headers;  // lower-case keys
  std::string body;
  bool ok = false;
};

HttpReply HttpGet(int port, const std::string& target) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  const std::string request =
      StrCat("GET ", target, " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {  // server closes after one response (Connection: close)
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return reply;
  const size_t line_end = raw.find("\r\n");
  // "HTTP/1.1 200 OK"
  if (raw.rfind("HTTP/1.1 ", 0) != 0) return reply;
  reply.status = std::atoi(raw.substr(9, line_end - 9).c_str());
  size_t pos = line_end + 2;
  while (pos < head_end) {
    const size_t eol = raw.find("\r\n", pos);
    const std::string line = raw.substr(pos, eol - pos);
    const size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string key = ToLower(line.substr(0, colon));
      size_t vstart = colon + 1;
      while (vstart < line.size() && line[vstart] == ' ') ++vstart;
      reply.headers[key] = line.substr(vstart);
    }
    pos = eol + 2;
  }
  reply.body = raw.substr(head_end + 4);
  reply.ok = true;
  return reply;
}

// Parses "starmagic_foo_total 3" / gauge sample lines into a value map.
std::map<std::string, std::string> ParseSamples(const std::string& text) {
  std::map<std::string, std::string> samples;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    samples[line.substr(0, space)] = line.substr(space + 1);
  }
  return samples;
}

// ---------------------------------------------------------------------------
// Route table and dispatch (no sockets).
// ---------------------------------------------------------------------------

TEST(ObsRoutesTest, SpecListsTheThreeEndpoints) {
  const std::vector<obs::ObsRoute>& routes = ObsServer::Routes();
  ASSERT_EQ(routes.size(), 3u);
  std::vector<std::string> patterns;
  for (const obs::ObsRoute& r : routes) {
    EXPECT_STREQ(r.method, "GET");
    EXPECT_NE(r.description[0], '\0');
    patterns.push_back(r.pattern);
  }
  EXPECT_EQ(patterns, (std::vector<std::string>{"/metrics", "/healthz",
                                                "/sys/<table>"}));
}

TEST(ObsDispatchTest, UnknownPathIs404AndWrongMethodIs405) {
  ObsEndpoints endpoints;  // handlers unset: dispatch decides first
  ObsRequest request;
  request.method = "GET";
  request.path = "/nope";
  EXPECT_EQ(ObsServer::Dispatch(endpoints, request).status, 404);
  request.path = "/sys/";  // empty table name is not a route
  EXPECT_EQ(ObsServer::Dispatch(endpoints, request).status, 404);
  request.method = "POST";
  request.path = "/metrics";
  EXPECT_EQ(ObsServer::Dispatch(endpoints, request).status, 405);
}

TEST(ObsDispatchTest, SysTableDefaultsToJsonAndValidatesFormat) {
  Database db;
  MetricsRegistry metrics;
  ObsEndpoints endpoints = MakeObsEndpoints(&db, &metrics);
  ObsRequest request;
  request.method = "GET";
  request.path = "/sys/tables";
  ObsResponse r = ObsServer::Dispatch(endpoints, request);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.content_type.find("application/json"), std::string::npos);
  EXPECT_NE(r.body.find("\"table\": \"sys.tables\""), std::string::npos);

  request.params["format"] = "csv";
  r = ObsServer::Dispatch(endpoints, request);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.content_type.find("text/csv"), std::string::npos);
  EXPECT_EQ(r.body.rfind("name,", 0), 0u);  // header line first

  request.params["format"] = "xml";
  EXPECT_EQ(ObsServer::Dispatch(endpoints, request).status, 400);

  request.params.erase("format");
  request.path = "/sys/not_a_table";
  EXPECT_EQ(ObsServer::Dispatch(endpoints, request).status, 404);
}

// ---------------------------------------------------------------------------
// Live server.
// ---------------------------------------------------------------------------

TEST(ObsServerTest, EphemeralPortHealthzAndErrors) {
  Database db;
  MetricsRegistry metrics;
  ObsServer server(MakeObsEndpoints(&db, &metrics));
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());
  // Starting twice is a typed error, not a second socket.
  EXPECT_EQ(server.Start(0).code(), StatusCode::kInvalidArgument);

  HttpReply health = HttpGet(server.port(), "/healthz");
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");
  EXPECT_EQ(health.headers["content-length"],
            std::to_string(health.body.size()));
  EXPECT_EQ(health.headers["connection"], "close");

  EXPECT_EQ(HttpGet(server.port(), "/no/such/route").status, 404);
  EXPECT_EQ(HttpGet(server.port(), "/sys/nope").status, 404);
  EXPECT_EQ(HttpGet(server.port(), "/sys/tables?format=xml").status, 400);

  const int port = server.port();
  server.Stop();
  server.Stop();  // idempotent
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(HttpGet(port, "/healthz").ok);  // connection refused
}

TEST(ObsServerTest, SysEndpointMatchesDirectSnapshot) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER, b VARCHAR);"
                               "INSERT INTO t VALUES (1, 'x,y\nz');")
                  .ok());
  MetricsRegistry metrics;
  ObsServer server(MakeObsEndpoints(&db, &metrics));
  ASSERT_TRUE(server.Start(0).ok());

  QueryOptions options;
  options.internal = true;
  options.metrics = &metrics;
  auto snapshot = db.SnapshotSysTable("sys.columns", options);
  ASSERT_TRUE(snapshot.ok());

  HttpReply json = HttpGet(server.port(), "/sys/columns?format=json");
  ASSERT_TRUE(json.ok);
  EXPECT_EQ(json.status, 200);
  EXPECT_EQ(json.body, obs::TableToJson(*snapshot));

  HttpReply csv = HttpGet(server.port(), "/sys/columns?format=csv");
  ASSERT_TRUE(csv.ok);
  EXPECT_EQ(csv.body, obs::TableToCsv(*snapshot));
  server.Stop();
}

TEST(ObsServerTest, PercentEscapedTargetsDecodeToTheSameResponse) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INTEGER)").ok());
  ASSERT_TRUE(db.Query("SELECT a FROM t").ok());  // one query_log row
  MetricsRegistry metrics;
  ObsServer server(MakeObsEndpoints(&db, &metrics));
  ASSERT_TRUE(server.Start(0).ok());
  const int port = server.port();

  // %XX escapes in the path and in a query value, with upper- and
  // lower-case hex digits, decode to the unescaped request.
  HttpReply plain = HttpGet(port, "/sys/query_log?format=json");
  ASSERT_TRUE(plain.ok);
  ASSERT_EQ(plain.status, 200);
  HttpReply escaped = HttpGet(port, "/sys/query%5Flog?format=%6Ason");
  ASSERT_TRUE(escaped.ok);
  EXPECT_EQ(escaped.status, 200);
  EXPECT_EQ(escaped.body, plain.body);
  HttpReply lower = HttpGet(port, "/sys/query%5flog?%66ormat=%6a%73on");
  ASSERT_TRUE(lower.ok);
  EXPECT_EQ(lower.body, plain.body);

  // A malformed escape passes through literally: "%zzjson" is no format.
  EXPECT_EQ(HttpGet(port, "/sys/query_log?format=%zzjson").status, 400);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Exposition content: one test pins the counter value three ways — the
// `.metrics` render source (MetricsRegistry::ToString), the SQL-queryable
// sys.metrics rows, and the scraped OpenMetrics text.
// ---------------------------------------------------------------------------

TEST(ObsExpositionTest, CounterAgreesAcrossRenderSysTableAndScrape) {
  Database db;
  MetricsRegistry metrics;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER);"
                               "INSERT INTO t VALUES (1),(2),(3);")
                  .ok());
  QueryOptions options;
  options.metrics = &metrics;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db.Query("SELECT a FROM t", options).ok());
  }
  const int64_t executions = metrics.CounterValue("query.executions");
  ASSERT_EQ(executions, 3);

  // 1. The `.metrics` dot-command's source text.
  EXPECT_NE(metrics.ToString().find(
                StrCat("query.executions ", executions, "\n")),
            std::string::npos)
      << metrics.ToString();

  // 2. sys.metrics via SQL (internal observer, same registry attached).
  QueryOptions internal;
  internal.internal = true;
  internal.metrics = &metrics;
  auto sys = db.Query(
      "SELECT value FROM sys.metrics WHERE name = 'query.executions'",
      internal);
  ASSERT_TRUE(sys.ok());
  ASSERT_EQ(sys->table.num_rows(), 1);
  EXPECT_EQ(sys->table.rows()[0][0].int_value(), executions);

  // 3. GET /metrics.
  ObsServer server(MakeObsEndpoints(&db, &metrics));
  ASSERT_TRUE(server.Start(0).ok());
  HttpReply scrape = HttpGet(server.port(), "/metrics");
  ASSERT_TRUE(scrape.ok);
  EXPECT_EQ(scrape.status, 200);
  EXPECT_EQ(scrape.headers["content-type"], obs::kOpenMetricsContentType);
  std::map<std::string, std::string> samples = ParseSamples(scrape.body);
  EXPECT_EQ(samples["starmagic_query_executions_total"],
            std::to_string(executions));
  EXPECT_EQ(samples["starmagic_active_queries"], "0");
  server.Stop();
}

TEST(ObsExpositionTest, OpenMetricsExposition) {
  Database db;
  MetricsRegistry metrics;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER);"
                               "INSERT INTO t VALUES (1),(2);")
                  .ok());
  QueryOptions options;
  options.metrics = &metrics;
  ASSERT_TRUE(db.Query("SELECT * FROM t", options).ok());

  const std::string text = obs::OpenMetricsText(&metrics, db.progress());
  // Ends with the OpenMetrics terminator, HELP/TYPE precede every family.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
  EXPECT_NE(text.find("# TYPE starmagic_query_executions counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE starmagic_exec_rows_per_query histogram\n"),
            std::string::npos);
  // Histogram internal consistency: _count equals the +Inf bucket.
  std::map<std::string, std::string> samples = ParseSamples(text);
  EXPECT_EQ(samples["starmagic_exec_rows_per_query_bucket{le=\"+Inf\"}"],
            samples["starmagic_exec_rows_per_query_count"]);

  if (const char* out = std::getenv("STARMAGIC_SCRAPE_OUT")) {
    std::ofstream f(out);
    f << text;
    ASSERT_TRUE(f.good()) << out;
  }
}

TEST(ObsExpositionTest, NameManglingAndEmptyRegistry) {
  EXPECT_EQ(obs::OpenMetricsName("query.executions"),
            "starmagic_query_executions");
  EXPECT_EQ(obs::OpenMetricsName("rewrite.fires.magic-emst"),
            "starmagic_rewrite_fires_magic_emst");
  // No metrics, no progress: a bare but valid exposition.
  EXPECT_EQ(obs::OpenMetricsText(nullptr, nullptr), "# EOF\n");
}

// ---------------------------------------------------------------------------
// Observer effect: results are byte-identical with the server on vs. off.
// ---------------------------------------------------------------------------

TEST(ObsServerTest, QueryResultsIdenticalWithServerOnAndOff) {
  const std::string sql =
      "SELECT a, COUNT(*) AS n FROM t GROUP BY a ORDER BY a";
  auto run = [&sql](bool with_server) {
    Database db;
    MetricsRegistry metrics;
    EXPECT_TRUE(db.ExecuteScript(
                      "CREATE TABLE t (a INTEGER);"
                      "INSERT INTO t VALUES (1),(2),(2),(3),(3),(3);"
                      "ANALYZE;")
                    .ok());
    ObsServer server(MakeObsEndpoints(&db, &metrics));
    if (with_server) {
      EXPECT_TRUE(server.Start(0).ok());
      EXPECT_EQ(HttpGet(server.port(), "/metrics").status, 200);
    }
    QueryOptions options;
    options.metrics = &metrics;
    auto r = db.Query(sql, options);
    EXPECT_TRUE(r.ok());
    std::string rendered = r.ok() ? r->table.ToString(100) : "";
    if (with_server) {
      EXPECT_EQ(HttpGet(server.port(), "/sys/metrics").status, 200);
      server.Stop();
    }
    return rendered;
  };
  const std::string off = run(false);
  const std::string on = run(true);
  EXPECT_EQ(off, on);
  EXPECT_FALSE(off.empty());
}

// ---------------------------------------------------------------------------
// Scrape under load: the TSan battery's probe. A second thread hammers
// /metrics and /sys/active_queries while an 8-way parallel recursive query
// runs; every scrape must succeed and never perturb the result.
// ---------------------------------------------------------------------------

TEST(ObsScrapeTest, ScrapeDuringParallelRecursiveQuery) {
  Database db;
  MetricsRegistry metrics;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE edge (src INTEGER, dst INTEGER);
    CREATE RECURSIVE VIEW tc (src, dst) AS
      SELECT src, dst FROM edge
      UNION
      SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src;
  )sql")
                  .ok());
  Table* edge = db.catalog()->GetTable("edge");
  for (int i = 0; i < 60; ++i) {
    edge->AppendUnchecked(Row{Value::Int(i), Value::Int(i + 1)});
  }
  for (int i = 0; i < 30; ++i) {
    edge->AppendUnchecked(Row{Value::Int(i), Value::Int(100 + i)});
  }
  ASSERT_TRUE(db.Execute("ANALYZE").ok());

  ObsServer server(MakeObsEndpoints(&db, &metrics));
  ASSERT_TRUE(server.Start(0).ok());
  const int port = server.port();

  std::atomic<bool> done{false};
  std::atomic<int64_t> scrapes{0};
  std::atomic<int64_t> saw_active{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      HttpReply m = HttpGet(port, "/metrics");
      EXPECT_TRUE(m.ok);
      EXPECT_EQ(m.status, 200);
      EXPECT_NE(m.body.find("# EOF"), std::string::npos);
      HttpReply a = HttpGet(port, "/sys/active_queries?format=json");
      EXPECT_TRUE(a.ok);
      EXPECT_EQ(a.status, 200);
      if (a.body.find("\"execute\"") != std::string::npos) {
        saw_active.fetch_add(1, std::memory_order_relaxed);
      }
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  QueryOptions options;
  options.metrics = &metrics;
  options.num_threads = 8;
  options.morsel_size = 16;
  int64_t expected_rows = -1;
  for (int round = 0; round < 5; ++round) {
    auto r = db.Query("SELECT COUNT(*) AS n FROM tc", options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->table.num_rows(), 1);
    const int64_t n = r->table.rows()[0][0].int_value();
    if (expected_rows < 0) expected_rows = n;
    EXPECT_EQ(n, expected_rows);  // scrapes never perturb the fixpoint
  }
  done.store(true, std::memory_order_release);
  scraper.join();
  server.Stop();

  EXPECT_GT(scrapes.load(), 0);
  EXPECT_EQ(db.progress()->active_count(), 0);  // all scopes unwound
}

}  // namespace
}  // namespace starmagic

// Observability identity: what one fixed script leaves in the engine's own
// records, compared byte for byte against tests/golden/observability.txt.
//
// The script runs a SELECT, an EXPLAIN ANALYZE, a PREPARE with an EXECUTE
// that hits the plan cache, an INSERT that invalidates the cached plan, a
// second EXECUTE, a parse error and a governor abort — one thread, with a
// MetricsRegistry attached. The file pins the rows of sys.query_log,
// sys.rewrite_rules, sys.box_stats and sys.plan_cache, the EXPLAIN ANALYZE
// text and MetricsRegistry::ToString(). Only wall-clock fields are masked
// (wall_ms, wall_us, time_ms and the wall(ms) column of the rule-fire
// table), so a change to how any sink is fed shows up here line by line.
//
// A deliberate change to what the sinks record regenerates the file:
//   STARMAGIC_UPDATE_GOLDEN=1 ./build/tests/obs_golden_test

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "engine/database.h"
#include "obs/metrics.h"

namespace starmagic {
namespace {

constexpr const char* kGoldenPath = STARMAGIC_GOLDEN_DIR "/observability.txt";
constexpr const char* kMasked = "<wall>";

// One sys table, one line per row: "col=value col=value ...", with the
// wall-clock columns masked.
std::string RenderSysTable(const Database& db, const std::string& name) {
  QueryOptions observer;
  observer.internal = true;
  auto table = db.SnapshotSysTable(name, observer);
  if (!table.ok()) return StrCat("error: ", table.status().ToString(), "\n");
  const Schema& schema = table->schema();
  std::string out;
  for (const Row& row : table->rows()) {
    for (int c = 0; c < schema.num_columns(); ++c) {
      const std::string& col = schema.column(c).name;
      const bool wall = col == "wall_ms" || col == "wall_us";
      out += StrCat(c == 0 ? "" : " ", col, "=",
                    wall ? kMasked : row[static_cast<size_t>(c)].ToString());
    }
    out += "\n";
  }
  return out;
}

// EXPLAIN ANALYZE text with per-box time_ms values and the wall(ms) column
// of the rule-fire table masked.
std::string MaskReport(const std::string& report) {
  std::istringstream in(report);
  std::string out;
  bool in_fires = false;
  for (std::string line; std::getline(in, line);) {
    if (line == "rule fires:") {
      in_fires = true;
    } else if (in_fires && line.rfind("  ", 0) != 0) {
      in_fires = false;
    }
    if (in_fires && line.rfind("  ", 0) == 0 &&
        line.find("wall(ms)") == std::string::npos) {
      line = StrCat(
          line.substr(0, line.find_last_not_of(' ', line.rfind(' ')) + 1),
          " ", kMasked);
    }
    for (size_t at = line.find("time_ms="); at != std::string::npos;
         at = line.find("time_ms=", at + 1)) {
      size_t end = line.find(' ', at);
      line.replace(at + 8, (end == std::string::npos ? line.size() : end) -
                               (at + 8),
                   kMasked);
    }
    out += line + "\n";
  }
  return out;
}

std::string RunScript() {
  Database db;
  MetricsRegistry metrics;
  QueryOptions options;
  options.num_threads = 1;
  options.metrics = &metrics;

  std::string out;
  auto step = [&](const std::string& sql, const QueryOptions& opts) {
    auto r = db.Query(sql, opts);
    out += StrCat("> ", sql, "\n",
                  r.ok() ? StrCat("ok rows=", r->result_rows)
                         : StrCat("error: ", r.status().ToString()),
                  "\n");
    return r;
  };

  Status setup = db.ExecuteScript(R"sql(
    CREATE TABLE t (a INTEGER, b INTEGER);
    INSERT INTO t VALUES (1, 2), (1, 3), (2, 2), (3, 4);
    CREATE VIEW v (a, s) AS SELECT a, SUM(b) FROM t GROUP BY a;
    ANALYZE;
  )sql");
  if (!setup.ok()) return StrCat("setup failed: ", setup.ToString(), "\n");

  step("SELECT t.a, v.s FROM t, v WHERE t.a = v.a AND t.b = 2", options);
  auto analyze = step(
      "EXPLAIN ANALYZE SELECT t.a, v.s FROM t, v WHERE t.a = v.a AND t.b = 2",
      options);
  step("PREPARE p AS SELECT t.a, v.s FROM t, v WHERE t.a = v.a AND t.b = ?",
       options);
  step("EXECUTE p (2)", options);
  if (Status s = db.Execute("INSERT INTO t VALUES (4, 2)"); !s.ok()) {
    out += StrCat("insert failed: ", s.ToString(), "\n");
  }
  step("EXECUTE p (3)", options);
  step("SELEC t.a FROM t", options);
  QueryOptions limited = options;
  limited.budget.max_output_rows = 1;
  step("SELECT t.a, v.s FROM t, v WHERE t.a = v.a", limited);

  out += "\n-- EXPLAIN ANALYZE\n";
  out += analyze.ok() ? MaskReport(analyze->analyze_report) : "(failed)\n";
  for (const char* table : {"sys.query_log", "sys.rewrite_rules",
                            "sys.box_stats", "sys.plan_cache"}) {
    out += StrCat("\n-- ", table, "\n", RenderSysTable(db, table));
  }
  out += "\n-- metrics\n" + metrics.ToString();
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(ObsGoldenTest, RecordsMatchTheGoldenFile) {
  std::string actual = RunScript();

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
      FAIL() << "observability output differs from " << kGoldenPath
             << " at line " << i + 1 << " (" << section << ")\n  golden: " << w
             << "\n  actual: " << g;
    }
  }
  FAIL() << "observability output differs from " << kGoldenPath;
}

}  // namespace
}  // namespace starmagic

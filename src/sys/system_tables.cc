#include "sys/system_tables.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "catalog/catalog.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/query_log.h"
#include "plan/plan_cache.h"

namespace starmagic {

bool IsSysTableName(const std::string& name) {
  return name.size() > 4 && (name[0] == 's' || name[0] == 'S') &&
         (name[1] == 'y' || name[1] == 'Y') &&
         (name[2] == 's' || name[2] == 'S') && name[3] == '.';
}

namespace {

// The builtin system-table schemas, one "table|column|type" string per
// column (types: TEXT, INTEGER, DOUBLE, BOOLEAN). This block is the single
// source of truth: the registry builds its schemas from it, and
// scripts/doc_check.py parses the same strings to cross-check
// docs/system-tables.md — keep one column per line between the markers.
// doc_check:sys-schema-begin
constexpr const char* kSysSchemaSpec[] = {
    "sys.metrics|name|TEXT",
    "sys.metrics|kind|TEXT",
    "sys.metrics|value|INTEGER",
    "sys.metrics|sum|DOUBLE",
    "sys.metrics|min|DOUBLE",
    "sys.metrics|max|DOUBLE",
    "sys.metrics|mean|DOUBLE",
    "sys.metrics|p50|DOUBLE",
    "sys.metrics|p95|DOUBLE",
    "sys.metrics|p99|DOUBLE",
    "sys.histogram_buckets|name|TEXT",
    "sys.histogram_buckets|bucket|INTEGER",
    "sys.histogram_buckets|lower_bound|DOUBLE",
    "sys.histogram_buckets|upper_bound|DOUBLE",
    "sys.histogram_buckets|count|INTEGER",
    "sys.query_log|id|INTEGER",
    "sys.query_log|sql|TEXT",
    "sys.query_log|kind|TEXT",
    "sys.query_log|strategy|TEXT",
    "sys.query_log|status|TEXT",
    "sys.query_log|cost_no_emst|DOUBLE",
    "sys.query_log|cost_with_emst|DOUBLE",
    "sys.query_log|emst_applied|BOOLEAN",
    "sys.query_log|emst_chosen|BOOLEAN",
    "sys.query_log|total_work|INTEGER",
    "sys.query_log|rows|INTEGER",
    "sys.query_log|wall_ms|DOUBLE",
    "sys.query_log|peak_memory_bytes|INTEGER",
    "sys.query_log|rule_fires|TEXT",
    "sys.tables|name|TEXT",
    "sys.tables|kind|TEXT",
    "sys.tables|column_count|INTEGER",
    "sys.tables|row_count|INTEGER",
    "sys.tables|version|INTEGER",
    "sys.tables|last_analyze_version|INTEGER",
    "sys.tables|stale|BOOLEAN",
    "sys.columns|table_name|TEXT",
    "sys.columns|ordinal|INTEGER",
    "sys.columns|name|TEXT",
    "sys.columns|type|TEXT",
    "sys.indexes|name|TEXT",
    "sys.indexes|table_name|TEXT",
    "sys.indexes|kind|TEXT",
    "sys.indexes|columns|TEXT",
    "sys.indexes|synced|BOOLEAN",
    "sys.indexes|synced_rows|INTEGER",
    "sys.indexes|distinct_keys|INTEGER",
    "sys.table_stats|table_name|TEXT",
    "sys.table_stats|column|TEXT",
    "sys.table_stats|ordinal|INTEGER",
    "sys.table_stats|row_count|INTEGER",
    "sys.table_stats|distinct_count|INTEGER",
    "sys.table_stats|null_count|INTEGER",
    "sys.table_stats|min|TEXT",
    "sys.table_stats|max|TEXT",
    "sys.table_stats|version|INTEGER",
    "sys.table_stats|last_analyze_version|INTEGER",
    "sys.rewrite_rules|rule|TEXT",
    "sys.rewrite_rules|fires|INTEGER",
    "sys.rewrite_rules|attempts|INTEGER",
    "sys.rewrite_rules|wall_us|INTEGER",
    "sys.box_stats|box_id|INTEGER",
    "sys.box_stats|kind|TEXT",
    "sys.box_stats|label|TEXT",
    "sys.box_stats|est_rows|DOUBLE",
    "sys.box_stats|act_rows|INTEGER",
    "sys.box_stats|evaluations|INTEGER",
    "sys.box_stats|cache_hits|INTEGER",
    "sys.box_stats|probes|INTEGER",
    "sys.box_stats|wall_ms|DOUBLE",
    "sys.plan_cache|entry|INTEGER",
    "sys.plan_cache|key_hash|TEXT",
    "sys.plan_cache|sql|TEXT",
    "sys.plan_cache|fingerprint|TEXT",
    "sys.plan_cache|hits|INTEGER",
    "sys.plan_cache|bytes|INTEGER",
    "sys.plan_cache|num_params|INTEGER",
    "sys.plan_cache|ddl_version|INTEGER",
    "sys.plan_cache|tables|TEXT",
    "sys.settings|name|TEXT",
    "sys.settings|value|TEXT",
    "sys.settings|source|TEXT",
    "sys.governor|name|TEXT",
    "sys.governor|value|INTEGER",
    "sys.active_queries|id|INTEGER",
    "sys.active_queries|sql|TEXT",
    "sys.active_queries|phase|TEXT",
    "sys.active_queries|morsels_done|INTEGER",
    "sys.active_queries|morsels_total|INTEGER",
    "sys.active_queries|est_rows|DOUBLE",
    "sys.active_queries|rows_produced|INTEGER",
    "sys.active_queries|fixpoint_round|INTEGER",
    "sys.active_queries|peak_bytes|INTEGER",
    "sys.active_queries|elapsed_us|INTEGER",
};
// doc_check:sys-schema-end

ColumnType ParseSpecType(const std::string& type) {
  if (type == "INTEGER") return ColumnType::kInt;
  if (type == "DOUBLE") return ColumnType::kDouble;
  if (type == "BOOLEAN") return ColumnType::kBool;
  return ColumnType::kString;  // TEXT
}

// ---------------------------------------------------------------------------
// Fill functions. Each produces the rows of one table from the consistent
// per-query engine state; all are infallible (absent sources => empty).
// ---------------------------------------------------------------------------

// Counters first, then histograms, each name-sorted — the same order as
// MetricsRegistry::ToString, so dumps and sys scans agree line for line.
// The locked ForEach* paths keep fills safe against concurrent recording
// (the HTTP scrape materializes these tables off the coordinator thread).
std::vector<Row> FillMetrics(const SysEngineState& s) {
  std::vector<Row> rows;
  if (s.metrics == nullptr) return rows;
  s.metrics->ForEachCounter([&rows](const std::string& name,
                                    const Counter& counter) {
    rows.push_back(Row{Value::String(name), Value::String("counter"),
                       Value::Int(counter.value()), Value::Null(),
                       Value::Null(), Value::Null(), Value::Null(),
                       Value::Null(), Value::Null(), Value::Null()});
  });
  s.metrics->ForEachHistogram([&rows](const std::string& name,
                                      const Histogram& h) {
    rows.push_back(Row{Value::String(name), Value::String("histogram"),
                       Value::Int(h.count()), Value::Double(h.sum()),
                       Value::Double(h.min()), Value::Double(h.max()),
                       Value::Double(h.mean()), Value::Double(h.Percentile(50)),
                       Value::Double(h.Percentile(95)),
                       Value::Double(h.Percentile(99))});
  });
  return rows;
}

std::vector<Row> FillHistogramBuckets(const SysEngineState& s) {
  std::vector<Row> rows;
  if (s.metrics == nullptr) return rows;
  s.metrics->ForEachHistogram([&rows](const std::string& name,
                                      const Histogram& h) {
    const std::vector<int64_t> buckets = h.buckets();
    for (int b = 0; b < static_cast<int>(buckets.size()); ++b) {
      if (buckets[static_cast<size_t>(b)] == 0) continue;
      // Bucket 0 is (-inf, 1); bucket k >= 1 is [2^(k-1), 2^k).
      Value lower = b == 0 ? Value::Null() : Value::Double(std::ldexp(1.0, b - 1));
      rows.push_back(Row{Value::String(name), Value::Int(b), std::move(lower),
                         Value::Double(std::ldexp(1.0, b)),
                         Value::Int(buckets[static_cast<size_t>(b)])});
    }
  });
  return rows;
}

std::vector<Row> FillQueryLog(const SysEngineState& s) {
  std::vector<Row> rows;
  if (s.query_log == nullptr) return rows;
  for (const QueryLogEntry& e : s.query_log->SnapshotEntries()) {
    std::string fires;
    for (const RuleFireStats& f : e.rule_fires) {
      if (!fires.empty()) fires += ' ';
      fires += StrCat(f.phase, "/", f.rule, "=", f.fires);
    }
    rows.push_back(Row{Value::Int(e.id), Value::String(e.sql),
                       Value::String(e.kind), Value::String(e.strategy),
                       Value::String(e.status), Value::Double(e.cost_no_emst),
                       Value::Double(e.cost_with_emst),
                       Value::Bool(e.emst_applied), Value::Bool(e.emst_chosen),
                       Value::Int(e.total_work), Value::Int(e.rows),
                       Value::Double(e.wall_ms),
                       Value::Int(e.peak_memory_bytes),
                       Value::String(std::move(fires))});
  }
  return rows;
}

// Base tables (key-sorted), then views, then the system tables themselves
// (kind 'system' — from the registry, so sys.tables never re-enters the
// snapshot being built).
std::vector<Row> FillTables(const SysEngineState& s) {
  std::vector<Row> rows;
  if (s.catalog != nullptr) {
    for (const std::string& name : s.catalog->TableNames()) {
      const Table* t = s.catalog->GetTable(name);
      if (t == nullptr) continue;
      rows.push_back(Row{Value::String(t->name()), Value::String("table"),
                         Value::Int(t->schema().num_columns()),
                         Value::Int(t->num_rows()),
                         Value::Int(s.catalog->TableVersion(name)),
                         Value::Int(s.catalog->LastAnalyzeVersion(name)),
                         Value::Bool(s.catalog->StatsStale(name))});
    }
    for (const std::string& name : s.catalog->ViewNames()) {
      const ViewDefinition* v = s.catalog->GetView(name);
      Value cols = (v != nullptr && !v->column_names.empty())
                       ? Value::Int(static_cast<int64_t>(v->column_names.size()))
                       : Value::Null();
      rows.push_back(Row{Value::String(name), Value::String("view"),
                         std::move(cols), Value::Null(), Value::Null(),
                         Value::Null(), Value::Null()});
    }
  }
  if (s.registry != nullptr) {
    for (const SystemTableDef* def : s.registry->Tables()) {
      rows.push_back(Row{Value::String(def->name), Value::String("system"),
                         Value::Int(def->schema.num_columns()), Value::Null(),
                         Value::Null(), Value::Null(), Value::Bool(false)});
    }
  }
  return rows;
}

std::vector<Row> FillColumns(const SysEngineState& s) {
  std::vector<Row> rows;
  auto add = [&rows](const std::string& table, const Schema& schema) {
    for (int i = 0; i < schema.num_columns(); ++i) {
      const Column& col = schema.column(i);
      rows.push_back(Row{Value::String(table), Value::Int(i),
                         Value::String(col.name),
                         Value::String(ColumnTypeName(col.type))});
    }
  };
  if (s.catalog != nullptr) {
    for (const std::string& name : s.catalog->TableNames()) {
      const Table* t = s.catalog->GetTable(name);
      if (t != nullptr) add(t->name(), t->schema());
    }
  }
  if (s.registry != nullptr) {
    for (const SystemTableDef* def : s.registry->Tables()) {
      add(def->name, def->schema);
    }
  }
  return rows;
}

std::vector<Row> FillIndexes(const SysEngineState& s) {
  std::vector<Row> rows;
  if (s.catalog == nullptr) return rows;
  std::vector<std::string> names = s.catalog->IndexNames();
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const SecondaryIndex* idx = s.catalog->GetIndex(name);
    if (idx == nullptr) continue;
    const Table* t = s.catalog->GetTable(idx->table_name());
    std::string columns;
    for (int col : idx->columns()) {
      if (!columns.empty()) columns += ',';
      columns += (t != nullptr && col < t->schema().num_columns())
                     ? t->schema().column(col).name
                     : StrCat("#", col);
    }
    rows.push_back(Row{Value::String(idx->name()),
                       Value::String(idx->table_name()),
                       Value::String(IndexKindName(idx->kind())),
                       Value::String(std::move(columns)),
                       Value::Bool(t != nullptr && idx->SyncedWith(*t)),
                       Value::Int(idx->synced_rows()),
                       Value::Int(idx->distinct_keys())});
  }
  return rows;
}

std::vector<Row> FillTableStats(const SysEngineState& s) {
  std::vector<Row> rows;
  if (s.catalog == nullptr) return rows;
  for (const std::string& name : s.catalog->TableNames()) {
    const TableStats* stats = s.catalog->GetStats(name);
    const Table* t = s.catalog->GetTable(name);
    if (stats == nullptr || t == nullptr) continue;
    for (size_t i = 0; i < stats->columns.size(); ++i) {
      const ColumnStats& c = stats->columns[i];
      std::string col_name = static_cast<int>(i) < t->schema().num_columns()
                                 ? t->schema().column(static_cast<int>(i)).name
                                 : StrCat("#", i);
      Value min = c.min.is_null() ? Value::Null() : Value::String(c.min.ToString());
      Value max = c.max.is_null() ? Value::Null() : Value::String(c.max.ToString());
      rows.push_back(Row{Value::String(t->name()), Value::String(col_name),
                         Value::Int(static_cast<int64_t>(i)),
                         Value::Int(stats->row_count),
                         Value::Int(c.distinct_count), Value::Int(c.null_count),
                         std::move(min), std::move(max),
                         Value::Int(s.catalog->TableVersion(name)),
                         Value::Int(s.catalog->LastAnalyzeVersion(name))});
    }
  }
  return rows;
}

// Cumulative per-rule rewrite telemetry from the Database's cross-query
// totals. Rows are rule-name-sorted. wall_us is wall-clock-side: exclude
// it (like wall_ms everywhere) from determinism comparisons.
std::vector<Row> FillRewriteRules(const SysEngineState& s) {
  std::vector<Row> rows;
  if (s.rewrite_rules == nullptr) return rows;
  // The source map is keyed by rule name, so iteration is already the
  // deterministic sorted order the table promises.
  for (const auto& [rule, r] : *s.rewrite_rules) {
    rows.push_back(Row{Value::String(rule), Value::Int(r.fires),
                       Value::Int(r.attempts),
                       Value::Int(std::llround(r.wall_ms * 1000.0))});
  }
  return rows;
}

std::vector<Row> FillBoxStats(const SysEngineState& s) {
  std::vector<Row> rows;
  if (s.box_stats == nullptr) return rows;
  for (const SysBoxStatRow& b : *s.box_stats) {
    rows.push_back(Row{Value::Int(b.box_id), Value::String(b.kind),
                       Value::String(b.label), Value::Double(b.est_rows),
                       Value::Int(b.act_rows), Value::Int(b.evaluations),
                       Value::Int(b.cache_hits), Value::Int(b.probes),
                       Value::Double(b.wall_ms)});
  }
  return rows;
}

// Plan-cache entries in LRU order (most recently used first) — "what is
// resident, how hot is it, and which catalog versions does it pin".
std::vector<Row> FillPlanCache(const SysEngineState& s) {
  std::vector<Row> rows;
  if (s.plan_cache == nullptr) return rows;
  for (const PlanCacheEntryInfo& e : s.plan_cache->Snapshot()) {
    char hash[17];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(e.key_hash));
    rows.push_back(Row{Value::Int(e.entry_id), Value::String(hash),
                       Value::String(e.sql), Value::String(e.fingerprint),
                       Value::Int(e.hits), Value::Int(e.bytes),
                       Value::Int(e.num_params), Value::Int(e.ddl_version),
                       Value::String(e.tables)});
  }
  return rows;
}

std::vector<Row> FillSettings(const SysEngineState& s) {
  std::vector<Row> rows;
  if (!s.settings_fn) return rows;
  for (const SysSettingRow& r : s.settings_fn()) {
    rows.push_back(Row{Value::String(r.name), Value::String(r.value),
                       Value::String(r.source)});
  }
  return rows;
}

// Name-sorted (name, value) pairs: the observing query's budget_* fields
// plus the cumulative governor counters from the metrics registry.
std::vector<Row> FillGovernor(const SysEngineState& s) {
  std::vector<Row> rows;
  auto add = [&rows](const char* name, int64_t value) {
    rows.push_back(Row{Value::String(name), Value::Int(value)});
  };
  int64_t aborts_cancelled = 0;
  int64_t aborts_deadline = 0;
  int64_t aborts_resource = 0;
  int64_t cancel_checks = 0;
  int64_t peak_max = 0;
  int64_t peak_obs = 0;
  if (s.metrics != nullptr) {
    aborts_cancelled = s.metrics->CounterValue("governor.aborts.cancelled");
    aborts_deadline =
        s.metrics->CounterValue("governor.aborts.deadline_exceeded");
    aborts_resource =
        s.metrics->CounterValue("governor.aborts.resource_exhausted");
    cancel_checks = s.metrics->CounterValue("governor.cancel_checks");
    if (const Histogram* h = s.metrics->FindHistogram("governor.peak_bytes");
        h != nullptr) {
      peak_max = static_cast<int64_t>(h->max());
      peak_obs = h->count();
    }
  }
  add("aborts_cancelled", aborts_cancelled);
  add("aborts_deadline_exceeded", aborts_deadline);
  add("aborts_resource_exhausted", aborts_resource);
  add("budget_deadline_ms", static_cast<int64_t>(s.budget.deadline_ms));
  add("budget_max_fixpoint_iterations", s.budget.max_fixpoint_iterations);
  add("budget_max_memory_bytes", s.budget.max_memory_bytes);
  add("budget_max_output_rows", s.budget.max_output_rows);
  add("cancel_checks", cancel_checks);
  add("peak_bytes_max", peak_max);
  add("peak_bytes_observations", peak_obs);
  return rows;
}

// In-flight queries, id-ascending (registration order). The observing
// query itself appears here — unlike sys.query_log, which records only
// *finished* statements — because "what is running right now" is exactly
// the question this table answers. Internal observer queries (the HTTP
// snapshot path, shell renderers) are never registered and never show up.
std::vector<Row> FillActiveQueries(const SysEngineState& s) {
  std::vector<Row> rows;
  if (s.progress == nullptr) return rows;
  for (const ProgressSnapshot& q : s.progress->Snapshot()) {
    rows.push_back(Row{Value::Int(q.id), Value::String(q.sql),
                       Value::String(q.phase), Value::Int(q.morsels_done),
                       Value::Int(q.morsels_total), Value::Double(q.est_rows),
                       Value::Int(q.rows_produced),
                       Value::Int(q.fixpoint_round), Value::Int(q.peak_bytes),
                       Value::Int(q.elapsed_us)});
  }
  return rows;
}

SysFillFn BuiltinFill(const std::string& table) {
  if (table == "sys.active_queries") return FillActiveQueries;
  if (table == "sys.metrics") return FillMetrics;
  if (table == "sys.histogram_buckets") return FillHistogramBuckets;
  if (table == "sys.query_log") return FillQueryLog;
  if (table == "sys.tables") return FillTables;
  if (table == "sys.columns") return FillColumns;
  if (table == "sys.indexes") return FillIndexes;
  if (table == "sys.table_stats") return FillTableStats;
  if (table == "sys.rewrite_rules") return FillRewriteRules;
  if (table == "sys.box_stats") return FillBoxStats;
  if (table == "sys.plan_cache") return FillPlanCache;
  if (table == "sys.settings") return FillSettings;
  if (table == "sys.governor") return FillGovernor;
  return nullptr;
}

}  // namespace

SystemTableRegistry::SystemTableRegistry() {
  // Group the spec lines (which are contiguous per table) into schemas.
  std::string current;
  Schema schema;
  auto flush = [this, &current, &schema]() {
    if (current.empty()) return;
    Register(current, std::move(schema), BuiltinFill(current));
    schema = Schema();
  };
  for (const char* line : kSysSchemaSpec) {
    std::string spec(line);
    size_t p1 = spec.find('|');
    size_t p2 = spec.find('|', p1 + 1);
    std::string table = spec.substr(0, p1);
    if (table != current) {
      flush();
      current = table;
    }
    schema.AddColumn({spec.substr(p1 + 1, p2 - p1 - 1),
                      ParseSpecType(spec.substr(p2 + 1))});
  }
  flush();
}

Status SystemTableRegistry::Register(std::string name, Schema schema,
                                     SysFillFn fill) {
  std::string key = ToLower(name);
  if (!IsSysTableName(key)) {
    return Status::InvalidArgument(
        StrCat("system table '", name, "' must use the 'sys.' prefix"));
  }
  if (defs_.count(key) > 0) {
    return Status::AlreadyExists(
        StrCat("system table '", name, "' already registered"));
  }
  SystemTableDef def;
  def.name = key;
  def.schema = std::move(schema);
  def.fill = fill;
  defs_[key] = std::move(def);
  return Status::OK();
}

const SystemTableDef* SystemTableRegistry::Find(const std::string& name) const {
  auto it = defs_.find(ToLower(name));
  return it == defs_.end() ? nullptr : &it->second;
}

std::vector<const SystemTableDef*> SystemTableRegistry::Tables() const {
  std::vector<const SystemTableDef*> out;
  out.reserve(defs_.size());
  for (const auto& [key, def] : defs_) out.push_back(&def);
  return out;
}

const Table* SysSnapshot::GetOrMaterialize(const std::string& name) {
  if (registry_ == nullptr) return nullptr;
  std::string key = ToLower(name);
  auto it = tables_.find(key);
  if (it != tables_.end()) return &it->second;
  const SystemTableDef* def = registry_->Find(key);
  if (def == nullptr) return nullptr;
  Table table(def->name, def->schema);
  if (def->fill != nullptr) table.mutable_rows() = def->fill(state_);
  return &tables_.emplace(key, std::move(table)).first->second;
}

SysSnapshotScope::SysSnapshotScope(Catalog* catalog, SysSnapshot* snapshot)
    : catalog_(catalog) {
  catalog_->SetSysSnapshot(snapshot);
}

SysSnapshotScope::~SysSnapshotScope() { catalog_->SetSysSnapshot(nullptr); }

}  // namespace starmagic

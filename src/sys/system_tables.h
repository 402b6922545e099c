#ifndef STARMAGIC_SYS_SYSTEM_TABLES_H_
#define STARMAGIC_SYS_SYSTEM_TABLES_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/table.h"
#include "common/status.h"
#include "governor/governor.h"
#include "optimizer/plan_choice.h"

namespace starmagic {

class Catalog;
class MetricsRegistry;
class PlanCache;
class ProgressRegistry;
class QueryLog;
class SystemTableRegistry;

/// True when `name` addresses the reserved system schema ("sys." prefix,
/// case-insensitive). Such names never resolve to stored tables; DDL/DML
/// against them returns StatusCode::kReadOnly.
bool IsSysTableName(const std::string& name);

/// One effective knob of the observing query (sys.settings row).
struct SysSettingRow {
  std::string name;
  std::string value;
  std::string source;  ///< "QueryOptions" | "env"
};

/// One box of the last EXPLAIN ANALYZE run (sys.box_stats row), retained
/// by the Database so plan quality is queryable after the fact.
struct SysBoxStatRow {
  int box_id = 0;
  std::string kind;   ///< box kind name ("Select", "BaseTable", ...)
  std::string label;  ///< box label from the plan printer
  double est_rows = 0;
  int64_t act_rows = 0;
  int64_t evaluations = 0;
  int64_t cache_hits = 0;
  int64_t probes = 0;
  double wall_ms = 0;
};

/// Everything a system-table fill function may read. The engine assembles
/// one per query; all pointers are borrowed and may be null (a table whose
/// source is absent materializes empty). `settings` is produced lazily via
/// `settings_fn` so queries that never touch sys.settings pay nothing.
struct SysEngineState {
  const Catalog* catalog = nullptr;
  const QueryLog* query_log = nullptr;
  const MetricsRegistry* metrics = nullptr;
  const SystemTableRegistry* registry = nullptr;
  /// Effective budget of the observing query (sys.governor budget_* rows).
  ResourceBudget budget;
  /// Retained per-box stats of the last EXPLAIN ANALYZE (may be null).
  const std::vector<SysBoxStatRow>* box_stats = nullptr;
  /// Cumulative per-rule rewrite totals (fires, attempts, wall_ms; the
  /// phase is unused), keyed by rule name (may be null).
  const std::map<std::string, RuleFireStats>* rewrite_rules = nullptr;
  /// In-flight query trackers (sys.active_queries rows; may be null).
  const ProgressRegistry* progress = nullptr;
  /// Lazily invoked once when sys.settings materializes.
  std::function<std::vector<SysSettingRow>()> settings_fn;
  /// The plan cache (sys.plan_cache rows; may be null). Internally locked.
  const PlanCache* plan_cache = nullptr;
};

/// Produces the rows of one system table from a consistent engine state.
/// Fills are infallible: absent sources yield empty relations.
using SysFillFn = std::vector<Row> (*)(const SysEngineState&);

/// One virtual table: a fixed schema plus a fill function that snapshots
/// live engine state into rows.
struct SystemTableDef {
  std::string name;  ///< canonical lower-case "sys.<table>"
  Schema schema;
  SysFillFn fill = nullptr;
};

/// The catalog of virtual system tables. Constructed with the builtin
/// schemas (sys.metrics, sys.query_log, ...); additional tables can be
/// registered by extensions. Iteration is name-sorted.
class SystemTableRegistry {
 public:
  /// Registers every builtin table.
  SystemTableRegistry();

  /// Adds a table. The name must carry the "sys." prefix and be unused.
  Status Register(std::string name, Schema schema, SysFillFn fill);

  /// The definition for `name` (case-insensitive), or nullptr.
  const SystemTableDef* Find(const std::string& name) const;

  /// All definitions, sorted by name.
  std::vector<const SystemTableDef*> Tables() const;

  size_t size() const { return defs_.size(); }

 private:
  std::map<std::string, SystemTableDef> defs_;  ///< keyed by lower name
};

/// Per-query materialization of system tables: the first scan of each
/// sys.* table snapshots its source into a Table, and every later use in
/// the same query (joins, re-optimization, EXPLAIN estimates) sees that
/// same snapshot — internally consistent and deterministic under parallel
/// execution (the coordinator materializes, workers morsel-scan rows).
class SysSnapshot {
 public:
  SysSnapshot(const SystemTableRegistry* registry, SysEngineState state)
      : registry_(registry), state_(std::move(state)) {}

  SysSnapshot(const SysSnapshot&) = delete;
  SysSnapshot& operator=(const SysSnapshot&) = delete;

  /// The snapshot table for `name`, materializing on first use. Returns
  /// nullptr when no such system table is registered.
  const Table* GetOrMaterialize(const std::string& name);

 private:
  const SystemTableRegistry* registry_;
  SysEngineState state_;
  std::map<std::string, Table> tables_;  ///< keyed by lower name
};

/// Installs `snapshot` as the catalog's sys-table overlay for the scope's
/// lifetime (see Catalog::SetSysSnapshot).
class SysSnapshotScope {
 public:
  SysSnapshotScope(Catalog* catalog, SysSnapshot* snapshot);
  ~SysSnapshotScope();

  SysSnapshotScope(const SysSnapshotScope&) = delete;
  SysSnapshotScope& operator=(const SysSnapshotScope&) = delete;

 private:
  Catalog* catalog_;
};

}  // namespace starmagic

#endif  // STARMAGIC_SYS_SYSTEM_TABLES_H_

#ifndef STARMAGIC_CATALOG_CATALOG_H_
#define STARMAGIC_CATALOG_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <optional>

#include "catalog/statistics.h"
#include "catalog/table.h"
#include "common/status.h"
#include "index/index_manager.h"

namespace starmagic {

class SystemTableRegistry;
class SysSnapshot;
struct AstBlob;

/// A stored view definition. The body is kept parsed: the QGM builder
/// expands the same AST into every query that references the view, without
/// parsing it again (Starburst likewise kept view definitions in QGM form
/// and grafted them into queries).
struct ViewDefinition {
  std::string name;
  /// Optional explicit output column names (empty = derive from body).
  std::vector<std::string> column_names;
  /// The view body as written, e.g. "SELECT ... FROM ..." (sys.views).
  std::string body_sql;
  /// The parsed body_sql. CREATE VIEW hands over the statement's AST;
  /// Catalog::CreateView parses body_sql when this is null.
  std::shared_ptr<const AstBlob> body;
  /// True for CREATE RECURSIVE VIEW: the body may (mutually) reference the
  /// view itself.
  bool is_recursive = false;
};

/// Name → table/view registry with optimizer statistics.
/// Names are case-insensitive.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates an empty table. Fails if a table or view with the name exists.
  Status CreateTable(const std::string& name, Schema schema);
  /// Registers a view. Fails if a table or view with the name exists, or
  /// if `view.body` is null and `view.body_sql` does not parse.
  Status CreateView(ViewDefinition view);

  Status DropTable(const std::string& name);
  Status DropView(const std::string& name);

  bool HasTable(const std::string& name) const;
  bool HasView(const std::string& name) const;

  /// Returns the table, or nullptr if absent.
  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;
  /// Returns the view definition, or nullptr if absent.
  const ViewDefinition* GetView(const std::string& name) const;

  std::vector<std::string> TableNames() const;
  std::vector<std::string> ViewNames() const;

  // --- secondary indexes ---------------------------------------------------
  /// Creates a secondary index over `column_names` of `table_name` and
  /// builds it from the table's current rows. Index names are global
  /// (case-insensitive), like SQL.
  Status CreateIndex(const std::string& index_name,
                     const std::string& table_name,
                     const std::vector<std::string>& column_names,
                     IndexKind kind);
  Status DropIndex(const std::string& index_name);

  const SecondaryIndex* GetIndex(const std::string& index_name) const;
  std::vector<const SecondaryIndex*> IndexesOn(
      const std::string& table_name) const;
  std::vector<std::string> IndexNames() const;

  /// Best synced index usable for equality probes on `bound_columns` of
  /// `table_name` (see IndexManager::FindEqualityIndex).
  std::optional<IndexMatch> FindEqualityIndex(
      const std::string& table_name,
      const std::vector<int>& bound_columns) const;
  /// A synced ordered index leading on `column`, or nullptr.
  const SecondaryIndex* FindOrderedIndexOn(const std::string& table_name,
                                           int column) const;

  /// Index maintenance hooks. The engine calls MaintainAfterAppend after
  /// INSERT (incremental) and ReindexTable after UPDATE/DELETE (rebuild).
  /// Code mutating a Table directly must call ReindexTable itself; stale
  /// indexes are skipped by the planner/executor, never probed.
  void MaintainAfterAppend(const std::string& table_name);
  Status ReindexTable(const std::string& table_name);

  /// Recomputes statistics for one table (or all tables when name empty).
  Status AnalyzeTable(const std::string& name);
  Status AnalyzeAll();

  /// Statistics for `name`; returns nullptr if never analyzed.
  const TableStats* GetStats(const std::string& name) const;

  // --- statistics freshness ------------------------------------------------
  /// Monotone per-table modification counter, bumped by every engine write
  /// that goes through the catalog (MaintainAfterAppend after INSERT,
  /// ReindexTable after UPDATE/DELETE). 0 for a fresh table. Code mutating
  /// a Table directly bypasses it, same as the index-maintenance hooks.
  int64_t TableVersion(const std::string& name) const;
  /// The TableVersion recorded by the last Analyze of the table, or -1
  /// when the table was never analyzed.
  int64_t LastAnalyzeVersion(const std::string& name) const;
  /// True when the table exists and was modified since its last Analyze
  /// (or was never analyzed at all) — its optimizer statistics are stale.
  bool StatsStale(const std::string& name) const;
  /// Name-sorted list of tables whose statistics are stale.
  std::vector<std::string> StaleStatsTables() const;

  /// Catalog-wide monotone DDL counter, bumped by every successful
  /// CREATE/DROP of a table, view, or index. Per-table versions alone
  /// cannot detect drop-and-recreate (DropTable erases the table's
  /// VersionInfo, resetting its modified counter to 0), so plan-cache
  /// entries additionally pin this value.
  int64_t ddl_version() const { return ddl_version_; }

  // --- reserved `sys` schema (virtual system tables) -----------------------
  /// Attaches the registry of virtual system tables. Once attached, names
  /// with the "sys." prefix resolve against it (HasTable), DDL/DML against
  /// them returns StatusCode::kReadOnly, and queries see them through the
  /// per-query snapshot installed with SetSysSnapshot. May be null (detach).
  void AttachSystemRegistry(const SystemTableRegistry* registry) {
    sys_registry_ = registry;
  }
  const SystemTableRegistry* system_registry() const { return sys_registry_; }

  /// Installs the per-query sys-table snapshot: while set, the const
  /// GetTable overload resolves "sys.*" names to snapshot tables
  /// (materialized on first scan — see SysSnapshot). The engine scopes
  /// this to one Query() via SysSnapshotScope; null clears it.
  void SetSysSnapshot(SysSnapshot* snapshot) { sys_snapshot_ = snapshot; }

 private:
  static std::string Key(const std::string& name);

  void BumpVersion(const std::string& key) { ++versions_[key].modified; }
  void MarkAnalyzed(const std::string& key) {
    VersionInfo& v = versions_[key];
    v.analyzed = v.modified;
  }

  struct VersionInfo {
    int64_t modified = 0;
    int64_t analyzed = -1;  ///< -1 = never analyzed
  };

  int64_t ddl_version_ = 0;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::map<std::string, ViewDefinition> views_;
  std::map<std::string, TableStats> stats_;
  std::map<std::string, VersionInfo> versions_;
  IndexManager indexes_;
  const SystemTableRegistry* sys_registry_ = nullptr;  ///< not owned
  SysSnapshot* sys_snapshot_ = nullptr;  ///< not owned; per-query scope
};

}  // namespace starmagic

#endif  // STARMAGIC_CATALOG_CATALOG_H_

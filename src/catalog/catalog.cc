#include "catalog/catalog.h"

#include "common/string_util.h"
#include "sql/parser.h"
#include "sys/system_tables.h"

namespace starmagic {

namespace {

// The typed error every write path returns for the reserved sys schema.
Status SysReadOnly(const std::string& name) {
  return Status::ReadOnly(
      StrCat("relation '", name, "' is in the reserved read-only 'sys' schema"));
}

}  // namespace

std::string Catalog::Key(const std::string& name) { return ToLower(name); }

Status Catalog::CreateTable(const std::string& name, Schema schema) {
  if (IsSysTableName(name)) return SysReadOnly(name);
  std::string key = Key(name);
  if (tables_.count(key) || views_.count(key)) {
    return Status::AlreadyExists(StrCat("relation '", name, "' already exists"));
  }
  tables_[key] = std::make_unique<Table>(name, std::move(schema));
  ++ddl_version_;
  return Status::OK();
}

Status Catalog::CreateView(ViewDefinition view) {
  if (IsSysTableName(view.name)) return SysReadOnly(view.name);
  std::string key = Key(view.name);
  if (tables_.count(key) || views_.count(key)) {
    return Status::AlreadyExists(
        StrCat("relation '", view.name, "' already exists"));
  }
  if (view.body == nullptr) {
    SM_ASSIGN_OR_RETURN(view.body, ParseQuery(view.body_sql));
  }
  views_[key] = std::move(view);
  ++ddl_version_;
  return Status::OK();
}

Status Catalog::DropTable(const std::string& name) {
  if (IsSysTableName(name)) return SysReadOnly(name);
  std::string key = Key(name);
  if (tables_.erase(key) == 0) {
    return Status::NotFound(StrCat("table '", name, "' does not exist"));
  }
  stats_.erase(key);
  versions_.erase(key);
  indexes_.DropTableIndexes(name);
  ++ddl_version_;
  return Status::OK();
}

Status Catalog::DropView(const std::string& name) {
  if (IsSysTableName(name)) return SysReadOnly(name);
  if (views_.erase(Key(name)) == 0) {
    return Status::NotFound(StrCat("view '", name, "' does not exist"));
  }
  ++ddl_version_;
  return Status::OK();
}

bool Catalog::HasTable(const std::string& name) const {
  if (IsSysTableName(name)) {
    return sys_registry_ != nullptr && sys_registry_->Find(name) != nullptr;
  }
  return tables_.count(Key(name)) > 0;
}

bool Catalog::HasView(const std::string& name) const {
  return views_.count(Key(name)) > 0;
}

Table* Catalog::GetTable(const std::string& name) {
  auto it = tables_.find(Key(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Catalog::GetTable(const std::string& name) const {
  // The per-query snapshot overlay: read paths (builder, optimizer,
  // executor) resolve sys.* names to snapshot tables, while the non-const
  // overload — every write path — keeps returning nullptr for them.
  if (IsSysTableName(name)) {
    return sys_snapshot_ == nullptr ? nullptr
                                    : sys_snapshot_->GetOrMaterialize(name);
  }
  auto it = tables_.find(Key(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

const ViewDefinition* Catalog::GetView(const std::string& name) const {
  auto it = views_.find(Key(name));
  return it == views_.end() ? nullptr : &it->second;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, table] : tables_) names.push_back(table->name());
  return names;
}

std::vector<std::string> Catalog::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& [key, view] : views_) names.push_back(view.name);
  return names;
}

Status Catalog::CreateIndex(const std::string& index_name,
                            const std::string& table_name,
                            const std::vector<std::string>& column_names,
                            IndexKind kind) {
  if (IsSysTableName(index_name)) return SysReadOnly(index_name);
  if (IsSysTableName(table_name)) return SysReadOnly(table_name);
  const Table* table = GetTable(table_name);
  if (table == nullptr) {
    return Status::NotFound(StrCat("table '", table_name, "' does not exist"));
  }
  std::vector<int> columns;
  for (const std::string& col : column_names) {
    int idx = table->schema().FindColumn(col);
    if (idx < 0) {
      return Status::NotFound(
          StrCat("column '", col, "' does not exist in '", table_name, "'"));
    }
    columns.push_back(idx);
  }
  Status s = indexes_.CreateIndex(index_name, table->name(),
                                  std::move(columns), kind, *table);
  if (s.ok()) ++ddl_version_;
  return s;
}

Status Catalog::DropIndex(const std::string& index_name) {
  Status s = indexes_.DropIndex(index_name);
  if (s.ok()) ++ddl_version_;
  return s;
}

const SecondaryIndex* Catalog::GetIndex(const std::string& index_name) const {
  return indexes_.GetIndex(index_name);
}

std::vector<const SecondaryIndex*> Catalog::IndexesOn(
    const std::string& table_name) const {
  return indexes_.IndexesOn(table_name);
}

std::vector<std::string> Catalog::IndexNames() const {
  return indexes_.IndexNames();
}

std::optional<IndexMatch> Catalog::FindEqualityIndex(
    const std::string& table_name,
    const std::vector<int>& bound_columns) const {
  const Table* table = GetTable(table_name);
  if (table == nullptr) return std::nullopt;
  return indexes_.FindEqualityIndex(table_name, bound_columns, *table);
}

const SecondaryIndex* Catalog::FindOrderedIndexOn(
    const std::string& table_name, int column) const {
  const Table* table = GetTable(table_name);
  if (table == nullptr) return nullptr;
  return indexes_.FindOrderedIndexOn(table_name, column, *table);
}

void Catalog::MaintainAfterAppend(const std::string& table_name) {
  const Table* table = GetTable(table_name);
  if (table == nullptr) return;
  indexes_.SyncAppend(table_name, *table);
  BumpVersion(Key(table_name));
}

Status Catalog::ReindexTable(const std::string& table_name) {
  const Table* table = GetTable(table_name);
  if (table == nullptr) {
    return Status::NotFound(StrCat("table '", table_name, "' does not exist"));
  }
  indexes_.Rebuild(table_name, *table);
  BumpVersion(Key(table_name));
  return Status::OK();
}

Status Catalog::AnalyzeTable(const std::string& name) {
  if (IsSysTableName(name)) return SysReadOnly(name);
  Table* table = GetTable(name);
  if (table == nullptr) {
    return Status::NotFound(StrCat("table '", name, "' does not exist"));
  }
  std::string key = Key(name);
  stats_[key] = Analyze(*table);
  MarkAnalyzed(key);
  return Status::OK();
}

Status Catalog::AnalyzeAll() {
  for (const auto& [key, table] : tables_) {
    stats_[key] = Analyze(*table);
    MarkAnalyzed(key);
  }
  return Status::OK();
}

const TableStats* Catalog::GetStats(const std::string& name) const {
  auto it = stats_.find(Key(name));
  return it == stats_.end() ? nullptr : &it->second;
}

int64_t Catalog::TableVersion(const std::string& name) const {
  auto it = versions_.find(Key(name));
  return it == versions_.end() ? 0 : it->second.modified;
}

int64_t Catalog::LastAnalyzeVersion(const std::string& name) const {
  auto it = versions_.find(Key(name));
  return it == versions_.end() ? -1 : it->second.analyzed;
}

bool Catalog::StatsStale(const std::string& name) const {
  // Virtual tables are rebuilt on every scan — their "statistics" (the
  // snapshot row count) are never stale.
  if (IsSysTableName(name)) return false;
  if (GetTable(name) == nullptr) return false;
  auto it = versions_.find(Key(name));
  if (it == versions_.end()) return true;  // never analyzed, never modified
  return it->second.analyzed != it->second.modified;
}

std::vector<std::string> Catalog::StaleStatsTables() const {
  std::vector<std::string> names;
  for (const auto& [key, table] : tables_) {
    if (StatsStale(key)) names.push_back(table->name());
  }
  return names;
}

}  // namespace starmagic

#ifndef STARMAGIC_CATALOG_SCHEMA_H_
#define STARMAGIC_CATALOG_SCHEMA_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace starmagic {

/// Declared SQL column type.
enum class ColumnType { kBool, kInt, kDouble, kString };

const char* ColumnTypeName(ColumnType type);

/// Whether runtime value `v` is storable in a column of type `type`
/// (NULL is storable everywhere; INT is storable in DOUBLE).
bool ValueMatchesType(const Value& v, ColumnType type);

/// One column of a table or view output.
struct Column {
  std::string name;
  ColumnType type = ColumnType::kInt;
};

/// An ordered list of named, typed columns.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

  const std::vector<Column>& columns() const { return columns_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }
  const Column& column(int i) const { return columns_[static_cast<size_t>(i)]; }

  /// Index of the column with `name` (case-insensitive), or -1.
  int FindColumn(const std::string& name) const;

  void AddColumn(Column column) { columns_.push_back(std::move(column)); }

  /// "(a INTEGER, b VARCHAR)" rendering.
  std::string ToString() const;

 private:
  std::vector<Column> columns_;
};

}  // namespace starmagic

#endif  // STARMAGIC_CATALOG_SCHEMA_H_

#include "catalog/schema.h"

#include "common/string_util.h"

namespace starmagic {

const char* ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kBool:
      return "BOOLEAN";
    case ColumnType::kInt:
      return "INTEGER";
    case ColumnType::kDouble:
      return "DOUBLE";
    case ColumnType::kString:
      return "VARCHAR";
  }
  return "?";
}

bool ValueMatchesType(const Value& v, ColumnType type) {
  switch (v.kind()) {
    case ValueKind::kNull:
      return true;
    case ValueKind::kBool:
      return type == ColumnType::kBool;
    case ValueKind::kInt:
      return type == ColumnType::kInt || type == ColumnType::kDouble;
    case ValueKind::kDouble:
      return type == ColumnType::kDouble;
    case ValueKind::kString:
      return type == ColumnType::kString;
  }
  return false;
}

int Schema::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (EqualsIgnoreCase(columns_[i].name, name)) return static_cast<int>(i);
  }
  return -1;
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(columns_.size());
  for (const Column& c : columns_) {
    parts.push_back(StrCat(c.name, " ", ColumnTypeName(c.type)));
  }
  return StrCat("(", Join(parts, ", "), ")");
}

}  // namespace starmagic

#ifndef STARMAGIC_COMMON_ROW_H_
#define STARMAGIC_COMMON_ROW_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/value.h"

namespace starmagic {

/// A tuple of SQL values. Rows are plain data; schema lives in the table.
using Row = std::vector<Value>;

/// Hash of a row, consistent with grouping equality (NULL==NULL).
size_t HashRow(const Row& row);

/// Grouping equality over whole rows.
bool RowsEqualGrouping(const Row& a, const Row& b);

/// Total order over rows (lexicographic, CompareTotal per column).
int CompareRows(const Row& a, const Row& b);

/// "(v1, v2, ...)" rendering for diagnostics.
std::string RowToString(const Row& row);

/// Approximate footprint of a row in bytes: the vector header plus every
/// value's MemoryBytes. Content-based, so the governor's byte accounting
/// is identical for identical data at any thread count.
int64_t RowBytes(const Row& row);

/// Functors for using Row as a hash-map key with grouping semantics.
struct RowHash {
  size_t operator()(const Row& r) const { return HashRow(r); }
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    return RowsEqualGrouping(a, b);
  }
};

}  // namespace starmagic

#endif  // STARMAGIC_COMMON_ROW_H_

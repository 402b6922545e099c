#ifndef STARMAGIC_CATALOG_STATISTICS_H_
#define STARMAGIC_CATALOG_STATISTICS_H_

#include <string>
#include <vector>

#include "catalog/table.h"
#include "common/value.h"

namespace starmagic {

/// Optimizer statistics for one column.
struct ColumnStats {
  int64_t distinct_count = 1;  ///< NDV (null counts as one value if present).
  int64_t null_count = 0;
  Value min;  ///< NULL when the column is all-null or table empty.
  Value max;
};

/// Optimizer statistics for one table. Produced by `Analyze`, consumed by
/// the cardinality estimator.
struct TableStats {
  int64_t row_count = 0;
  std::vector<ColumnStats> columns;
};

/// Scans `table` and computes exact statistics.
TableStats Analyze(const Table& table);

}  // namespace starmagic

#endif  // STARMAGIC_CATALOG_STATISTICS_H_

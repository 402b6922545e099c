#include "catalog/statistics.h"

#include <unordered_set>

namespace starmagic {

TableStats Analyze(const Table& table) {
  TableStats stats;
  stats.row_count = table.num_rows();
  int ncols = table.schema().num_columns();
  stats.columns.resize(static_cast<size_t>(ncols));
  for (int c = 0; c < ncols; ++c) {
    ColumnStats& cs = stats.columns[static_cast<size_t>(c)];
    std::unordered_set<size_t> seen_hashes;
    // Exact NDV via hash set of values; hash collisions across distinct
    // values are acceptable for optimizer purposes.
    bool have_minmax = false;
    for (const Row& row : table.rows()) {
      const Value& v = row[static_cast<size_t>(c)];
      if (v.is_null()) {
        cs.null_count++;
        continue;
      }
      seen_hashes.insert(v.Hash());
      if (!have_minmax) {
        cs.min = v;
        cs.max = v;
        have_minmax = true;
      } else {
        if (Value::CompareTotal(v, cs.min) < 0) cs.min = v;
        if (Value::CompareTotal(v, cs.max) > 0) cs.max = v;
      }
    }
    cs.distinct_count = static_cast<int64_t>(seen_hashes.size()) +
                        (cs.null_count > 0 ? 1 : 0);
    if (cs.distinct_count == 0) cs.distinct_count = 1;
  }
  return stats;
}

}  // namespace starmagic

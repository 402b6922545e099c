#ifndef STARMAGIC_EXEC_JOIN_H_
#define STARMAGIC_EXEC_JOIN_H_

#include <unordered_map>
#include <vector>

#include "common/row.h"

namespace starmagic {

/// Hash multimap from composite key rows to payload row indexes, with SQL
/// equi-join NULL semantics: rows whose key contains a NULL never match
/// (they are dropped at insert, and NULL probes return nothing).
class JoinHashTable {
 public:
  void Reserve(size_t n) { map_.reserve(n); }

  /// Inserts `row_index` under `key`; silently skips keys containing NULL.
  /// The key is copied only when it is new to the table.
  void Insert(const Row& key, int row_index);

  /// Indexes matching `key`, or nullptr (including when `key` has NULLs).
  const std::vector<int>* Probe(const Row& key) const;

  size_t size() const { return map_.size(); }

 private:
  std::unordered_map<Row, std::vector<int>, RowHash, RowEq> map_;
};

}  // namespace starmagic

#endif  // STARMAGIC_EXEC_JOIN_H_

#include "exec/join.h"

namespace starmagic {

void JoinHashTable::Insert(const Row& key, int row_index) {
  for (const Value& v : key) {
    if (v.is_null()) return;
  }
  auto it = map_.find(key);
  if (it == map_.end()) it = map_.emplace(key, std::vector<int>()).first;
  it->second.push_back(row_index);
}

const std::vector<int>* JoinHashTable::Probe(const Row& key) const {
  for (const Value& v : key) {
    if (v.is_null()) return nullptr;
  }
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

}  // namespace starmagic

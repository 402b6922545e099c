#include "common/row.h"

#include "common/string_util.h"

namespace starmagic {

namespace {
// 64-bit mix for hash combining (splitmix64 finalizer).
size_t MixHash(size_t h, size_t v) {
  v += 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  v ^= v >> 30;
  v *= 0xbf58476d1ce4e5b9ULL;
  v ^= v >> 27;
  return h ^ v;
}
}  // namespace

size_t HashRow(const Row& row) {
  size_t h = 0x51ed270b;
  for (const Value& v : row) h = MixHash(h, v.Hash());
  return h;
}

bool RowsEqualGrouping(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!Value::EqualsGrouping(a[i], b[i])) return false;
  }
  return true;
}

int CompareRows(const Row& a, const Row& b) {
  size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    int c = Value::CompareTotal(a[i], b[i]);
    if (c != 0) return c;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

int64_t RowBytes(const Row& row) {
  int64_t bytes = static_cast<int64_t>(sizeof(Row));
  for (const Value& v : row) bytes += v.MemoryBytes();
  return bytes;
}

std::string RowToString(const Row& row) {
  std::vector<std::string> parts;
  parts.reserve(row.size());
  for (const Value& v : row) parts.push_back(v.ToString());
  return StrCat("(", Join(parts, ", "), ")");
}

}  // namespace starmagic

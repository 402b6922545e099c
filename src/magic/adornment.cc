#include "magic/adornment.h"

namespace starmagic {
namespace adorn {

bool IsAllFree(const std::string& a) {
  for (char c : a) {
    if (c != 'f') return false;
  }
  return true;
}

std::string FromKinds(const std::vector<BindKind>& kinds) {
  std::string a;
  a.reserve(kinds.size());
  for (BindKind k : kinds) a.push_back(static_cast<char>(k));
  return a;
}

std::vector<int> RestrictedColumns(const std::string& a) {
  std::vector<int> cols;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 'b' || a[i] == 'c') cols.push_back(static_cast<int>(i));
  }
  return cols;
}

}  // namespace adorn
}  // namespace starmagic

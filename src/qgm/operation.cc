#include "qgm/operation.h"

#include "qgm/box.h"

namespace starmagic {

OperationRegistry& OperationRegistry::Instance() {
  static OperationRegistry* kInstance = new OperationRegistry();
  return *kInstance;
}

OperationRegistry::OperationRegistry() {
  // Builtin operations. Pushdown/evaluation for builtins is implemented in
  // the rewrite and exec modules; only AMQ/NMQ classification lives here
  // (§4.2: select is AMQ; union, groupby, difference are NMQ).
  Register({.name = kOpSelect,
            .accepts_magic_quantifier = true,
            .map_output_column = nullptr,
            .evaluate = nullptr});
  Register({.name = kOpGroupBy,
            .accepts_magic_quantifier = false,
            .map_output_column = nullptr,
            .evaluate = nullptr});
  Register({.name = kOpUnion,
            .accepts_magic_quantifier = false,
            .map_output_column = nullptr,
            .evaluate = nullptr});
  Register({.name = kOpIntersect,
            .accepts_magic_quantifier = false,
            .map_output_column = nullptr,
            .evaluate = nullptr});
  Register({.name = kOpExcept,
            .accepts_magic_quantifier = false,
            .map_output_column = nullptr,
            .evaluate = nullptr});
  Register({.name = kOpBaseTable,
            .accepts_magic_quantifier = false,
            .map_output_column = nullptr,
            .evaluate = nullptr});
}

void OperationRegistry::Register(OperationTraits traits) {
  ops_[traits.name] = std::move(traits);
}

const OperationTraits* OperationRegistry::Get(const std::string& name) const {
  auto it = ops_.find(name);
  return it == ops_.end() ? nullptr : &it->second;
}

}  // namespace starmagic

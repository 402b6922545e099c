#ifndef STARMAGIC_MAGIC_ADORNMENT_H_
#define STARMAGIC_MAGIC_ADORNMENT_H_

#include <map>
#include <string>
#include <vector>

#include "qgm/expr.h"

namespace starmagic {

/// Per-column binding classification (§2): 'b' — bound by an equality
/// predicate; 'c' — restricted by a non-equality comparison (condition);
/// 'f' — free.
enum class BindKind : char { kFree = 'f', kBound = 'b', kCondition = 'c' };

/// Adornment helpers. An adornment is a string over {b,c,f}, one character
/// per output column of the adorned box.
namespace adorn {

/// True if `a` consists only of b/c/f and no b or c appears (i.e. the
/// adornment carries no restriction).
bool IsAllFree(const std::string& a);

/// Builds the adornment string from per-column kinds.
std::string FromKinds(const std::vector<BindKind>& kinds);

/// Positions of 'b' or 'c' columns, in column order — the layout of the
/// corresponding magic table's columns.
std::vector<int> RestrictedColumns(const std::string& a);

}  // namespace adorn

/// One binding predicate discovered during adorn-box (Algorithm 4.1):
/// `column` of the target box is restricted by `op` against `expr`
/// (an expression over the eligible quantifiers).
struct Binding {
  int column = -1;
  BinaryOp op = BinaryOp::kEq;  ///< normalized, column on the left
  const Expr* expr = nullptr;   ///< the non-column side (owned by the box)
  /// Index of the predicate in the owner box's predicate list; -1 when the
  /// binding was synthesized (e.g. passed through an NMQ box).
  int predicate_index = -1;
};

}  // namespace starmagic

#endif  // STARMAGIC_MAGIC_ADORNMENT_H_

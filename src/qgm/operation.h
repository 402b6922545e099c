#ifndef STARMAGIC_QGM_OPERATION_H_
#define STARMAGIC_QGM_OPERATION_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "catalog/table.h"
#include "common/status.h"

namespace starmagic {

class Box;

/// Describes a QGM box operation type. This is the paper's extensibility
/// contract (§5): a database customizer who adds a new operation states
/// whether the operation accepts a magic quantifier (AMQ) or not (NMQ)
/// and supplies predicate-pushdown behavior; the EMST rule then works on
/// the new operation unchanged.
struct OperationTraits {
  std::string name;

  /// AMQ: a new quantifier may be inserted into a box of this type with
  /// join semantics (§4.2). Select-boxes are AMQ; union-, groupby-, and
  /// difference-boxes are NMQ.
  bool accepts_magic_quantifier = false;

  /// Predicate-pushdown transparency: can a predicate on output column
  /// `out_col` of box `box` be re-expressed on input quantifier index
  /// `input_idx`? Returns the input column ordinal, or -1 if opaque.
  /// Builtins have built-in behavior; extensions must supply this to get
  /// pushdown (and therefore magic) through their boxes.
  std::function<int(const Box& box, int out_col, int input_idx)>
      map_output_column;

  /// Optional evaluation hook for extension operations: given the
  /// materialized input tables (one per quantifier, in declaration order),
  /// produce the box output. Builtins do not use this.
  std::function<Result<Table>(const Box& box,
                              const std::vector<const Table*>& inputs)>
      evaluate;
};

/// Process-wide registry of operation types. Builtin operations
/// (SELECT, GROUPBY, UNION, INTERSECT, EXCEPT, BASETABLE) are registered
/// on first access; customizers may register more.
class OperationRegistry {
 public:
  static OperationRegistry& Instance();

  /// Registers (or replaces) an operation type.
  void Register(OperationTraits traits);

  /// Returns the traits for `name`, or nullptr.
  const OperationTraits* Get(const std::string& name) const;

 private:
  OperationRegistry();
  std::map<std::string, OperationTraits> ops_;
};

// Builtin operation names.
inline constexpr char kOpSelect[] = "SELECT";
inline constexpr char kOpGroupBy[] = "GROUPBY";
inline constexpr char kOpUnion[] = "UNION";
inline constexpr char kOpIntersect[] = "INTERSECT";
inline constexpr char kOpExcept[] = "EXCEPT";
inline constexpr char kOpBaseTable[] = "BASETABLE";

}  // namespace starmagic

#endif  // STARMAGIC_QGM_OPERATION_H_

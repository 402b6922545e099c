#ifndef STARMAGIC_COMMON_STATUS_H_
#define STARMAGIC_COMMON_STATUS_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>

namespace starmagic {

/// Error categories used across the engine. Mirrors the convention of
/// Status-based database codebases (no exceptions cross module boundaries).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kParseError,
  kSemanticError,
  kExecutionError,
  kNotSupported,
  // DDL/DML against a read-only relation — today the reserved `sys.*`
  // virtual system tables, which only the engine may populate.
  kReadOnly,
  kInternal,
  // Resource-governor outcomes (see src/governor/): a query that ran out
  // of budget, ran out of time, or was cancelled by its caller. These are
  // clean aborts — all workers joined, no torn state — never crashes.
  kResourceExhausted,
  kDeadlineExceeded,
  kCancelled,
};

/// Returns a short human-readable name for `code` ("ParseError", ...).
const char* StatusCodeName(StatusCode code);

/// A lightweight success-or-error result. `Status::OK()` is the success
/// value; error statuses carry a code and a message. The message lives on
/// the heap only when there is one, so an OK status is a code and a null
/// pointer: cheap to create, move and destroy on the executor's per-row
/// paths.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code),
        message_(message.empty()
                     ? nullptr
                     : std::make_unique<std::string>(std::move(message))) {}
  Status(const Status& other)
      : code_(other.code_),
        message_(other.message_ == nullptr
                     ? nullptr
                     : std::make_unique<std::string>(*other.message_)) {}
  Status& operator=(const Status& other) {
    if (this != &other) *this = Status(other);
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status SemanticError(std::string msg) {
    return Status(StatusCode::kSemanticError, std::move(msg));
  }
  static Status ExecutionError(std::string msg) {
    return Status(StatusCode::kExecutionError, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status ReadOnly(std::string msg) {
    return Status(StatusCode::kReadOnly, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const {
    static const std::string kEmpty;
    return message_ != nullptr ? *message_ : kEmpty;
  }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::unique_ptr<std::string> message_;
};

/// A value-or-Status result, in the spirit of absl::StatusOr. The engine
/// returns `Result<T>` from every fallible function that produces a value.
template <typename T>
class Result {
 public:
  // Implicit conversions from both T and Status keep call sites terse
  // (`return value;` / `return Status::...;`), matching StatusOr usage.
  Result(T value) : value_(std::move(value)) {}             // NOLINT
  Result(Status status) : status_(std::move(status)) {}     // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() & { return *value_; }
  const T& value() const& { return *value_; }
  T&& value() && { return std::move(*value_); }

  T& operator*() & { return *value_; }
  const T& operator*() const& { return *value_; }
  T* operator->() { return &*value_; }
  const T* operator->() const { return &*value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace starmagic

/// Propagates a non-OK Status from `expr` out of the enclosing function.
#define SM_RETURN_IF_ERROR(expr)                \
  do {                                          \
    ::starmagic::Status _st = (expr);           \
    if (!_st.ok()) return _st;                  \
  } while (0)

/// Evaluates `expr` (a Result<T>), propagating errors, else binds `lhs`.
#define SM_ASSIGN_OR_RETURN(lhs, expr)                   \
  SM_ASSIGN_OR_RETURN_IMPL(SM_CONCAT(_res_, __LINE__), lhs, expr)
#define SM_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr)         \
  auto tmp = (expr);                                     \
  if (!tmp.ok()) return tmp.status();                    \
  lhs = std::move(tmp).value()
#define SM_CONCAT(a, b) SM_CONCAT_INNER(a, b)
#define SM_CONCAT_INNER(a, b) a##b

#endif  // STARMAGIC_COMMON_STATUS_H_

#include "common/status.h"

namespace starmagic {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kSemanticError:
      return "SemanticError";
    case StatusCode::kExecutionError:
      return "ExecutionError";
    case StatusCode::kNotSupported:
      return "NotSupported";
    case StatusCode::kReadOnly:
      return "ReadOnly";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kCancelled:
      return "Cancelled";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  out += ": ";
  out += message();
  return out;
}

}  // namespace starmagic

#include "util/status.h"

#include <cstdio>
#include <cstdlib>

namespace kgeval {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kCancelled:
      return "Cancelled";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  out += ": ";
  out += message_;
  return out;
}

namespace internal {

void DieOnBadResult(const Status& status) {
  std::fprintf(stderr, "FATAL: ValueOrDie on errored Result: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace internal
}  // namespace kgeval

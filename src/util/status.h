#ifndef KGEVAL_UTIL_STATUS_H_
#define KGEVAL_UTIL_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace kgeval {

/// Error categories used across the library. Modeled after the Arrow/Abseil
/// status idiom: library entry points that can fail return a Status (or a
/// Result<T>) instead of throwing.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kInternal,
  kIoError,
  /// Cooperative cancellation (CancelToken): the work was abandoned by its
  /// requester — a deadline, a shutdown — not broken by an error.
  kCancelled,
};

/// Returns a stable human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
const char* StatusCodeToString(StatusCode code);

/// A cheap, copyable success-or-error value. The OK status carries no
/// message; error statuses carry a code and a context message.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Holds either a value of type T or an error Status. Accessing the value of
/// an errored Result aborts (programmer error), mirroring arrow::Result.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value or from an error Status keeps call
  /// sites terse (`return value;` / `return Status::InvalidArgument(...)`).
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design, above
  Result(T value) : repr_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design, above
  Result(Status status) : repr_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(repr_); }

  const Status& status() const {
    static const Status kOkStatus;
    if (ok()) return kOkStatus;
    return std::get<Status>(repr_);
  }

  /// Returns the contained value. Must only be called when ok().
  const T& ValueOrDie() const&;
  T& ValueOrDie() &;
  T ValueOrDie() &&;

 private:
  std::variant<T, Status> repr_;
};

namespace internal {
[[noreturn]] void DieOnBadResult(const Status& status);
}  // namespace internal

template <typename T>
const T& Result<T>::ValueOrDie() const& {
  if (!ok()) internal::DieOnBadResult(status());
  return std::get<T>(repr_);
}

template <typename T>
T& Result<T>::ValueOrDie() & {
  if (!ok()) internal::DieOnBadResult(status());
  return std::get<T>(repr_);
}

template <typename T>
T Result<T>::ValueOrDie() && {
  if (!ok()) internal::DieOnBadResult(status());
  return std::move(std::get<T>(repr_));
}

/// Propagates a non-OK status from an expression to the caller.
#define KGEVAL_RETURN_NOT_OK(expr)                  \
  do {                                              \
    ::kgeval::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                      \
  } while (false)

}  // namespace kgeval

#endif  // KGEVAL_UTIL_STATUS_H_

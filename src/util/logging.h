#ifndef KGEVAL_UTIL_LOGGING_H_
#define KGEVAL_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace kgeval {

enum class LogLevel { kInfo, kWarning, kError, kFatal };

namespace internal {

/// Stream-style log sink; emits on destruction. LogMessage(kFatal) aborts.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// A sink that swallows everything; used for disabled DCHECKs in release.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal
}  // namespace kgeval

#define KGEVAL_LOG(level)                                                  \
  ::kgeval::internal::LogMessage(::kgeval::LogLevel::k##level, __FILE__,   \
                                 __LINE__)                                 \
      .stream()

/// Aborts with a message when `condition` is false. Enabled in all builds:
/// these guard data-structure invariants, Arrow/RocksDB-style.
#define KGEVAL_CHECK(condition)                                      \
  if (!(condition))                                                  \
  KGEVAL_LOG(Fatal) << "Check failed: " #condition " "

#define KGEVAL_CHECK_OP(lhs, rhs, op)                                      \
  if (!((lhs)op(rhs)))                                                     \
  KGEVAL_LOG(Fatal) << "Check failed: " #lhs " " #op " " #rhs " (" << (lhs) \
                    << " vs " << (rhs) << ") "

#define KGEVAL_CHECK_EQ(a, b) KGEVAL_CHECK_OP(a, b, ==)
#define KGEVAL_CHECK_NE(a, b) KGEVAL_CHECK_OP(a, b, !=)
#define KGEVAL_CHECK_LT(a, b) KGEVAL_CHECK_OP(a, b, <)
#define KGEVAL_CHECK_LE(a, b) KGEVAL_CHECK_OP(a, b, <=)
#define KGEVAL_CHECK_GT(a, b) KGEVAL_CHECK_OP(a, b, >)
#define KGEVAL_CHECK_GE(a, b) KGEVAL_CHECK_OP(a, b, >=)

#ifndef NDEBUG
#define KGEVAL_DCHECK(condition) KGEVAL_CHECK(condition)
#define KGEVAL_DCHECK_LT(a, b) KGEVAL_CHECK_LT(a, b)
#define KGEVAL_DCHECK_LE(a, b) KGEVAL_CHECK_LE(a, b)
#else
#define KGEVAL_DCHECK(condition) \
  if (false && !(condition)) ::kgeval::internal::NullStream()
#define KGEVAL_DCHECK_LT(a, b) \
  if (false) ::kgeval::internal::NullStream()
#define KGEVAL_DCHECK_LE(a, b) \
  if (false) ::kgeval::internal::NullStream()
#endif

#endif  // KGEVAL_UTIL_LOGGING_H_

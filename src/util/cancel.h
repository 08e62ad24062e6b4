#ifndef KGEVAL_UTIL_CANCEL_H_
#define KGEVAL_UTIL_CANCEL_H_

#include <atomic>

namespace kgeval {

/// A cooperative cancellation flag threaded through long-running work
/// (EvalSession sweeps, RankQueries chunk loops, the service's EVAL and
/// SWEEP commands). Producers call Cancel() once; workers poll cancelled()
/// at chunk boundaries and wind down instead of being torn down — no task
/// is ever orphaned, no lock is ever abandoned.
///
/// The token carries *why* it fired so the service can report
/// `deadline-exceeded` versus `cancelled` on the wire. The first Cancel()
/// wins: a deadline firing during a shutdown (or vice versa) keeps the
/// reason that arrived first.
///
/// Thread-safe: Cancel() and the readers may race freely. cancelled() is a
/// single relaxed load, cheap enough for per-block polling in scoring
/// loops.
class CancelToken {
 public:
  enum class Reason : int {
    kNone = 0,
    /// Generic abandonment: server shutdown, client gone.
    kCancelled = 1,
    /// A per-command deadline expired.
    kDeadline = 2,
  };

  /// Requests cancellation. Idempotent; the first reason sticks.
  void Cancel(Reason reason = Reason::kCancelled) {
    int expected = 0;
    reason_.compare_exchange_strong(expected, static_cast<int>(reason),
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire);
  }

  bool cancelled() const {
    return reason_.load(std::memory_order_relaxed) != 0;
  }

  Reason reason() const {
    return static_cast<Reason>(reason_.load(std::memory_order_acquire));
  }

 private:
  std::atomic<int> reason_{0};
};

}  // namespace kgeval

#endif  // KGEVAL_UTIL_CANCEL_H_

#ifndef KGEVAL_UTIL_TIMER_H_
#define KGEVAL_UTIL_TIMER_H_

#include <chrono>

namespace kgeval {

/// Monotonic wall-clock stopwatch. Started on construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace kgeval

#endif  // KGEVAL_UTIL_TIMER_H_

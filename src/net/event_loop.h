#ifndef KGEVAL_NET_EVENT_LOOP_H_
#define KGEVAL_NET_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kgeval {

/// Readiness interest of a registered fd, OR-able.
enum : uint32_t {
  kEventRead = 1u << 0,
  kEventWrite = 1u << 1,
  /// Peer hangup / socket error. Not subscribable — the poller reports it
  /// unconditionally and the loop always delivers it, even to an fd whose
  /// interest set is empty. That is what lets a connection paused by flow
  /// control (no read interest) still notice a vanished peer instead of
  /// sitting parked forever; read/write readiness is never delivered
  /// unsubscribed.
  kEventHangup = 1u << 2,
};

/// A single-threaded readiness event loop over non-blocking fds, polled
/// with poll(2) — portable to every POSIX platform, and the served workload
/// keeps only a handful of connections open, so a per-pass fd scan costs
/// nothing measurable. All fd
/// registration and every callback run on the loop thread; the only
/// cross-thread entry point is Post(), which enqueues a closure and wakes
/// the loop through its wakeup pipe — this is how job threads hand finished
/// command responses back to the connection they belong to.
///
/// The loop never blocks on anything but the poller: callbacks that would
/// block (evaluation, disk I/O) belong on job threads, with Post() carrying
/// their results home.
class EventLoop {
 public:
  using FdCallback = std::function<void(uint32_t ready_events)>;

  /// The loop-thread *capability*: a virtual lock that is "held" exactly
  /// when the calling thread may touch loop-owned state — it is the loop
  /// thread, or the loop is not running (single-threaded setup/teardown).
  /// Nothing is ever locked; the capability exists so clang's thread-safety
  /// analysis can enforce "loop-thread only" the same way it enforces
  /// "mutex held": methods marked KGEVAL_REQUIRES(loop_cap) are callable
  /// only from code that proved the capability via AssertOnLoopThread() or
  /// inherited it from an annotated caller.
  class KGEVAL_CAPABILITY("EventLoop::LoopThread") LoopThread {};

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` with the given interest; `callback(ready)` fires from
  /// Run() whenever the fd is ready. One registration per fd. Loop-thread
  /// only (or before Run() starts) — compile-enforced under clang.
  void Add(int fd, uint32_t events, FdCallback callback)
      KGEVAL_REQUIRES(loop_cap);
  /// Replaces the interest set of a registered fd. Loop-thread only.
  void SetEvents(int fd, uint32_t events) KGEVAL_REQUIRES(loop_cap);
  /// Deregisters `fd`. Safe to call from inside its own callback; the fd is
  /// not closed (ownership stays with the caller). Loop-thread only.
  void Remove(int fd) KGEVAL_REQUIRES(loop_cap);

  /// Runs callbacks until Stop(). Must be called from exactly one thread,
  /// which becomes the loop thread.
  void Run();
  /// Makes Run() return after the current iteration. Thread-safe.
  void Stop();

  /// Enqueues `task` to run on the loop thread and wakes the loop.
  /// Thread-safe; the only EventLoop method job threads may call (besides
  /// Stop). Tasks run in post order, after fd callbacks of the iteration.
  void Post(std::function<void()> task) KGEVAL_EXCLUDES(posted_mutex_);

  /// Arms a one-shot monotonic timer: `fn` runs on the loop thread at (or
  /// just after) now + delay_s, after the iteration's fd callbacks. Like
  /// Add(), loop-thread only (or before Run() starts) — other threads
  /// Post() a closure that arms it. Returns an id for CancelTimer; ids are
  /// never reused. Timers drive the service's per-command deadlines and
  /// idle-connection reaping.
  uint64_t RunAfter(double delay_s, std::function<void()> fn)
      KGEVAL_REQUIRES(loop_cap);
  /// Cancels a pending timer. A no-op for a timer that already fired (or
  /// an unknown id), so completion paths can cancel unconditionally.
  /// Loop-thread only.
  void CancelTimer(uint64_t id) KGEVAL_REQUIRES(loop_cap);

  /// True iff the calling thread is inside Run(). Lets shared helpers
  /// assert they are (or are not) on the loop thread.
  bool InLoopThread() const;

  /// Claims the loop-thread capability: callback entry points (fd
  /// callbacks, timers, posted tasks) call this first, which (a) CHECKs in
  /// Debug builds that the caller really is the loop thread — or that the
  /// loop is not running, covering pre-Run() registration and post-Run()
  /// teardown — and (b) tells the static analysis the capability is held
  /// for the rest of the scope.
  void AssertOnLoopThread() const KGEVAL_ASSERT_CAPABILITY(loop_cap);

  /// The capability object itself (never locked, zero size in practice).
  /// Public so other classes can guard their own loop-owned members with
  /// KGEVAL_GUARDED_BY(loop_->loop_cap).
  LoopThread loop_cap;

 private:
  struct Registration {
    uint32_t events = 0;
    /// Distinguishes this registration from an earlier one on the same fd
    /// number: within one poll pass a callback may Remove()+close an fd
    /// while another callback accepts a new connection that reuses it, and
    /// a stale poll entry must not be dispatched to the newcomer.
    uint32_t generation = 0;
    FdCallback callback;
  };

  /// Polls once with `timeout_ms` and dispatches ready callbacks.
  void PollOnce(int timeout_ms) KGEVAL_REQUIRES(loop_cap);
  void RunPosted() KGEVAL_REQUIRES(loop_cap) KGEVAL_EXCLUDES(posted_mutex_);
  void Wakeup();
  /// Poll timeout shrunk to the earliest pending timer, in [0, cap_ms].
  int NextTimeoutMs(int cap_ms) const KGEVAL_REQUIRES(loop_cap);
  /// Runs (and removes) every timer whose deadline has passed.
  void FireDueTimers() KGEVAL_REQUIRES(loop_cap);

  std::unordered_map<int, Registration> fds_ KGEVAL_GUARDED_BY(loop_cap);
  uint32_t next_generation_ KGEVAL_GUARDED_BY(loop_cap) = 0;
  /// Pending timers, ordered by (deadline, id): steady_clock so a wall
  /// clock step never fires (or starves) a deadline.
  std::map<std::pair<std::chrono::steady_clock::time_point, uint64_t>,
           std::function<void()>>
      timers_ KGEVAL_GUARDED_BY(loop_cap);
  uint64_t next_timer_id_ KGEVAL_GUARDED_BY(loop_cap) = 0;
  /// The wakeup pipe fds are set in the constructor and never change:
  /// reads from any thread (Wakeup) need no guard.
  int wakeup_read_ = -1;
  int wakeup_write_ = -1;

  Mutex posted_mutex_;
  std::vector<std::function<void()>> posted_ KGEVAL_GUARDED_BY(posted_mutex_);
  bool stop_ KGEVAL_GUARDED_BY(loop_cap) = false;
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::thread::id> loop_thread_{};
};

}  // namespace kgeval

#endif  // KGEVAL_NET_EVENT_LOOP_H_

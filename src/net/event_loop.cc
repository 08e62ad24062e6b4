#include "net/event_loop.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#include <utility>

#include "util/fault.h"
#include "util/logging.h"

namespace kgeval {

namespace {

void SetNonBlockingOrDie(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  KGEVAL_CHECK(flags >= 0) << "fcntl(F_GETFL): errno " << errno;
  KGEVAL_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0)
      << "fcntl(F_SETFL): errno " << errno;
}

}  // namespace

EventLoop::EventLoop() {
  // Construction happens before any Run(): the loop-thread capability is
  // trivially claimable (the Debug check passes while no loop runs).
  AssertOnLoopThread();
  int pipe_fds[2];
  KGEVAL_CHECK(::pipe(pipe_fds) == 0) << "pipe: errno " << errno;
  wakeup_read_ = pipe_fds[0];
  wakeup_write_ = pipe_fds[1];
  SetNonBlockingOrDie(wakeup_read_);
  SetNonBlockingOrDie(wakeup_write_);
  // The wakeup pipe's read end drains itself; Post()ed tasks run from
  // RunPosted() after the dispatch pass.
  Add(wakeup_read_, kEventRead, [this](uint32_t) {
    char buf[64];
    while (::read(wakeup_read_, buf, sizeof(buf)) > 0) {
    }
  });
}

EventLoop::~EventLoop() {
  // Destruction mirrors construction: Run() has returned by now, so the
  // capability is claimable from whichever thread tears the loop down.
  AssertOnLoopThread();
  Remove(wakeup_read_);
  ::close(wakeup_read_);
  ::close(wakeup_write_);
}

void EventLoop::Add(int fd, uint32_t events, FdCallback callback) {
  KGEVAL_CHECK(fds_.find(fd) == fds_.end()) << "fd " << fd << " registered twice";
  fds_[fd] = Registration{events, ++next_generation_, std::move(callback)};
}

void EventLoop::SetEvents(int fd, uint32_t events) {
  auto it = fds_.find(fd);
  KGEVAL_CHECK(it != fds_.end()) << "fd " << fd << " not registered";
  it->second.events = events;
}

void EventLoop::Remove(int fd) { fds_.erase(fd); }

void EventLoop::Run() {
  loop_thread_.store(std::this_thread::get_id(), std::memory_order_release);
  // This thread just *became* the loop thread; claim the capability for
  // the dispatch loop below.
  AssertOnLoopThread();
  stop_ = false;
  while (!stop_) {
    PollOnce(NextTimeoutMs(/*cap_ms=*/200));
    FireDueTimers();
    RunPosted();
    if (stop_requested_.exchange(false)) stop_ = true;
  }
  loop_thread_.store(std::thread::id(), std::memory_order_release);
}

uint64_t EventLoop::RunAfter(double delay_s, std::function<void()> fn) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  // Saturate: a delay past the clock's range must not wrap the integer
  // deadline into the past and fire at once. Non-positive (and NaN) delays
  // fire on the next loop pass.
  const double room_s =
      std::chrono::duration<double>(Clock::time_point::max() - now).count();
  Clock::time_point deadline = Clock::time_point::max();
  if (!(delay_s > 0)) {
    deadline = now;
  } else if (delay_s < room_s) {
    deadline = now + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(delay_s));
  }
  const uint64_t id = ++next_timer_id_;
  timers_.emplace(std::make_pair(deadline, id), std::move(fn));
  return id;
}

void EventLoop::CancelTimer(uint64_t id) {
  for (auto it = timers_.begin(); it != timers_.end(); ++it) {
    if (it->first.second == id) {
      timers_.erase(it);
      return;
    }
  }
}

int EventLoop::NextTimeoutMs(int cap_ms) const {
  if (timers_.empty()) return cap_ms;
  const auto now = std::chrono::steady_clock::now();
  const auto first = timers_.begin()->first.first;
  if (first <= now) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(first - now)
          .count() +
      1;  // Round up: waking a hair early would spin until the deadline.
  return ms < cap_ms ? static_cast<int>(ms) : cap_ms;
}

void EventLoop::FireDueTimers() {
  // Extract-then-run, one at a time: a timer callback may arm new timers
  // or cancel pending ones, so no iterator survives the call.
  const auto now = std::chrono::steady_clock::now();
  while (!timers_.empty() && timers_.begin()->first.first <= now) {
    std::function<void()> fn = std::move(timers_.begin()->second);
    timers_.erase(timers_.begin());
    fn();
  }
}

bool EventLoop::InLoopThread() const {
  return loop_thread_.load(std::memory_order_acquire) ==
         std::this_thread::get_id();
}

void EventLoop::AssertOnLoopThread() const {
#ifndef NDEBUG
  // "May touch loop state" means: the loop thread itself, or no loop is
  // running at all (single-threaded construction, pre-Run() registration,
  // post-Run() teardown — Run() publishes/clears loop_thread_ at entry and
  // exit, and callers of those phases are externally serialized).
  const std::thread::id loop = loop_thread_.load(std::memory_order_acquire);
  KGEVAL_CHECK(loop == std::thread::id() || loop == std::this_thread::get_id())
      << "loop-thread-only EventLoop state touched from another thread "
      << "while the loop is running";
#endif
}

void EventLoop::Stop() {
  stop_requested_.store(true);
  Wakeup();
}

void EventLoop::Post(std::function<void()> task) {
  {
    MutexLock lock(&posted_mutex_);
    posted_.push_back(std::move(task));
  }
  Wakeup();
}

void EventLoop::Wakeup() {
  const char byte = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
  (void)!::write(wakeup_write_, &byte, 1);
}

void EventLoop::RunPosted() {
  std::vector<std::function<void()>> tasks;
  {
    MutexLock lock(&posted_mutex_);
    tasks.swap(posted_);
  }
  for (auto& task : tasks) task();
}

namespace {

/// The injectable poller failure (fault point "net.loop.poll"): when it
/// fires, the poll is skipped and errno comes from the fault spec, exactly
/// as if the syscall had failed.
bool InjectPollFailure() {
  int injected = 0;
  if (!FaultPoint("net.loop.poll", &injected)) return false;
  errno = injected;
  return true;
}

}  // namespace

void EventLoop::PollOnce(int timeout_ms) {
  std::vector<struct pollfd> poll_fds;
  std::vector<uint32_t> generations;
  poll_fds.reserve(fds_.size());
  generations.reserve(fds_.size());
  for (const auto& [fd, reg] : fds_) {
    struct pollfd p = {};
    p.fd = fd;
    if (reg.events & kEventRead) p.events |= POLLIN;
    if (reg.events & kEventWrite) p.events |= POLLOUT;
    poll_fds.push_back(p);
    generations.push_back(reg.generation);
  }
  const int n = InjectPollFailure()
                    ? -1
                    : ::poll(poll_fds.data(), poll_fds.size(), timeout_ms);
  if (n < 0) {
    // EINTR is routine. EBADF and EINVAL mean the loop's own bookkeeping
    // handed the kernel a broken fd set — a programmer error worth dying
    // loudly for. Everything else (ENOMEM under pressure being the
    // documented case) is transient: one failed poll must degrade to a
    // logged retry, not take the whole server down with it.
    if (errno == EINTR) return;
    KGEVAL_CHECK(errno != EBADF && errno != EINVAL) << "poll: errno " << errno;
    KGEVAL_LOG(Warning) << "poll: transient errno " << errno << ", retrying";
    // A brief nap so a persistent transient error cannot hot-spin the loop;
    // posted tasks and timers still run each retry iteration.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return;
  }
  if (n == 0) return;
  for (size_t i = 0; i < poll_fds.size(); ++i) {
    const struct pollfd& p = poll_fds[i];
    if (p.revents == 0) continue;
    // The callback for an earlier fd may have Remove()d this one — or
    // Remove()d+closed it and accepted a new connection reusing the same
    // fd number, in which case the generation no longer matches and this
    // entry's readiness belongs to the dead registration, not the new one.
    auto it = fds_.find(p.fd);
    if (it == fds_.end() || it->second.generation != generations[i]) {
      continue;
    }
    uint32_t events = 0;
    if (p.revents & POLLIN) events |= kEventRead;
    if (p.revents & POLLOUT) events |= kEventWrite;
    // Hangup/error are reported regardless of the subscription and carried
    // on their own bit, so dispatch can deliver them to a paused fd without
    // force-delivering reads (see kEventHangup in event_loop.h).
    if (p.revents & (POLLHUP | POLLERR | POLLNVAL)) events |= kEventHangup;
    events &= (it->second.events | kEventHangup);
    if (events == 0) continue;
    // Invoked through a copy: the callback may Remove() its own fd (a
    // connection closing on read error does), which erases the map entry
    // holding the std::function currently executing.
    const FdCallback callback = it->second.callback;
    callback(events);
  }
}

}  // namespace kgeval

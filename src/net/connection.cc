#include "net/connection.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "util/fault.h"
#include "util/logging.h"

namespace kgeval {

static_assert(kLowWaterBytes <= kHighWaterBytes);

Connection::Connection(EventLoop* loop, int fd) : loop_(loop), fd_(fd) {}

Connection::~Connection() {
  // Close() ran unless the loop shut down with the connection still open;
  // either way the fd must not leak.
  if (!closed_.load()) ::close(fd_);
}

void Connection::Start(LineFn on_line, CloseFn on_close) {
  on_line_ = std::move(on_line);
  on_close_ = std::move(on_close);
  auto self = shared_from_this();
  loop_->Add(fd_, kEventRead, [self](uint32_t events) {
    // Callback entry: claim the loop-thread capability for the dispatch.
    self->loop_->AssertOnLoopThread();
    self->HandleReady(events);
  });
}

void Connection::HandleReady(uint32_t events) {
  if (closed_.load(std::memory_order_acquire)) return;
  if (events & kEventWrite) FlushSome();
  if (closed_.load(std::memory_order_acquire)) return;
  if (events & kEventRead) HandleReadable();
  if (closed_.load(std::memory_order_acquire)) return;
  if (events & kEventHangup) {
    // The loop delivers hangup even while reads are paused (server flow
    // control or the high-water mark), so a vanished peer cannot leave a
    // throttled connection parked forever. The peer is gone, so buffered
    // output and any unprocessed pipelined input are undeliverable work:
    // close now rather than draining them.
    Close();
  }
}

void Connection::HandleReadable() {
  // Fault point "net.recv.close": the peer vanishes mid-line. Everything
  // buffered (partial input line, queued replies) becomes undeliverable at
  // once — the same teardown path a real RST exercises.
  if (FaultPoint("net.recv.close")) {
    Close();
    return;
  }
  char buf[16 * 1024];
  while (true) {
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      input_.append(buf, static_cast<size_t>(n));
      ExtractLines();
      if (closed_.load(std::memory_order_acquire)) return;
      // A callback may have paused reads (flow control / high water):
      // stop pulling more input this round.
      if (paused_by_server_ || paused_by_high_water_ || close_when_drained_) {
        return;
      }
      continue;
    }
    if (n == 0) {  // Peer closed.
      Close();
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    Close();
    return;
  }
}

void Connection::ExtractLines() {
  size_t start = 0;
  while (true) {
    const size_t nl = input_.find('\n', start);
    if (nl == std::string::npos) break;
    if (overflow_) {
      // End of the oversized line: report it once, resume normally after.
      overflow_ = false;
      on_line_(std::string_view(), /*overflow=*/true);
    } else {
      size_t end = nl;
      if (end > start && input_[end - 1] == '\r') --end;
      const std::string_view line(input_.data() + start, end - start);
      if (line.size() > kMaxLineBytes) {
        on_line_(std::string_view(), /*overflow=*/true);
      } else {
        on_line_(line, /*overflow=*/false);
      }
    }
    start = nl + 1;
    if (closed_.load(std::memory_order_acquire)) return;
  }
  input_.erase(0, start);
  // An unterminated line beyond the limit: discard what we have and flag,
  // so a hostile client cannot grow the input buffer without newlines. A
  // trailing CR may still be the first half of a CRLF, which the
  // terminator strips, so it does not count against the limit yet.
  const size_t unterminated =
      input_.size() - (!input_.empty() && input_.back() == '\r' ? 1 : 0);
  if (!overflow_ && unterminated > kMaxLineBytes) {
    overflow_ = true;
    input_.clear();
  } else if (overflow_) {
    input_.clear();
  }
}

bool Connection::Enqueue(std::string data) {
  MutexLock lock(&out_mutex_);
  if (closed_.load(std::memory_order_acquire)) return false;
  out_.append(data);
  return true;
}

void Connection::RequestFlush() {
  auto self = shared_from_this();
  if (loop_->InLoopThread()) {
    loop_->AssertOnLoopThread();  // Claim what InLoopThread() just proved.
    FlushSome();
  } else {
    loop_->Post([self] {
      self->loop_->AssertOnLoopThread();
      if (!self->closed()) self->FlushSome();
    });
  }
}

void Connection::Send(std::string data) {
  if (!Enqueue(std::move(data))) return;
  RequestFlush();
}

bool Connection::BlockingSend(std::string data) {
  KGEVAL_CHECK(!loop_->InLoopThread())
      << "BlockingSend would deadlock the loop thread";
  {
    MutexLock lock(&out_mutex_);
    while (!closed_.load(std::memory_order_acquire) &&
           out_.size() - out_head_ > kHighWaterBytes) {
      below_high_water_.Wait(lock);
    }
    if (closed_.load(std::memory_order_acquire)) return false;
    out_.append(data);
  }
  RequestFlush();
  return true;
}

void Connection::FlushSome() {
  size_t pending = 0;
  {
    MutexLock lock(&out_mutex_);
    if (closed_.load(std::memory_order_acquire)) return;
    while (out_head_ < out_.size()) {
      // Fault point "net.send.eagain": the socket pretends to be full, so
      // the rest of the buffer waits for (real) write readiness — the
      // deferred-flush path a genuinely slow peer exercises.
      if (FaultPoint("net.send.eagain")) break;
      // Fault point "net.send.short_write": the kernel accepts one byte,
      // forcing the partial-progress bookkeeping through every reply byte.
      size_t chunk = out_.size() - out_head_;
      if (FaultPoint("net.send.short_write")) chunk = 1;
      // send(MSG_NOSIGNAL), not write(): a peer that vanished mid-reply
      // must surface as EPIPE here, not as a process-killing SIGPIPE —
      // the server also runs embedded in tests and benches.
      const ssize_t n =
          ::send(fd_, out_.data() + out_head_, chunk, MSG_NOSIGNAL);
      if (n > 0) {
        out_head_ += static_cast<size_t>(n);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      // Broken pipe et al.: the reader is gone.
      out_.clear();
      out_head_ = 0;
      break;
    }
    if (out_head_ == out_.size()) {
      out_.clear();
      out_head_ = 0;
    } else if (out_head_ > kHighWaterBytes) {
      // Compact occasionally so the dead prefix cannot dominate memory.
      out_.erase(0, out_head_);
      out_head_ = 0;
    }
    pending = out_.size() - out_head_;
    if (pending <= kLowWaterBytes) {
      below_high_water_.NotifyAll();
    }
  }
  // want_write_ / paused_by_high_water_ are *loop-thread* state (read
  // lock-free by UpdateInterest/HandleReadable on the loop thread), so they
  // are written here, after out_mutex_ is dropped — writing them inside the
  // locked region above, as this function used to, gave them two competing
  // guards and no sound discipline. A BlockingSend appending between the
  // unlock and these stores only makes `pending` stale low; its own
  // RequestFlush posts another FlushSome that recomputes, exactly as with
  // the old ordering.
  want_write_ = pending > 0;
  paused_by_high_water_ = pending > kHighWaterBytes;
  if (pending == 0 && close_when_drained_) {
    Close();
    return;
  }
  UpdateInterest();
}

void Connection::UpdateInterest() {
  if (closed_.load(std::memory_order_acquire)) return;
  uint32_t events = 0;
  if (!paused_by_server_ && !paused_by_high_water_ && !close_when_drained_) {
    events |= kEventRead;
  }
  if (want_write_) events |= kEventWrite;
  loop_->SetEvents(fd_, events);
}

void Connection::CloseWhenDrained() {
  close_when_drained_ = true;
  FlushSome();  // Close()s inline when nothing is pending.
}

void Connection::PauseReads() {
  paused_by_server_ = true;
  UpdateInterest();
}

void Connection::ResumeReads() {
  paused_by_server_ = false;
  UpdateInterest();
}

void Connection::Close() {
  if (closed_.exchange(true)) return;
  loop_->Remove(fd_);
  ::close(fd_);
  {
    // Wake BlockingSend waiters; they observe closed_ and bail.
    MutexLock lock(&out_mutex_);
    below_high_water_.NotifyAll();
  }
  if (on_close_) {
    // Moved-from first: the callback usually drops the server's owning
    // reference, which may destroy *this* on return.
    CloseFn cb = std::move(on_close_);
    on_close_ = nullptr;
    cb();
  }
}

}  // namespace kgeval

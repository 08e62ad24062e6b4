#ifndef KGEVAL_NET_CONNECTION_H_
#define KGEVAL_NET_CONNECTION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "net/event_loop.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kgeval {

/// Longest accepted request line, terminator excluded, however its CR and
/// LF split across reads. A client that exceeds it gets one overflow event
/// per offending line (the line is discarded up to its newline, the
/// connection survives) — a protocol error must never cost a disconnect, or
/// a pipelined client loses every response queued behind the bad line.
constexpr size_t kMaxLineBytes = 4096;
/// Output high-water mark: once this many response bytes are buffered, the
/// connection stops reading new requests (backpressure instead of
/// unbounded buffering) and BlockingSend() callers wait.
constexpr size_t kHighWaterBytes = 256 * 1024;
/// Reads resume (and BlockingSend() callers wake) once the buffered output
/// drains below this. Hysteresis, not a second limit.
constexpr size_t kLowWaterBytes = 64 * 1024;

/// One buffered, non-blocking TCP connection owned by an EventLoop.
///
/// Reading: the loop thread pulls bytes into an input buffer and delivers
/// complete lines (LF or CRLF terminated, terminator stripped) to the line
/// callback — as many lines per read as arrived, which is what makes
/// pipelining free: a client may write N requests back-to-back and the
/// callback fires N times in request order.
///
/// Writing: responses append to an internal output buffer and are flushed
/// by the loop thread as the socket accepts them. Send() never blocks and
/// is safe from any thread (job threads finishing a command call it
/// through a loop Post); BlockingSend() additionally parks the calling job
/// thread while the buffer sits above the high-water mark, so a slow
/// client throttles its own stream instead of growing the server's heap.
///
/// Lifetime: shared_ptr, kept alive by the loop registration and by any
/// job-thread closure still holding it. After Close() every Send becomes a
/// no-op and BlockingSend returns false.
class Connection : public std::enable_shared_from_this<Connection> {
 public:
  /// `overflow == false`: `line` is one complete request line.
  /// `overflow == true`: a line exceeded kMaxLineBytes and was discarded
  /// (`line` is empty) — the callee should emit a protocol error.
  using LineFn = std::function<void(std::string_view line, bool overflow)>;
  using CloseFn = std::function<void()>;

  /// Takes ownership of `fd` (closed on Close).
  Connection(EventLoop* loop, int fd);
  ~Connection();

  /// Registers with the loop and starts delivering lines. Must run on the
  /// loop thread; a shared_ptr must already own `this`.
  void Start(LineFn on_line, CloseFn on_close)
      KGEVAL_REQUIRES(loop_->loop_cap);

  /// Queues `data` for writing. Never blocks; any thread; dropped if the
  /// connection is closed.
  void Send(std::string data) KGEVAL_EXCLUDES(out_mutex_);

  /// Queues `data`, waiting first while the output buffer is above the
  /// high-water mark. Job threads only (the loop thread must never park
  /// here). Returns false — without queueing — once the connection closed.
  bool BlockingSend(std::string data) KGEVAL_EXCLUDES(out_mutex_);

  /// Flushes buffered output, then closes. New reads stop immediately.
  /// Loop thread only.
  void CloseWhenDrained() KGEVAL_REQUIRES(loop_->loop_cap);

  /// Closes now: deregisters, closes the fd, wakes BlockingSend waiters,
  /// fires the close callback once. Loop thread only.
  void Close() KGEVAL_REQUIRES(loop_->loop_cap) KGEVAL_EXCLUDES(out_mutex_);

  /// Server-side flow control, independent of the high-water pause: while
  /// paused the connection keeps the socket open but reads nothing. Loop
  /// thread only.
  void PauseReads() KGEVAL_REQUIRES(loop_->loop_cap);
  void ResumeReads() KGEVAL_REQUIRES(loop_->loop_cap);

  bool closed() const { return closed_.load(std::memory_order_acquire); }

 private:
  void HandleReady(uint32_t events) KGEVAL_REQUIRES(loop_->loop_cap);
  void HandleReadable() KGEVAL_REQUIRES(loop_->loop_cap);
  void ExtractLines() KGEVAL_REQUIRES(loop_->loop_cap);
  /// Writes what the socket will take; updates pauses/interest. Loop
  /// thread only.
  void FlushSome()
      KGEVAL_REQUIRES(loop_->loop_cap) KGEVAL_EXCLUDES(out_mutex_);
  void UpdateInterest() KGEVAL_REQUIRES(loop_->loop_cap);
  /// Appends under the output lock; returns false when closed.
  bool Enqueue(std::string data) KGEVAL_EXCLUDES(out_mutex_);
  /// Schedules a FlushSome on the loop thread. Any thread: flushes inline
  /// when already on the loop, posts otherwise.
  void RequestFlush();

  EventLoop* loop_;
  const int fd_;

  // Loop-thread state: guarded by the loop's virtual capability, i.e.
  // touched only from loop callbacks (compile-enforced under clang, CHECKed
  // in Debug via AssertOnLoopThread at every callback entry).
  LineFn on_line_ KGEVAL_GUARDED_BY(loop_->loop_cap);
  CloseFn on_close_ KGEVAL_GUARDED_BY(loop_->loop_cap);
  std::string input_ KGEVAL_GUARDED_BY(loop_->loop_cap);
  bool overflow_ KGEVAL_GUARDED_BY(loop_->loop_cap) = false;
  bool paused_by_server_ KGEVAL_GUARDED_BY(loop_->loop_cap) = false;
  bool paused_by_high_water_ KGEVAL_GUARDED_BY(loop_->loop_cap) = false;
  bool close_when_drained_ KGEVAL_GUARDED_BY(loop_->loop_cap) = false;
  bool want_write_ KGEVAL_GUARDED_BY(loop_->loop_cap) = false;

  // Output state shared between the loop thread and job threads.
  Mutex out_mutex_;
  CondVar below_high_water_;
  std::string out_ KGEVAL_GUARDED_BY(out_mutex_);
  size_t out_head_ KGEVAL_GUARDED_BY(out_mutex_) = 0;  // Bytes already written.

  std::atomic<bool> closed_{false};
};

}  // namespace kgeval

#endif  // KGEVAL_NET_CONNECTION_H_

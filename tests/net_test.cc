// Tests for the net layer: EventLoop dispatch/Post semantics and
// Connection framing, pipelining, overflow handling, and backpressure,
// plus the TCP helpers in net_util.

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/connection.h"
#include "net/event_loop.h"
#include "net/net_util.h"
#include "util/fault.h"

namespace kgeval {
namespace {

/// An EventLoop running on its own thread for the duration of a test.
class LoopThread {
 public:
  LoopThread() : thread_([this] { loop_.Run(); }) {
    // Wait until Run() has claimed the loop thread, so tests can Post
    // immediately without racing loop startup.
    while (!Posted([] {})) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  ~LoopThread() {
    loop_.Stop();
    thread_.join();
  }

  EventLoop& loop() { return loop_; }

  /// Posts `task` and waits for it to run on the loop thread.
  bool Posted(std::function<void()> task, int timeout_ms = 2000) {
    auto done = std::make_shared<std::promise<void>>();
    auto future = done->get_future();
    loop_.Post([task = std::move(task), done] {
      task();
      done->set_value();
    });
    return future.wait_for(std::chrono::milliseconds(timeout_ms)) ==
           std::future_status::ready;
  }

 private:
  EventLoop loop_;
  std::thread thread_;
};

/// A Connection wired to one end of a socketpair, collecting delivered
/// lines; the test drives the other (blocking) end directly.
class ConnectionHarness {
 public:
  explicit ConnectionHarness(LoopThread* loop) : loop_(loop) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    peer_fd_ = fds[0];
    EXPECT_TRUE(SetNonBlocking(fds[1]).ok());
    conn_ = std::make_shared<Connection>(&loop->loop(), fds[1]);
    EXPECT_TRUE(loop->Posted([this] {
      conn_->Start(
          [this](std::string_view line, bool overflow) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (overflow) {
              ++overflows_;
            } else {
              lines_.emplace_back(line);
            }
            changed_.notify_all();
          },
          [this] {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
            changed_.notify_all();
          });
    }));
  }

  ~ConnectionHarness() {
    // Close the connection on the loop thread and wait: a peer EOF racing
    // this destructor would otherwise deliver the close callback into
    // mutex_/changed_ mid-destruction. Close() is idempotent, so this is
    // safe even when the test already observed the close.
    EXPECT_TRUE(loop_->Posted([this] { conn_->Close(); }));
    if (peer_fd_ >= 0) ::close(peer_fd_);
  }

  /// The test-side (blocking) socket end.
  int peer_fd() const { return peer_fd_; }
  void ClosePeer() {
    ::close(peer_fd_);
    peer_fd_ = -1;
  }

  std::shared_ptr<Connection>& conn() { return conn_; }

  void WriteToPeer(const std::string& data) {
    ASSERT_EQ(::send(peer_fd_, data.data(), data.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(data.size()));
  }

  /// Reads from the peer end until `n` bytes arrived or the timeout.
  std::string ReadFromPeer(size_t n, int timeout_ms = 5000) {
    std::string out;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (out.size() < n && std::chrono::steady_clock::now() < deadline) {
      char buf[4096];
      const ssize_t got = ::recv(peer_fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (got > 0) {
        out.append(buf, static_cast<size_t>(got));
      } else if (got == 0) {
        break;  // Peer closed.
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return out;
  }

  bool WaitForLines(size_t count, int timeout_ms = 5000) {
    std::unique_lock<std::mutex> lock(mutex_);
    return changed_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                             [&] { return lines_.size() >= count; });
  }

  bool WaitForOverflows(int count, int timeout_ms = 5000) {
    std::unique_lock<std::mutex> lock(mutex_);
    return changed_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                             [&] { return overflows_ >= count; });
  }

  bool WaitForClose(int timeout_ms = 5000) {
    std::unique_lock<std::mutex> lock(mutex_);
    return changed_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                             [&] { return closed_; });
  }

  std::vector<std::string> lines() {
    std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }

  int overflows() {
    std::lock_guard<std::mutex> lock(mutex_);
    return overflows_;
  }

 private:
  LoopThread* loop_ = nullptr;
  int peer_fd_ = -1;
  std::shared_ptr<Connection> conn_;
  std::mutex mutex_;
  std::condition_variable changed_;
  std::vector<std::string> lines_;
  int overflows_ = 0;
  bool closed_ = false;
};

TEST(EventLoopTest, PostRunsTasksOnLoopThreadInOrder) {
  LoopThread loop;
  std::mutex mutex;
  std::vector<int> order;
  std::thread::id loop_id{};
  for (int i = 0; i < 5; ++i) {
    loop.loop().Post([&, i] {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(i);
      loop_id = std::this_thread::get_id();
      EXPECT_TRUE(loop.loop().InLoopThread());
    });
  }
  ASSERT_TRUE(loop.Posted([] {}));
  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_NE(loop_id, std::this_thread::get_id());
  EXPECT_FALSE(loop.loop().InLoopThread());
}

TEST(EventLoopTest, DispatchesReadableFd) {
  LoopThread loop;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(SetNonBlocking(fds[0]).ok());
  std::promise<std::string> delivered;
  ASSERT_TRUE(loop.Posted([&] {
    loop.loop().Add(fds[0], kEventRead, [&](uint32_t events) {
      EXPECT_TRUE(events & kEventRead);
      char buf[16] = {};
      const ssize_t n = ::read(fds[0], buf, sizeof(buf));
      ASSERT_GT(n, 0);
      // Self-removal from inside the callback must be safe (the loop
      // invokes a copy, not the map entry it erases).
      loop.loop().Remove(fds[0]);
      delivered.set_value(std::string(buf, static_cast<size_t>(n)));
    });
  }));
  ASSERT_EQ(::write(fds[1], "ping", 4), 4);
  auto future = delivered.get_future();
  ASSERT_EQ(future.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_EQ(future.get(), "ping");
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ConnectionTest, DeliversPipelinedLinesInOrder) {
  LoopThread loop;
  ConnectionHarness h(&loop);
  // Three requests in one TCP segment: pipelining is just back-to-back
  // lines, and CRLF is accepted alongside LF.
  h.WriteToPeer("alpha\nbravo\r\ncharlie\n");
  ASSERT_TRUE(h.WaitForLines(3));
  EXPECT_EQ(h.lines(), (std::vector<std::string>{"alpha", "bravo", "charlie"}));
}

TEST(ConnectionTest, ReassemblesLinesSplitAcrossReads) {
  LoopThread loop;
  ConnectionHarness h(&loop);
  h.WriteToPeer("hel");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  h.WriteToPeer("lo\nwor");
  ASSERT_TRUE(h.WaitForLines(1));
  EXPECT_EQ(h.lines(), (std::vector<std::string>{"hello"}));
  h.WriteToPeer("ld\n");
  ASSERT_TRUE(h.WaitForLines(2));
  EXPECT_EQ(h.lines(), (std::vector<std::string>{"hello", "world"}));
}

TEST(ConnectionTest, OversizedLineReportsOverflowAndSurvives) {
  LoopThread loop;
  ConnectionHarness h(&loop);
  h.WriteToPeer(std::string(3 * kMaxLineBytes, 'x') + "\nafter\n");
  ASSERT_TRUE(h.WaitForOverflows(1));
  ASSERT_TRUE(h.WaitForLines(1));
  EXPECT_EQ(h.overflows(), 1);
  // The connection survived the protocol error: the next line arrives.
  EXPECT_EQ(h.lines(), (std::vector<std::string>{"after"}));
}

TEST(ConnectionTest, MaxLengthLineSurvivesCrAndLfInSeparateReads) {
  LoopThread loop;
  ConnectionHarness h(&loop);
  // The CR waits in the buffer for its LF, one byte past the limit, and
  // is stripped with it: the line is exactly kMaxLineBytes long.
  const std::string longest(kMaxLineBytes, 'a');
  h.WriteToPeer(longest + "\r");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  h.WriteToPeer("\n");
  ASSERT_TRUE(h.WaitForLines(1));
  EXPECT_EQ(h.lines(), (std::vector<std::string>{longest}));
  // One byte more is an overflow, however the terminator is split.
  h.WriteToPeer(longest + "a\r");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  h.WriteToPeer("\nafter\n");
  ASSERT_TRUE(h.WaitForLines(2));
  EXPECT_EQ(h.overflows(), 1);
  EXPECT_EQ(h.lines(), (std::vector<std::string>{longest, "after"}));
}

TEST(ConnectionTest, SendReachesPeerFromAnyThread) {
  LoopThread loop;
  ConnectionHarness h(&loop);
  h.conn()->Send("from-main\n");
  std::thread t([&] { h.conn()->Send("from-thread\n"); });
  t.join();
  const std::string got = h.ReadFromPeer(23);
  // Both arrive; relative order between concurrent senders is unspecified.
  EXPECT_NE(got.find("from-main\n"), std::string::npos);
  EXPECT_NE(got.find("from-thread\n"), std::string::npos);
}

TEST(ConnectionTest, BlockingSendAppliesBackpressureUntilPeerReads) {
  LoopThread loop;
  ConnectionHarness h(&loop);

  // A job thread streams far more than the high-water mark while the peer
  // reads nothing: it must park instead of buffering without bound.
  const std::string chunk(1024, 'y');
  // Comfortably above kernel socket buffering (~208 KiB default for unix
  // sockets) plus the 256 KiB high-water mark, so the producer must stall.
  const int kChunks = 2048;  // 2 MiB total.
  std::atomic<int> sent{0};
  std::thread producer([&] {
    for (int i = 0; i < kChunks; ++i) {
      if (!h.conn()->BlockingSend(chunk)) break;
      sent.fetch_add(1);
    }
  });

  // Socket buffer + high-water fills quickly; then the producer is stuck.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const int stalled_at = sent.load();
  EXPECT_LT(stalled_at, kChunks);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // Still stuck (within one chunk of slack for a race with the check).
  EXPECT_LE(sent.load(), stalled_at + 1);

  // Draining the peer releases the producer and every byte arrives.
  const std::string got = h.ReadFromPeer(chunk.size() * kChunks, 30000);
  producer.join();
  EXPECT_EQ(sent.load(), kChunks);
  EXPECT_EQ(got.size(), chunk.size() * kChunks);
}

TEST(ConnectionTest, BlockingSendReturnsFalseOnceClosed) {
  LoopThread loop;
  ConnectionHarness h(&loop);
  ASSERT_TRUE(loop.Posted([&] { h.conn()->Close(); }));
  ASSERT_TRUE(h.WaitForClose());
  EXPECT_FALSE(h.conn()->BlockingSend("too late\n"));
}

TEST(ConnectionTest, BlockingSendWaitersWakeOnClose) {
  LoopThread loop;
  ConnectionHarness h(&loop);
  std::atomic<bool> got_false{false};
  std::thread producer([&] {
    const std::string chunk(1024, 'z');
    while (h.conn()->BlockingSend(chunk)) {
    }
    got_false.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_TRUE(loop.Posted([&] { h.conn()->Close(); }));
  producer.join();  // Hangs forever if Close does not wake the waiter.
  EXPECT_TRUE(got_false.load());
}

TEST(ConnectionTest, CloseWhenDrainedFlushesEverythingThenCloses) {
  LoopThread loop;
  ConnectionHarness h(&loop);
  const std::string payload(64 * 1024, 'q');
  h.conn()->Send(payload);
  ASSERT_TRUE(loop.Posted([&] { h.conn()->CloseWhenDrained(); }));
  std::string got = h.ReadFromPeer(payload.size(), 15000);
  EXPECT_EQ(got.size(), payload.size());
  // After the drain the fd closes: the peer sees EOF.
  char buf[8];
  ssize_t n = -1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    n = ::recv(h.peer_fd(), buf, sizeof(buf), MSG_DONTWAIT);
    if (n >= 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(n, 0);
}

TEST(ConnectionTest, PausedReadsDeliverNothingUntilResume) {
  LoopThread loop;
  ConnectionHarness h(&loop);
  ASSERT_TRUE(loop.Posted([&] { h.conn()->PauseReads(); }));
  h.WriteToPeer("early\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Read readiness must not be force-delivered to an unsubscribed fd.
  EXPECT_TRUE(h.lines().empty());
  ASSERT_TRUE(loop.Posted([&] { h.conn()->ResumeReads(); }));
  ASSERT_TRUE(h.WaitForLines(1));
  EXPECT_EQ(h.lines(), (std::vector<std::string>{"early"}));
}

TEST(ConnectionTest, HangupClosesPausedConnectionWithoutDeliveringLines) {
  LoopThread loop;
  ConnectionHarness h(&loop);
  ASSERT_TRUE(loop.Posted([&] { h.conn()->PauseReads(); }));
  h.WriteToPeer("past-the-pause\n");
  h.ClosePeer();
  // Hangup reaches the connection despite the empty interest set: a
  // flow-controlled connection whose peer vanished must close rather
  // than sit parked forever...
  EXPECT_TRUE(h.WaitForClose());
  // ...and must not process input past the pause on the way out (the
  // replies would be undeliverable anyway).
  EXPECT_TRUE(h.lines().empty());
}

TEST(ConnectionTest, PeerDisconnectFiresCloseCallback) {
  LoopThread loop;
  ConnectionHarness h(&loop);
  h.WriteToPeer("last words\n");
  ASSERT_TRUE(h.WaitForLines(1));
  h.ClosePeer();
  EXPECT_TRUE(h.WaitForClose());
}

TEST(EventLoopTimerTest, RunAfterFiresOnLoopThread) {
  LoopThread loop;
  std::promise<bool> fired;
  ASSERT_TRUE(loop.Posted([&] {
    loop.loop().RunAfter(0.02, [&] {
      fired.set_value(loop.loop().InLoopThread());
    });
  }));
  auto future = fired.get_future();
  ASSERT_EQ(future.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_TRUE(future.get());
}

TEST(EventLoopTimerTest, CancelTimerPreventsFiring) {
  LoopThread loop;
  std::atomic<bool> fired{false};
  ASSERT_TRUE(loop.Posted([&] {
    const uint64_t id =
        loop.loop().RunAfter(0.05, [&] { fired.store(true); });
    loop.loop().CancelTimer(id);
    // Cancelling an already-cancelled (or never-armed) id is a no-op.
    loop.loop().CancelTimer(id);
    loop.loop().CancelTimer(99999);
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_FALSE(fired.load());
}

TEST(EventLoopTimerTest, TimersFireInDeadlineOrderNotArmOrder) {
  LoopThread loop;
  std::mutex mutex;
  std::vector<int> order;
  std::promise<void> all;
  ASSERT_TRUE(loop.Posted([&] {
    loop.loop().RunAfter(0.09, [&] {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(3);
      all.set_value();
    });
    loop.loop().RunAfter(0.02, [&] {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(1);
    });
    loop.loop().RunAfter(0.05, [&] {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(2);
    });
  }));
  ASSERT_EQ(all.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopTimerTest, TimerCallbackCanRearm) {
  LoopThread loop;
  auto count = std::make_shared<std::atomic<int>>(0);
  std::promise<void> twice;
  ASSERT_TRUE(loop.Posted([&] {
    // The self-rearming pattern the idle reaper uses: a firing callback
    // arms the next timer from inside FireDueTimers.
    loop.loop().RunAfter(0.01, [&] {
      count->fetch_add(1);
      loop.loop().RunAfter(0.01, [&] {
        count->fetch_add(1);
        twice.set_value();
      });
    });
  }));
  ASSERT_EQ(twice.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_EQ(count->load(), 2);
}

TEST(EventLoopTimerTest, DelaysPastTheClockRangeNeverFire) {
  // Regression: a delay whose nanosecond count overflows the clock's
  // integer range used to wrap the deadline into the past, so the timer
  // fired at once (a `--deadline=1e10` server answered every command
  // deadline-exceeded). Such deadlines saturate to "never"; a negative
  // delay is clamped to "now" instead.
  LoopThread loop;
  std::atomic<int> huge_fired{0};
  std::atomic<bool> negative_fired{false};
  std::promise<bool> short_fired;
  ASSERT_TRUE(loop.Posted([&] {
    loop.loop().RunAfter(1e300, [&] { huge_fired.fetch_add(1); });
    loop.loop().RunAfter(1e10, [&] { huge_fired.fetch_add(1); });
    loop.loop().RunAfter(-1.0, [&] { negative_fired.store(true); });
    loop.loop().RunAfter(0.01,
                         [&] { short_fired.set_value(negative_fired.load()); });
  }));
  auto short_future = short_fired.get_future();
  ASSERT_EQ(short_future.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_TRUE(short_future.get());
  // A few more loop passes: an overflowed deadline would have fired on
  // the first of them, ahead of the 10 ms timer.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(loop.Posted([] {}));
  EXPECT_EQ(huge_fired.load(), 0);
}

TEST(EventLoopTimerTest, SurvivesTransientPollFailure) {
  // Regression: a transient poll(2) errno (ENOMEM here, injected
  // at the net.loop.poll probe) used to CHECK-abort the loop thread. The
  // loop must log, back off, and keep dispatching.
  FaultSpec spec;
  spec.inject_errno = ENOMEM;
  spec.count = 3;
  ArmFault("net.loop.poll", spec);
  {
    LoopThread loop;
    std::atomic<bool> ran{false};
    EXPECT_TRUE(loop.Posted([&] { ran.store(true); }, /*timeout_ms=*/5000));
    EXPECT_TRUE(ran.load());
  }
  EXPECT_GE(FaultTriggerCount("net.loop.poll"), 1);
  DisarmAllFaults();
}

TEST(NetUtilTest, ListenerBindsEphemeralPortAndAcceptsConnect) {
  auto listener = CreateTcpListener("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  EXPECT_GT(listener.ValueOrDie().port, 0);
  auto client = ConnectTcp("127.0.0.1", listener.ValueOrDie().port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ::close(client.ValueOrDie());
  ::close(listener.ValueOrDie().fd);
}

TEST(NetUtilTest, RejectsHostThatIsNotIpv4) {
  auto listener = CreateTcpListener("localhost", 0);
  ASSERT_FALSE(listener.ok());
  EXPECT_EQ(listener.status().code(), StatusCode::kInvalidArgument);
  auto client = ConnectTcp("::1", 1);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetUtilTest, BindToListeningPortFails) {
  auto first = CreateTcpListener("127.0.0.1", 0);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = CreateTcpListener("127.0.0.1", first.ValueOrDie().port);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kIoError);
  EXPECT_NE(second.status().message().find("bind"), std::string::npos);
  ::close(first.ValueOrDie().fd);
}

TEST(NetUtilTest, ConnectToClosedPortFails) {
  auto listener = CreateTcpListener("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const uint16_t port = listener.ValueOrDie().port;
  ::close(listener.ValueOrDie().fd);
  auto client = ConnectTcp("127.0.0.1", port);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kIoError);
  EXPECT_NE(client.status().message().find("connect"), std::string::npos);
}

TEST(NetUtilTest, SocketOptionsOnInvalidFdFail) {
  EXPECT_EQ(SetNonBlocking(-1).code(), StatusCode::kIoError);
  EXPECT_EQ(SetTcpNoDelay(-1).code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace kgeval

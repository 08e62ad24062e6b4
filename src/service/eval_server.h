#ifndef KGEVAL_SERVICE_EVAL_SERVER_H_
#define KGEVAL_SERVICE_EVAL_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>

#include "net/event_loop.h"
#include "service/eval_service.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace kgeval {

/// The kgeval evaluation service over TCP: one event-loop thread owning
/// every socket, a small executor pool running commands, and the shared
/// worker pool underneath doing the actual scoring. docs/PROTOCOL.md is
/// the wire contract; docs/ARCHITECTURE.md places this layer in the stack.
///
/// Division of labor:
///  - Loop thread: accept, read, line framing, reply ordering, flushes.
///    It never evaluates anything, so the server stays responsive (PING,
///    STATS, new connections) while hours of SWEEP are in flight.
///  - Executor threads: one in-flight command per connection at most, so
///    pipelined requests on one connection answer strictly in request
///    order while different connections' commands run concurrently. The
///    evaluation inside fans out to the shared worker pool through the
///    scheduler's TaskGroups exactly like any other job.
///  - Streaming replies (SWEEP/WATCH ITEM lines) go through the
///    connection's blocking send: above the high-water mark the *job*
///    waits, never the loop.
class EvalServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 binds an ephemeral port; read the real one from port().
    uint16_t port = 0;
    /// 0 = max(2, worker-pool width). The cap on concurrently executing
    /// commands across all connections.
    size_t executor_threads = 0;
    /// Load-shedding cap on the executor backlog: a blocking command
    /// reaching the head of its connection's queue while this many
    /// commands already wait for an executor is answered `ERR busy`
    /// in-order instead of queued (0 = never shed). Keeps the backlog —
    /// and every client's worst-case wait — bounded under overload.
    size_t max_queued_commands = 256;
    /// Close connections idle this long — no traffic, nothing queued,
    /// nothing in flight (0 = never). Reaped connections count into the
    /// STATS `idle_closed` counter.
    double idle_timeout_s = 0.0;
    /// When non-empty, Start() runs `LOAD <preload_dataset>` to completion
    /// before the accept loop exists, so the first client can never
    /// observe a no-dataset window; a failed preload fails Start().
    std::string preload_dataset;
    /// Deadline armed for each blocking command (EVAL, SWEEP, WATCH; LOAD
    /// is exempt — dataset builds are not cancellation-threaded). When it
    /// fires, the command's CancelToken trips with Reason::kDeadline, the
    /// pass winds down cooperatively, and the client sees
    /// `ERR deadline-exceeded`. 0 disables deadlines.
    double deadline_s = 0.0;
  };

  /// Binds, starts the loop thread and executors, and begins accepting.
  static Result<std::unique_ptr<EvalServer>> Start(Options options);

  /// Stops accepting, closes every connection, interrupts in-flight
  /// WATCHes, and joins all threads. Idempotent; also run by ~EvalServer.
  void Shutdown();
  ~EvalServer();

  EvalServer(const EvalServer&) = delete;
  EvalServer& operator=(const EvalServer&) = delete;

  /// The bound port (the resolved one when Options::port was 0).
  uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

 private:
  struct Client;

  explicit EvalServer(Options options);
  Status Init();

  void HandleAccept() KGEVAL_REQUIRES(loop_.loop_cap);
  void OnLine(const std::shared_ptr<Client>& client, std::string_view line,
              bool overflow) KGEVAL_REQUIRES(loop_.loop_cap);
  void OnClose(const std::shared_ptr<Client>& client)
      KGEVAL_REQUIRES(loop_.loop_cap);
  /// Starts queued requests until one dispatches to an executor (or the
  /// queue drains). Loop thread only.
  void PumpClient(const std::shared_ptr<Client>& client)
      KGEVAL_REQUIRES(loop_.loop_cap);
  void UpdateClientFlowControl(const std::shared_ptr<Client>& client)
      KGEVAL_REQUIRES(loop_.loop_cap);
  /// Self-rearming idle-connection sweep (loop thread only); runs every
  /// idle_timeout_s / 2 while the loop is alive.
  void ScheduleIdleSweep() KGEVAL_REQUIRES(loop_.loop_cap);
  void ReapIdleClients() KGEVAL_REQUIRES(loop_.loop_cap);

  Options options_;
  /// Written once in Init() (before the loop thread exists), read-only
  /// afterwards: port() is callable from any thread.
  uint16_t port_ = 0;
  EventLoop loop_;
  int listen_fd_ KGEVAL_GUARDED_BY(loop_.loop_cap) = -1;
  std::unique_ptr<EvalService> service_;
  // kgeval-lint: allow(thread-containment): owned here; Shutdown() joins it.
  std::thread loop_thread_;
  /// Command executors: a pool of their own, apart from the scoring
  /// workers (see Init). Shutdown resets it, which runs the queued
  /// commands (they fail fast once connections close) and joins.
  std::unique_ptr<ThreadPool> executor_;
  /// Live clients; loop thread only. Shutdown closes them all (which is
  /// what wakes executors blocked on a slow client's backpressure).
  std::unordered_set<std::shared_ptr<Client>> clients_
      KGEVAL_GUARDED_BY(loop_.loop_cap);
  std::atomic<bool> shut_down_{false};
};

}  // namespace kgeval

#endif  // KGEVAL_SERVICE_EVAL_SERVER_H_

#ifndef KGEVAL_SERVICE_EVAL_SERVICE_H_
#define KGEVAL_SERVICE_EVAL_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/eval_session.h"
#include "eval/protocol.h"
#include "graph/dataset.h"
#include "service/command.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kgeval {

/// Service-wide counters behind the STATS verb. All atomics: command
/// execution is concurrent across connections, and the accept loop bumps
/// the connection counters from the event-loop thread.
struct ServiceCounters {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_open{0};
  std::atomic<uint64_t> commands{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> items_streamed{0};
  std::atomic<uint64_t> checkpoints_evaluated{0};
  std::atomic<uint64_t> in_flight{0};
  /// Commands answered `ERR busy` by the server's load shedder.
  std::atomic<uint64_t> shed{0};
  /// Commands abandoned because their deadline fired (`ERR
  /// deadline-exceeded`).
  std::atomic<uint64_t> deadlines_exceeded{0};
  /// Commands abandoned by a non-deadline cancellation (shutdown drain).
  std::atomic<uint64_t> cancelled{0};
  /// Connections closed by the idle reaper.
  std::atomic<uint64_t> idle_closed{0};
};

/// The verb implementations behind kgeval-server, separated from sockets:
/// Execute() consumes a parsed command and produces protocol reply lines
/// through an emit callback, so tests can drive the full command surface
/// without a connection and the server stays a thin dispatch layer.
///
/// Threading: Execute() runs on executor (job) threads, any number
/// concurrently. The loaded dataset/session state is swapped atomically
/// under a mutex and snapshotted per command as a shared_ptr, so a LOAD
/// replacing the state never invalidates an in-flight EVAL/SWEEP/WATCH —
/// the old session lives until its last command finishes.
class EvalService {
 public:
  /// The framework configuration LOAD builds sessions with. One definition
  /// shared by the service, perfbench and the tests: the served-parity
  /// gates reconstruct this exact session (same preset, same options, same
  /// seed, first pool draw) and demand identical metrics, which only
  /// means anything if nobody drifts.
  static FrameworkOptions ServiceFrameworkOptions();

  EvalService();
  ~EvalService() = default;

  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  /// Emits one complete reply line (no terminator; the transport appends
  /// it). Returns false when the receiver is gone — streaming verbs stop
  /// producing.
  using EmitFn = std::function<bool(const std::string& line)>;

  /// Executes any verb except QUIT (a transport concern), emitting every
  /// reply line including the terminal OK/DONE/ERR. Never throws; failures
  /// become ERR lines. `cancel` (optional; must outlive the call) lets the
  /// transport abandon a blocking verb mid-flight: a tripped token ends the
  /// command with `ERR deadline-exceeded` or `ERR cancelled` depending on
  /// its reason, never a partial OK.
  void Execute(const ParsedCommand& cmd, const EmitFn& emit,
               const CancelToken* cancel = nullptr);

  /// Makes in-flight WATCH polls return at their next wakeup (server
  /// shutdown must not wait out a client's timeout).
  void RequestShutdown() { shutting_down_.store(true); }
  bool shutting_down() const { return shutting_down_.load(); }

  ServiceCounters& counters() { return counters_; }

  /// Name of the loaded dataset, or "" before the first LOAD.
  std::string loaded_name() const;

 private:
  /// Everything a LOAD produces; commands snapshot one of these.
  struct Loaded {
    std::string name;
    Split split = Split::kTest;
    std::unique_ptr<SynthOutput> synth;  // Owns the Dataset (stable address).
    std::unique_ptr<FilterIndex> filter;
    std::unique_ptr<EvalSession> session;
  };

  std::shared_ptr<const Loaded> Snapshot() const KGEVAL_EXCLUDES(state_mutex_);

  void ExecuteLoad(const ParsedCommand& cmd, const EmitFn& emit);
  void ExecuteEval(const ParsedCommand& cmd, const EmitFn& emit,
                   const CancelToken* cancel);
  void ExecuteSweep(const ParsedCommand& cmd, const EmitFn& emit,
                    const CancelToken* cancel);
  void ExecuteWatch(const ParsedCommand& cmd, const EmitFn& emit,
                    const CancelToken* cancel);
  void ExecuteStats(const EmitFn& emit);

  /// emit() + error accounting; returns emit's verdict.
  bool EmitError(const EmitFn& emit, const std::string& code,
                 const std::string& message);

  /// One SWEEP/WATCH `ITEM` line for a checkpoint outcome (its metrics, or
  /// `ERR` with the load/evaluate failure) + item accounting; returns
  /// emit's verdict.
  bool EmitItem(const EmitFn& emit, size_t index,
                const CheckpointEstimate& outcome);

  /// Terminal ERR of a cancelled command: `deadline-exceeded` or
  /// `cancelled` depending on the token's reason, each bumping its own
  /// counter. `what` describes how far the command got.
  bool EmitCancelled(const EmitFn& emit, const CancelToken& cancel,
                     const std::string& what);

  ServiceCounters counters_;
  std::atomic<bool> shutting_down_{false};
  double start_seconds_;  // Monotonic epoch for uptime.

  mutable Mutex state_mutex_ KGEVAL_ACQUIRED_AFTER(load_mutex_);
  std::shared_ptr<const Loaded> state_ KGEVAL_GUARDED_BY(state_mutex_);
  /// Serializes LOAD builds, not readers; held across the whole build and
  /// therefore ordered strictly before the brief state_mutex_ publish.
  Mutex load_mutex_;
};

}  // namespace kgeval

#endif  // KGEVAL_SERVICE_EVAL_SERVICE_H_

#include "service/eval_service.h"

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>
#include <utility>

#include "la/kernels/kernels.h"
#include "service/checkpoint_watcher.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace kgeval {

namespace {

/// WATCH's timeout when the client omits one.
constexpr double kDefaultWatchTimeoutS = 30.0;
/// WATCH's directory poll interval.
constexpr int kWatchPollMs = 50;

/// Metric values are formatted with %.17g everywhere in the protocol:
/// round-trip exact for IEEE doubles, so "served value equals directly
/// computed value" is byte comparison, not epsilon comparison.
std::string Fmt(double v) { return StrFormat("%.17g", v); }

/// True when strtod reads all of `s`: a number, finite or not.
bool IsNumber(const std::string& s) {
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0';
}

/// Parses all of `s` as a finite double. NaN fails every range comparison,
/// so a range check alone would let `nan` through.
bool ParseDouble(const std::string& s, double* out) {
  if (!IsNumber(s)) return false;
  const double v = std::strtod(s.c_str(), nullptr);
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool ParseInt(const std::string& s, int64_t* out) {
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || end == s.c_str()) return false;
  *out = v;
  return true;
}

/// The EVAL reply line; adaptive requests append their stopping outcome.
std::string EvalReply(const EstimateResult& r, bool adaptive) {
  std::string reply = StrFormat(
      "OK mrr=%s ci=%s hits1=%s hits3=%s hits10=%s queries=%lld scored=%lld "
      "eval_s=%.6f",
      Fmt(r.metrics.mrr).c_str(), Fmt(r.ci.mrr).c_str(),
      Fmt(r.metrics.hits1).c_str(), Fmt(r.metrics.hits3).c_str(),
      Fmt(r.metrics.hits10).c_str(),
      static_cast<long long>(r.metrics.num_queries),
      static_cast<long long>(r.scored_candidates), r.eval_seconds);
  if (adaptive) {
    reply += StrFormat(" converged=%d rounds=%lld", r.converged ? 1 : 0,
                       static_cast<long long>(r.rounds));
  }
  return reply;
}

}  // namespace

FrameworkOptions EvalService::ServiceFrameworkOptions() {
  // Deliberately explicit, not just FrameworkOptions{}: these values are
  // part of the service contract (PROTOCOL.md "LOAD") and the load bench's
  // parity gate reconstructs them.
  FrameworkOptions options;
  options.recommender = RecommenderType::kLwd;
  options.strategy = SamplingStrategy::kProbabilistic;
  options.sample_fraction = 0.1;
  options.seed = 33;
  return options;
}

EvalService::EvalService()
    : start_seconds_(
          std::chrono::duration<double>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count()) {}

std::shared_ptr<const EvalService::Loaded> EvalService::Snapshot() const {
  MutexLock lock(&state_mutex_);
  return state_;
}

std::string EvalService::loaded_name() const {
  auto state = Snapshot();
  return state == nullptr ? std::string() : state->name;
}

bool EvalService::EmitError(const EmitFn& emit, const std::string& code,
                            const std::string& message) {
  counters_.errors.fetch_add(1, std::memory_order_relaxed);
  return emit(StrFormat("ERR %s %s", code.c_str(), message.c_str()));
}

bool EvalService::EmitCancelled(const EmitFn& emit, const CancelToken& cancel,
                                const std::string& what) {
  if (cancel.reason() == CancelToken::Reason::kDeadline) {
    counters_.deadlines_exceeded.fetch_add(1, std::memory_order_relaxed);
    return EmitError(emit, "deadline-exceeded", what);
  }
  counters_.cancelled.fetch_add(1, std::memory_order_relaxed);
  return EmitError(emit, "cancelled", what);
}

bool EvalService::EmitItem(const EmitFn& emit, size_t index,
                           const CheckpointEstimate& outcome) {
  counters_.items_streamed.fetch_add(1, std::memory_order_relaxed);
  if (!outcome.status.ok()) {
    return emit(StrFormat("ITEM %zu ERR %s", index,
                          outcome.status.message().c_str()));
  }
  counters_.checkpoints_evaluated.fetch_add(1, std::memory_order_relaxed);
  return emit(StrFormat("ITEM %zu %s %s", index,
                        Fmt(outcome.result.metrics.mrr).c_str(),
                        Fmt(outcome.result.ci.mrr).c_str()));
}

void EvalService::Execute(const ParsedCommand& cmd, const EmitFn& emit,
                          const CancelToken* cancel) {
  KGEVAL_CHECK(cmd.spec != nullptr);
  counters_.commands.fetch_add(1, std::memory_order_relaxed);
  counters_.in_flight.fetch_add(1, std::memory_order_relaxed);
  switch (cmd.spec->verb) {
    case Verb::kPing:
      emit("OK pong");
      break;
    case Verb::kLoad:
      ExecuteLoad(cmd, emit);
      break;
    case Verb::kEval:
      ExecuteEval(cmd, emit, cancel);
      break;
    case Verb::kSweep:
      ExecuteSweep(cmd, emit, cancel);
      break;
    case Verb::kWatch:
      ExecuteWatch(cmd, emit, cancel);
      break;
    case Verb::kStats:
      ExecuteStats(emit);
      break;
    case Verb::kQuit:
      // Transport-level; the server handles it before dispatch.
      EmitError(emit, "internal", "QUIT reached the service");
      break;
  }
  counters_.in_flight.fetch_sub(1, std::memory_order_relaxed);
}

void EvalService::ExecuteLoad(const ParsedCommand& cmd, const EmitFn& emit) {
  const std::string& name = cmd.args[0];
  Split split = Split::kTest;
  if (cmd.args.size() > 1) {
    std::string s = cmd.args[1];
    for (char& c : s) c = static_cast<char>(std::tolower(c));
    if (s == "valid") {
      split = Split::kValid;
    } else if (s == "test") {
      split = Split::kTest;
    } else {
      EmitError(emit, "bad-argument",
                StrFormat("split must be valid|test, got %s",
                          cmd.args[1].c_str()));
      return;
    }
  }
  // Always the scaled preset: it keeps LOAD in interactive territory;
  // paper scale is minutes.
  auto config = GetPreset(name, PresetScale::kScaled);
  if (!config.ok()) {
    EmitError(emit, "bad-argument", config.status().message());
    return;
  }
  WallTimer timer;
  // One LOAD builds at a time: two clients racing LOADs would each burn a
  // recommender fit only for one result to be dropped.
  MutexLock load_lock(&load_mutex_);
  auto loaded = std::make_shared<Loaded>();
  loaded->name = name;
  auto synth = GenerateDataset(config.ValueOrDie());
  if (!synth.ok()) {
    EmitError(emit, "internal", synth.status().message());
    return;
  }
  loaded->synth =
      std::make_unique<SynthOutput>(std::move(synth).ValueOrDie());
  loaded->filter = std::make_unique<FilterIndex>(loaded->synth->dataset);
  auto session =
      EvalSession::Create(&loaded->synth->dataset, loaded->filter.get(),
                          ServiceFrameworkOptions(), split);
  if (!session.ok()) {
    EmitError(emit, "internal", session.status().message());
    return;
  }
  loaded->session = std::move(session).ValueOrDie();
  const Dataset& dataset = loaded->synth->dataset;
  const int64_t sample_size = loaded->session->framework().SampleSize();
  const Split loaded_split = loaded->session->split();
  {
    MutexLock lock(&state_mutex_);
    state_ = std::move(loaded);
  }
  auto state = Snapshot();
  emit(StrFormat(
      "OK dataset=%s split=%s entities=%d relations=%d train=%lld "
      "eval_triples=%lld sample_size=%lld build_s=%.3f",
      name.c_str(), loaded_split == Split::kValid ? "valid" : "test",
      dataset.num_entities(), dataset.num_relations(),
      static_cast<long long>(dataset.train().size()),
      static_cast<long long>(dataset.split(loaded_split).size()),
      static_cast<long long>(sample_size), timer.Seconds()));
}

void EvalService::ExecuteEval(const ParsedCommand& cmd, const EmitFn& emit,
                              const CancelToken* cancel) {
  auto state = Snapshot();
  if (state == nullptr) {
    EmitError(emit, "no-dataset", "LOAD a dataset before EVAL");
    return;
  }
  // Optional arguments, in order: a numeric half_width (switching to the
  // adaptive estimator), then a protocol name. A lone non-numeric token is
  // a protocol name. Wire version 1 documents two names, `static` and
  // `temporal`; both rank against the one filter (docs/PROTOCOL.md).
  EstimateRequest request;
  request.cancel = cancel;
  double half_width = 0.0;
  size_t arg = 1;
  if (cmd.args.size() > 1 && IsNumber(cmd.args[1])) {
    if (!ParseDouble(cmd.args[1], &half_width) || half_width <= 0.0 ||
        half_width >= 1.0) {
      EmitError(emit, "bad-argument",
                StrFormat("half_width must be finite and in (0, 1), got %s",
                          cmd.args[1].c_str()));
      return;
    }
    request.adaptive.emplace();
    request.adaptive->target_half_width = half_width;
    arg = 2;
  }
  if (arg < cmd.args.size()) {
    const std::string& protocol_name = cmd.args[arg];
    if (arg + 1 < cmd.args.size()) {
      EmitError(emit, "bad-argument",
                StrFormat("unexpected argument %s (half_width must precede "
                          "the protocol name)",
                          cmd.args[arg + 1].c_str()));
      return;
    }
    if (protocol_name != "static" && protocol_name != "temporal") {
      EmitError(emit, "unknown-protocol",
                StrFormat("protocol must be static|temporal, got %s",
                          protocol_name.c_str()));
      return;
    }
  }
  auto result = state->session->framework().EstimateCheckpointOnPools(
      cmd.args[0], *state->filter, state->session->split(),
      state->session->pools(), request);
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kCancelled &&
        cancel != nullptr) {
      EmitCancelled(emit, *cancel, result.status().message());
    } else {
      EmitError(emit, "eval-failed", result.status().message());
    }
    return;
  }
  counters_.checkpoints_evaluated.fetch_add(1, std::memory_order_relaxed);
  emit(EvalReply(result.ValueOrDie(), request.adaptive.has_value()));
}

void EvalService::ExecuteSweep(const ParsedCommand& cmd, const EmitFn& emit,
                               const CancelToken* cancel) {
  auto state = Snapshot();
  if (state == nullptr) {
    EmitError(emit, "no-dataset", "LOAD a dataset before SWEEP");
    return;
  }
  auto paths = ListCheckpointFiles(cmd.args[0]);
  if (!paths.ok()) {
    EmitError(emit, "io", paths.status().message());
    return;
  }
  // ITEM lines ride the sweep's serialized progress callback: they stream
  // in completion order as snapshots finish, each tagged with its input-
  // order index. A dead client flips `live` and the remaining callbacks
  // stop emitting (the sweep itself runs to completion — evaluation work
  // is shared-pool work that cannot be yanked mid-chunk). Cancelled
  // outcomes are the sweep winding down, not per-item failures: their ITEM
  // lines are suppressed and the terminal line reports the abandonment.
  bool live = true;
  size_t emitted = 0;
  CheckpointSweepStats stats;
  EstimateRequest request;
  request.cancel = cancel;
  state->session->EstimateCheckpoints(
      paths.ValueOrDie(), request,
      [&](size_t index, const CheckpointEstimate& outcome) {
        if (!live) return;
        if (outcome.status.code() == StatusCode::kCancelled) return;
        ++emitted;
        live = EmitItem(emit, index, outcome);
      },
      &stats);
  if (!live) return;
  if (cancel != nullptr && cancel->cancelled()) {
    EmitCancelled(emit, *cancel,
                  StrFormat("sweep abandoned after %zu of %zu checkpoints",
                            emitted, paths.ValueOrDie().size()));
    return;
  }
  emit(StrFormat("DONE %zu failed=%zu max_resident=%zu wall_s=%.6f",
                 paths.ValueOrDie().size(), stats.failed,
                 stats.max_resident_models, stats.wall_seconds));
}

void EvalService::ExecuteWatch(const ParsedCommand& cmd, const EmitFn& emit,
                               const CancelToken* cancel) {
  auto state = Snapshot();
  if (state == nullptr) {
    EmitError(emit, "no-dataset", "LOAD a dataset before WATCH");
    return;
  }
  int64_t count = 0;
  if (!ParseInt(cmd.args[1], &count) || count < 1 || count > 1000000) {
    EmitError(emit, "bad-argument",
              StrFormat("count must be in [1, 1000000], got %s",
                        cmd.args[1].c_str()));
    return;
  }
  double timeout_s = kDefaultWatchTimeoutS;
  if (cmd.args.size() > 2) {
    if (!ParseDouble(cmd.args[2], &timeout_s) || timeout_s <= 0.0 ||
        timeout_s > 3600.0) {
      EmitError(emit, "bad-argument",
                StrFormat("timeout_s must be finite and in (0, 3600], got %s",
                          cmd.args[2].c_str()));
      return;
    }
  }
  EstimateRequest request;
  request.cancel = cancel;
  CheckpointWatcher watcher(cmd.args[0]);
  WallTimer timer;
  int64_t delivered = 0;
  bool timed_out = false;
  const auto abandoned = [&] {
    EmitCancelled(emit, *cancel,
                  StrFormat("watch abandoned after %lld of %lld items",
                            static_cast<long long>(delivered),
                            static_cast<long long>(count)));
  };
  while (delivered < count) {
    if (cancel != nullptr && cancel->cancelled()) {
      abandoned();
      return;
    }
    if (timer.Seconds() >= timeout_s || shutting_down()) {
      timed_out = true;
      break;
    }
    auto fresh = watcher.Poll();
    if (!fresh.ok()) {
      EmitError(emit, "io", fresh.status().message());
      return;
    }
    std::vector<std::string> paths = std::move(fresh).ValueOrDie();
    if (paths.size() > static_cast<size_t>(count - delivered)) {
      paths.resize(static_cast<size_t>(count - delivered));
    }
    // The poll's checkpoints are estimated together, like a SWEEP, and
    // their ITEMs written in input order once all are done. A partially-
    // written or corrupt snapshot is one ERR item, claimed forever (the
    // watcher never re-delivers), and the watch goes on.
    for (const CheckpointEstimate& outcome :
         state->session->EstimateCheckpoints(paths, request)) {
      if (outcome.status.code() == StatusCode::kCancelled &&
          cancel != nullptr) {
        abandoned();
        return;
      }
      if (!EmitItem(emit, static_cast<size_t>(delivered++), outcome)) return;
    }
    if (delivered < count) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kWatchPollMs));
    }
  }
  emit(StrFormat("DONE %lld timeout=%d", static_cast<long long>(delivered),
                 timed_out ? 1 : 0));
}

void EvalService::ExecuteStats(const EmitFn& emit) {
  const double uptime =
      std::chrono::duration<double>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count() -
      start_seconds_;
  const std::string name = loaded_name();
  emit(StrFormat(
      "OK uptime_s=%.3f dataset=%s connections=%llu accepted=%llu "
      "commands=%llu errors=%llu items=%llu evals=%llu in_flight=%llu "
      "shed=%llu deadlines=%llu cancelled=%llu idle_closed=%llu "
      "threads=%zu kernels=%s",
      uptime, name.empty() ? "-" : name.c_str(),
      static_cast<unsigned long long>(counters_.connections_open.load()),
      static_cast<unsigned long long>(counters_.connections_accepted.load()),
      static_cast<unsigned long long>(counters_.commands.load()),
      static_cast<unsigned long long>(counters_.errors.load()),
      static_cast<unsigned long long>(counters_.items_streamed.load()),
      static_cast<unsigned long long>(counters_.checkpoints_evaluated.load()),
      static_cast<unsigned long long>(counters_.in_flight.load()),
      static_cast<unsigned long long>(counters_.shed.load()),
      static_cast<unsigned long long>(counters_.deadlines_exceeded.load()),
      static_cast<unsigned long long>(counters_.cancelled.load()),
      static_cast<unsigned long long>(counters_.idle_closed.load()),
      GlobalThreadPool()->num_threads(), ActiveScoreKernelName()));
}

}  // namespace kgeval

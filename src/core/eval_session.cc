#include "core/eval_session.h"

#include <atomic>
#include <utility>

#include "sched/task_group.h"
#include "util/mutex.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kgeval {

EvalSession::EvalSession(std::unique_ptr<EvaluationFramework> framework,
                         const FilterIndex* filter, Split split)
    : framework_(std::move(framework)), filter_(filter), split_(split) {
  KGEVAL_CHECK(framework_ != nullptr);
  KGEVAL_CHECK(filter_ != nullptr);
  pools_ = framework_->DrawPools(split_);
}

Result<std::unique_ptr<EvalSession>> EvalSession::Create(
    const Dataset* dataset, const FilterIndex* filter,
    const FrameworkOptions& options, Split split) {
  if (filter == nullptr) {
    return Status::InvalidArgument("filter is null");
  }
  auto framework = EvaluationFramework::Build(dataset, options);
  if (!framework.ok()) return framework.status();
  return {std::unique_ptr<EvalSession>(new EvalSession(
      std::move(framework).ValueOrDie(), filter, split))};
}

EstimateResult EvalSession::Estimate(const KgeModel& model,
                                     const EstimateRequest& request) const {
  return framework_->EstimateOnPools(model, *filter_, split_, pools_, request);
}

std::vector<CheckpointEstimate> EvalSession::EstimateCheckpoints(
    const std::vector<std::string>& paths, const EstimateRequest& request,
    const CheckpointProgressFn& progress, CheckpointSweepStats* stats) const {
  // RunJobsConcurrently caps in-flight jobs at the worker count, and each
  // job holds one model, so the resident-model count is bounded the same
  // way.
  WallTimer timer;
  std::vector<CheckpointEstimate> outcomes(paths.size());
  std::atomic<size_t> resident{0};
  std::atomic<size_t> high_water{0};
  std::atomic<size_t> failed{0};
  // Serializes the user's progress callback: jobs finish on
  // concurrent job threads, but the stream must never interleave.
  Mutex progress_mutex;
  RunJobsConcurrently(paths.size(), [&](size_t i) {
    // Counted resident across the whole call: a model being deserialized
    // already occupies its full embedding tables, so the high-water mark
    // must see it before the load returns. The call frees the model before
    // returning, so progress never extends a model's residency.
    const size_t now = resident.fetch_add(1) + 1;
    size_t seen = high_water.load();
    while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
    }
    auto result_or = framework_->EstimateCheckpointOnPools(
        paths[i], *filter_, split_, pools_, request);
    resident.fetch_sub(1);
    if (result_or.ok()) {
      outcomes[i].result = std::move(result_or).ValueOrDie();
    } else {
      outcomes[i].status = result_or.status();
      failed.fetch_add(1, std::memory_order_relaxed);
    }
    if (progress) {
      MutexLock lock(&progress_mutex);
      progress(i, outcomes[i]);
    }
  });
  if (stats != nullptr) {
    stats->max_resident_models = high_water.load();
    stats->failed = failed.load();
    stats->wall_seconds = timer.Seconds();
  }
  return outcomes;
}

std::vector<CheckpointEstimate> EvalSession::EstimateCheckpoints(
    const std::vector<std::string>& paths, int64_t max_triples,
    const CheckpointProgressFn& progress, CheckpointSweepStats* stats) const {
  return EstimateCheckpoints(
      paths, EstimateRequest{max_triples, nullptr, std::nullopt}, progress,
      stats);
}

}  // namespace kgeval

#include "core/eval_session.h"

#include <atomic>
#include <utility>

#include "sched/task_group.h"
#include "util/mutex.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kgeval {
namespace {

/// The shared core of both checkpoint sweeps: loads each path on a job
/// thread (RunJobsConcurrently caps in-flight jobs at the worker count, so
/// with one model per job the resident-model count is bounded the same
/// way), evaluates it through `eval`, records the outcome, frees the model
/// *before* streaming progress, and tracks the resident high-water mark.
/// `Outcome` is CheckpointEstimate or its adaptive twin; `eval(model)`
/// returns the matching result type.
template <typename Outcome, typename Eval>
std::vector<Outcome> SweepCheckpoints(
    const EvaluationFramework& framework,
    const std::vector<std::string>& paths, const Eval& eval,
    const std::function<void(size_t, const Outcome&)>& progress,
    CheckpointSweepStats* stats, const CancelToken* cancel) {
  WallTimer timer;
  std::vector<Outcome> outcomes(paths.size());
  std::atomic<size_t> resident{0};
  std::atomic<size_t> high_water{0};
  std::atomic<size_t> failed{0};
  // Serializes the user's progress callback: jobs finish on
  // concurrent job threads, but the stream must never interleave.
  Mutex progress_mutex;
  RunJobsConcurrently(paths.size(), [&](size_t i) {
    // Checked before the load so a cancelled sweep stops paying the
    // expensive part immediately; passes already in flight wind down
    // through the token threaded into eval().
    if (cancel != nullptr && cancel->cancelled()) {
      outcomes[i].status = Status::Cancelled("sweep cancelled");
      failed.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Counted resident across the load itself: a model being
      // deserialized already occupies its full embedding tables, so the
      // high-water mark must see it before LoadCheckpoint returns.
      const size_t now = resident.fetch_add(1) + 1;
      size_t seen = high_water.load();
      while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
      }
      auto model_or = framework.LoadCheckpoint(paths[i]);
      if (!model_or.ok()) {
        resident.fetch_sub(1);
        outcomes[i].status = model_or.status();
        failed.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::unique_ptr<KgeModel> model = std::move(model_or).ValueOrDie();
        outcomes[i].result = eval(*model);
        model.reset();  // Freed before progress runs: the callback must
                        // never extend a model's residency.
        resident.fetch_sub(1);
        if (outcomes[i].result.cancelled) {
          outcomes[i].status = Status::Cancelled("evaluation cancelled");
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
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

}  // namespace

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

SampledEvalResult EvalSession::Estimate(const KgeModel& model,
                                        int64_t max_triples,
                                        const CancelToken* cancel) const {
  return framework_->EstimateOnPools(model, *filter_, split_, pools_,
                                     max_triples, cancel);
}

std::vector<SampledEvalResult> EvalSession::EstimateMany(
    const std::vector<const KgeModel*>& models, int64_t max_triples) const {
  std::vector<SampledEvalResult> results(models.size());
  RunJobsConcurrently(models.size(), [&](size_t i) {
    KGEVAL_CHECK(models[i] != nullptr);
    results[i] = Estimate(*models[i], max_triples);
  });
  return results;
}

AdaptiveEvalResult EvalSession::EstimateAdaptive(
    const KgeModel& model, const AdaptiveEvalOptions& adaptive,
    const CancelToken* cancel) const {
  return framework_->EstimateAdaptiveOnPools(model, *filter_, split_, pools_,
                                             adaptive, cancel);
}

std::vector<AdaptiveEvalResult> EvalSession::EstimateAdaptiveMany(
    const std::vector<const KgeModel*>& models,
    const AdaptiveEvalOptions& adaptive) const {
  std::vector<AdaptiveEvalResult> results(models.size());
  RunJobsConcurrently(models.size(), [&](size_t i) {
    KGEVAL_CHECK(models[i] != nullptr);
    results[i] = EstimateAdaptive(*models[i], adaptive);
  });
  return results;
}

std::vector<CheckpointEstimate> EvalSession::EstimateCheckpoints(
    const std::vector<std::string>& paths, int64_t max_triples,
    const CheckpointProgressFn& progress, CheckpointSweepStats* stats,
    const CancelToken* cancel) const {
  return SweepCheckpoints<CheckpointEstimate>(
      *framework_, paths,
      [&](const KgeModel& model) {
        return Estimate(model, max_triples, cancel);
      },
      progress, stats, cancel);
}

std::vector<CheckpointAdaptiveEstimate> EvalSession::EstimateAdaptiveCheckpoints(
    const std::vector<std::string>& paths,
    const AdaptiveEvalOptions& adaptive,
    const CheckpointAdaptiveProgressFn& progress, CheckpointSweepStats* stats,
    const CancelToken* cancel) const {
  return SweepCheckpoints<CheckpointAdaptiveEstimate>(
      *framework_, paths,
      [&](const KgeModel& model) {
        return EstimateAdaptive(model, adaptive, cancel);
      },
      progress, stats, cancel);
}

void EvalSession::RedrawPools() { pools_ = framework_->DrawPools(split_); }

}  // namespace kgeval

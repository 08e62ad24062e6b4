#include "core/framework.h"

#include <cmath>
#include <utility>

#include "models/checkpoint.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace kgeval {

EvaluationFramework::EvaluationFramework(const Dataset* dataset,
                                         FrameworkOptions options)
    : dataset_(dataset), options_(options), rng_(options.seed) {}

Result<std::unique_ptr<EvaluationFramework>> EvaluationFramework::Build(
    const Dataset* dataset, const FrameworkOptions& options) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("dataset is null");
  }
  if (options.sample_fraction <= 0.0) {
    return Status::InvalidArgument("sample fraction must be positive");
  }
  std::unique_ptr<EvaluationFramework> fw(
      new EvaluationFramework(dataset, options));
  WallTimer timer;
  if (options.strategy != SamplingStrategy::kRandom) {
    auto recommender = CreateRecommender(options.recommender, options.seed);
    if (recommender == nullptr) {
      return Status::InvalidArgument("unknown recommender");
    }
    auto scores = recommender->Fit(*dataset);
    if (!scores.ok()) return scores.status();
    fw->scores_ = std::move(scores).ValueOrDie();
    if (options.strategy == SamplingStrategy::kStatic) {
      fw->sets_ = BuildStaticSets(fw->scores_, *dataset);
    } else {
      fw->sets_ = BuildProbabilisticSets(fw->scores_, *dataset);
    }
  }
  fw->build_seconds_ = timer.Seconds();
  return {std::move(fw)};
}

int64_t EvaluationFramework::SampleSize() const {
  return static_cast<int64_t>(std::llround(
      options_.sample_fraction * dataset_->num_entities()));
}

SampledCandidates EvaluationFramework::DrawPools(Split split) {
  const std::vector<int32_t> slots = NeededSlots(*dataset_, split);
  const CandidateSets* sets =
      options_.strategy == SamplingStrategy::kRandom ? nullptr : &sets_;
  return DrawCandidates(options_.strategy, sets, dataset_->num_entities(),
                        SampleSize(), slots, 2 * dataset_->num_relations(),
                        &rng_);
}

SampledEvalResult EvaluationFramework::Estimate(const KgeModel& model,
                                                const FilterIndex& filter,
                                                Split split,
                                                int64_t max_triples) {
  return EstimateOnPools(model, filter, split, DrawPools(split), max_triples);
}

SampledEvalResult EvaluationFramework::EstimateOnPools(
    const KgeModel& model, const FilterIndex& filter, Split split,
    const SampledCandidates& pools, int64_t max_triples,
    const CancelToken* cancel) const {
  SampledEvalOptions eval_options;
  eval_options.max_triples = max_triples;
  eval_options.cancel = cancel;
  return EvaluateSampled(model, *dataset_, filter, split, pools, eval_options);
}

AdaptiveEvalResult EvaluationFramework::EstimateAdaptive(
    const KgeModel& model, const FilterIndex& filter, Split split,
    const AdaptiveEvalOptions& adaptive) {
  return EstimateAdaptiveOnPools(model, filter, split, DrawPools(split),
                                 adaptive);
}

AdaptiveEvalResult EvaluationFramework::EstimateAdaptiveOnPools(
    const KgeModel& model, const FilterIndex& filter, Split split,
    const SampledCandidates& pools, const AdaptiveEvalOptions& adaptive,
    const CancelToken* cancel) const {
  AdaptiveEvalOptions eval_options = adaptive;
  if (cancel != nullptr) eval_options.cancel = cancel;
  return EvaluateAdaptive(model, *dataset_, filter, split, pools, eval_options);
}

namespace {

/// A checkpointed model must describe this dataset's graph: mismatched
/// counts would index out of the pools (head/tail ids beyond the model's
/// embedding table) instead of failing cleanly.
Status CheckCheckpointShape(const KgeModel& model, const Dataset& dataset,
                            const std::string& path) {
  if (model.num_entities() != dataset.num_entities() ||
      model.num_relations() != dataset.num_relations()) {
    return Status::InvalidArgument(StrFormat(
        "%s: checkpoint is for %d entities / %d relations, dataset has "
        "%d / %d",
        path.c_str(), model.num_entities(), model.num_relations(),
        dataset.num_entities(), dataset.num_relations()));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<KgeModel>> EvaluationFramework::LoadCheckpoint(
    const std::string& path) const {
  auto model_or = LoadModel(path);
  if (!model_or.ok()) return model_or.status();
  std::unique_ptr<KgeModel> model = std::move(model_or).ValueOrDie();
  KGEVAL_RETURN_NOT_OK(CheckCheckpointShape(*model, *dataset_, path));
  return {std::move(model)};
}

Result<SampledEvalResult> EvaluationFramework::EstimateCheckpointOnPools(
    const std::string& path, const FilterIndex& filter, Split split,
    const SampledCandidates& pools, int64_t max_triples,
    const CancelToken* cancel) const {
  // Checked before the load (the expensive part most worth skipping) and
  // again on the pass result, so a token that fires at any point turns the
  // call into kCancelled instead of returning partial metrics.
  if (cancel != nullptr && cancel->cancelled()) {
    return Status::Cancelled("cancelled before checkpoint load");
  }
  auto model_or = LoadCheckpoint(path);
  if (!model_or.ok()) return model_or.status();
  SampledEvalResult result = EstimateOnPools(*model_or.ValueOrDie(), filter,
                                             split, pools, max_triples,
                                             cancel);
  if (result.cancelled) return Status::Cancelled("evaluation cancelled");
  return {std::move(result)};
}

Result<AdaptiveEvalResult>
EvaluationFramework::EstimateAdaptiveCheckpointOnPools(
    const std::string& path, const FilterIndex& filter, Split split,
    const SampledCandidates& pools, const AdaptiveEvalOptions& adaptive,
    const CancelToken* cancel) const {
  if (cancel != nullptr && cancel->cancelled()) {
    return Status::Cancelled("cancelled before checkpoint load");
  }
  auto model_or = LoadCheckpoint(path);
  if (!model_or.ok()) return model_or.status();
  AdaptiveEvalResult result = EstimateAdaptiveOnPools(
      *model_or.ValueOrDie(), filter, split, pools, adaptive, cancel);
  if (result.cancelled) return Status::Cancelled("evaluation cancelled");
  return {std::move(result)};
}

}  // namespace kgeval

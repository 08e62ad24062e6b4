#ifndef KGEVAL_CORE_FRAMEWORK_H_
#define KGEVAL_CORE_FRAMEWORK_H_

#include <memory>

#include "core/candidate_sets.h"
#include "core/sampled_evaluator.h"
#include "core/samplers.h"
#include "recommenders/recommender.h"
#include "util/status.h"

namespace kgeval {

/// Configuration of the end-to-end evaluation framework (Figure 1 B):
/// which relation recommender guides the sampling, which sampling strategy
/// draws the pools, and how many candidates to draw per slot. Candidate
/// sets always include the train-observed entities, and estimates break
/// ties with TieBreak::kMean.
struct FrameworkOptions {
  RecommenderType recommender = RecommenderType::kLwd;
  SamplingStrategy strategy = SamplingStrategy::kProbabilistic;
  /// n_s = round(sample_fraction * |E|).
  double sample_fraction = 0.1;
  uint64_t seed = 33;
};

/// The paper's contribution as a reusable object: fit a relation
/// recommender once, derive candidate sets once, then estimate the filtered
/// ranking metrics of *any* KGC model in a fraction of the full-ranking
/// cost. Each Estimate() call redraws fresh pools (2|R| samplings); to pin
/// one draw across many models/checkpoints, wrap the framework in an
/// EvalSession (core/eval_session.h) or pair DrawPools() with the
/// *OnPools() calls below.
class EvaluationFramework {
 public:
  /// Fits the recommender on dataset.train() and prepares the candidate
  /// sets. The dataset must outlive the framework.
  static Result<std::unique_ptr<EvaluationFramework>> Build(
      const Dataset* dataset, const FrameworkOptions& options);

  /// Draws one set of candidate pools for `split`, exactly the way
  /// Estimate() does internally (2|R| samplings, advancing the framework's
  /// RNG: consecutive draws differ, each is deterministic given the seed
  /// and the draw count so far).
  SampledCandidates DrawPools(Split split);

  /// Estimates the filtered metrics of `model` on `split`, filtering the known
  /// answers of `filter` (eval/protocol.h), as `request` asks (a fixed pass,
  /// or an adaptive one; see EvaluateSampled). `request.max_triples`
  /// (0 = all) evaluates only the split's deterministic prefix, matching
  /// FullEvalOptions::max_triples for apples-to-apples comparisons.
  /// Equivalent to EstimateOnPools(model, filter, split, DrawPools(split),
  /// request).
  EstimateResult Estimate(const KgeModel& model, const FilterIndex& filter,
                          Split split, const EstimateRequest& request = {});

  /// Estimate() on caller-provided pools (a pinned DrawPools() result): scores
  /// `model` against `pools` without drawing anything, so repeated calls are
  /// comparable — rank differences between models are model differences, not
  /// pool-draw noise. Const and thread-safe: concurrent calls with different
  /// models are how an EvalSession serves several clients. A fired
  /// `request.cancel` aborts the pass at the next block boundary; the result
  /// comes back flagged `cancelled`.
  EstimateResult EstimateOnPools(const KgeModel& model,
                                 const FilterIndex& filter, Split split,
                                 const SampledCandidates& pools,
                                 const EstimateRequest& request = {}) const;

  /// Loads the checkpoint at `path` (models/checkpoint.h) and validates it
  /// against the framework's dataset: mismatched entity/relation counts
  /// would index past the model's embedding tables during scoring, so they
  /// fail here as InvalidArgument instead. The load step of
  /// EstimateCheckpointOnPools, public for callers that keep the model
  /// (perfbench times loads with it). Const and thread-safe.
  Result<std::unique_ptr<KgeModel>> LoadCheckpoint(
      const std::string& path) const;

  /// LoadCheckpoint + EstimateOnPools: loads the checkpoint at `path`,
  /// estimates it on caller-provided pools, and frees the model before
  /// returning. The one load→estimate→cancel path of every checkpoint
  /// caller: the service's EVAL calls it once, and
  /// EvalSession::EstimateCheckpoints (SWEEP, WATCH) once per path, wrapped
  /// in its residency accounting. A load failure (missing, corrupt, or
  /// truncated file) or a dataset mismatch comes back as the Status, never
  /// a crash. Const and thread-safe like EstimateOnPools. A
  /// `request.cancel` token that fires before the load or during the pass
  /// turns the whole call into Status(kCancelled) — a cancelled pass's
  /// partial metrics are never returned.
  Result<EstimateResult> EstimateCheckpointOnPools(
      const std::string& path, const FilterIndex& filter, Split split,
      const SampledCandidates& pools,
      const EstimateRequest& request = {}) const;

  // Former entry points kept for perfbench's callers; ROADMAP item 3
  // deletes them.
  EstimateResult EstimateOnPools(const KgeModel& model,
                                 const FilterIndex& filter, Split split,
                                 const SampledCandidates& pools,
                                 int64_t max_triples) const;
  EstimateResult EstimateAdaptiveOnPools(
      const KgeModel& model, const FilterIndex& filter, Split split,
      const SampledCandidates& pools,
      const AdaptiveEvalOptions& adaptive) const;
  Result<EstimateResult> EstimateAdaptiveCheckpointOnPools(
      const std::string& path, const FilterIndex& filter, Split split,
      const SampledCandidates& pools,
      const AdaptiveEvalOptions& adaptive) const;

  /// Resolved per-slot sample count n_s.
  int64_t SampleSize() const;

  const Dataset* dataset() const { return dataset_; }
  const FrameworkOptions& options() const { return options_; }
  const CandidateSets& sets() const { return sets_; }
  /// Recommender fit time plus candidate-set construction time.
  double build_seconds() const { return build_seconds_; }

 private:
  EvaluationFramework(const Dataset* dataset, FrameworkOptions options);

  const Dataset* dataset_;
  FrameworkOptions options_;
  CandidateSets sets_;
  double build_seconds_ = 0.0;
  Rng rng_;
};

}  // namespace kgeval

#endif  // KGEVAL_CORE_FRAMEWORK_H_

#ifndef KGEVAL_CORE_EVAL_SESSION_H_
#define KGEVAL_CORE_EVAL_SESSION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/framework.h"

namespace kgeval {

/// Per-checkpoint outcome of a sweep: the load/evaluate Status plus the
/// estimate, which is meaningful iff status.ok(). A failed path (missing,
/// corrupt, truncated, or mismatched checkpoint) carries the error here
/// instead of aborting the sweep.
struct CheckpointEstimate {
  Status status;
  SampledEvalResult result;
};

/// Adaptive counterpart of CheckpointEstimate.
struct CheckpointAdaptiveEstimate {
  Status status;
  AdaptiveEvalResult result;
};

/// Aggregate instrumentation of one checkpoint sweep.
struct CheckpointSweepStats {
  /// High-water mark of models resident in memory at once. Bounded by the
  /// worker-pool width: a 100-epoch sweep never holds 100 embedding tables.
  size_t max_resident_models = 0;
  /// Paths whose outcome carries a non-OK Status.
  size_t failed = 0;
  double wall_seconds = 0.0;
};

/// A multi-model evaluation session: one EvaluationFramework plus one
/// *pinned* pool draw for one split. Every Estimate*/EstimateMany* call
/// scores against the same pinned pools, which buys two things the
/// one-shot EvaluationFramework::Estimate cannot give:
///
///  - Comparability. All models/checkpoints rank against identical
///    candidate pools, so metric differences are model differences — the
///    pool-draw noise that separates two Estimate() calls is gone. This is
///    the paper's monitoring use case (Fig. 3c): per-epoch estimates on a
///    pinned draw form a curve whose movement is training progress.
///  - Amortization. The 2|R| pool samplings are paid once per session (or
///    per RedrawPools()), not once per checkpoint.
///
/// EstimateMany/EstimateAdaptiveMany evaluate N models *concurrently*: each
/// model's pass runs as its own job on the shared worker pool (its own
/// TaskGroups, waiting only on its own chunks — no global barrier), so the
/// session behaves like a small evaluation service absorbing N requests at
/// once. Per-model results are bit-identical to a sequential Estimate()
/// call on the same pinned pools, whatever the interleaving: ranks land in
/// disjoint per-model vectors and are reduced in deterministic index order.
///
/// The session pins pools, not models: models arrive per call and are only
/// read, so one session can outlive any number of checkpoints. Pinning
/// trades the across-draw variance estimate for comparability — metrics
/// still carry the query-sampling CI, but a fresh draw (RedrawPools) is the
/// only way to see pool-draw noise.
class EvalSession {
 public:
  /// Builds a framework for `dataset` and pins its first pool draw for
  /// `split`. Every estimate ranks against `filter`'s known answers
  /// (eval/protocol.h). `dataset` and `filter` must outlive the session.
  static Result<std::unique_ptr<EvalSession>> Create(
      const Dataset* dataset, const FilterIndex* filter,
      const FrameworkOptions& options, Split split = Split::kTest);

  /// Estimates `model` on the pinned pools. Repeated calls score identical
  /// pools; `max_triples` (0 = all) as in EvaluationFramework::Estimate.
  /// `cancel` (optional, must outlive the call) aborts the pass at the next
  /// block boundary; the result comes back flagged `cancelled`.
  SampledEvalResult Estimate(const KgeModel& model, int64_t max_triples = 0,
                             const CancelToken* cancel = nullptr) const;

  /// Estimates every model concurrently against the pinned pools; result i
  /// is bit-identical (rank-for-rank) to Estimate(*models[i], max_triples).
  std::vector<SampledEvalResult> EstimateMany(
      const std::vector<const KgeModel*>& models,
      int64_t max_triples = 0) const;

  /// Confidence-bounded estimate on the pinned pools (deterministic given
  /// `adaptive.shuffle_seed`).
  AdaptiveEvalResult EstimateAdaptive(
      const KgeModel& model, const AdaptiveEvalOptions& adaptive = {},
      const CancelToken* cancel = nullptr) const;

  /// Adaptive counterpart of EstimateMany: per-model results bit-identical
  /// to sequential EstimateAdaptive calls with the same options.
  std::vector<AdaptiveEvalResult> EstimateAdaptiveMany(
      const std::vector<const KgeModel*>& models,
      const AdaptiveEvalOptions& adaptive = {}) const;

  /// Streams the outcome of checkpoint `index` as soon as it is recorded.
  /// Invoked from the sweep's job threads in completion order (not input
  /// order), serialized — two callbacks never overlap.
  using CheckpointProgressFn =
      std::function<void(size_t index, const CheckpointEstimate&)>;
  using CheckpointAdaptiveProgressFn =
      std::function<void(size_t index, const CheckpointAdaptiveEstimate&)>;

  /// Sweeps checkpoint files on disk against the pinned pools — the
  /// "evaluate every epoch snapshot" loop the paper's monitoring workload
  /// needs. Each path is loaded on a job thread (LoadCheckpoint), estimated
  /// exactly like Estimate(), and freed as soon as its result is recorded,
  /// so at most worker-count models are ever resident (stats reports the
  /// observed high-water mark). Outcome i is rank-for-rank identical to a
  /// sequential LoadModel + Estimate on paths[i]; a path that fails to load
  /// carries its Status in the outcome without disturbing the rest of the
  /// sweep. `progress` (optional) streams outcomes as they complete;
  /// `stats` (optional) receives sweep-level instrumentation. A `cancel`
  /// token fired mid-sweep stops new work cooperatively: paths not yet
  /// loaded record Status(kCancelled) without loading, in-flight passes
  /// wind down at their next block boundary and record kCancelled too, and
  /// already-finished outcomes keep their results. Cancelled outcomes count
  /// into stats->failed and still stream through `progress`.
  std::vector<CheckpointEstimate> EstimateCheckpoints(
      const std::vector<std::string>& paths, int64_t max_triples = 0,
      const CheckpointProgressFn& progress = nullptr,
      CheckpointSweepStats* stats = nullptr,
      const CancelToken* cancel = nullptr) const;

  /// Adaptive counterpart of EstimateCheckpoints: each snapshot is
  /// evaluated with EstimateAdaptive's confidence-bounded pass, same
  /// bounded-resident loading, per-path error semantics, and cancellation
  /// contract.
  std::vector<CheckpointAdaptiveEstimate> EstimateAdaptiveCheckpoints(
      const std::vector<std::string>& paths,
      const AdaptiveEvalOptions& adaptive = {},
      const CheckpointAdaptiveProgressFn& progress = nullptr,
      CheckpointSweepStats* stats = nullptr,
      const CancelToken* cancel = nullptr) const;

  /// Replaces the pinned pools with a fresh draw (advancing the framework's
  /// RNG). Estimates before and after are *not* comparable draw-wise — call
  /// between checkpoint sweeps, not inside one. Not thread-safe against
  /// in-flight Estimate* calls.
  void RedrawPools();

  /// The pinned pools (sample_seconds is the one-time draw cost the
  /// session amortizes across its estimates).
  const SampledCandidates& pools() const { return pools_; }
  Split split() const { return split_; }
  EvaluationFramework& framework() { return *framework_; }
  const EvaluationFramework& framework() const { return *framework_; }

 private:
  EvalSession(std::unique_ptr<EvaluationFramework> framework,
              const FilterIndex* filter, Split split);

  std::unique_ptr<EvaluationFramework> framework_;
  const FilterIndex* filter_;
  Split split_;
  SampledCandidates pools_;
};

}  // namespace kgeval

#endif  // KGEVAL_CORE_EVAL_SESSION_H_

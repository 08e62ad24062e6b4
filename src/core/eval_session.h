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
  EstimateResult result;
};

/// Aggregate instrumentation of one checkpoint sweep.
struct CheckpointSweepStats {
  /// High-water mark of models resident in memory at once (a job counts
  /// from before its load until its model is freed). Bounded by the
  /// worker-pool width: a 100-epoch sweep never holds 100 embedding tables.
  size_t max_resident_models = 0;
  /// Paths whose outcome carries a non-OK Status.
  size_t failed = 0;
  double wall_seconds = 0.0;
};

/// A multi-model evaluation session: one EvaluationFramework plus one
/// *pinned* pool draw for one split. Every Estimate/EstimateCheckpoints
/// call scores against the same pinned pools, which buys two things the
/// one-shot EvaluationFramework::Estimate cannot give:
///
///  - Comparability. All models/checkpoints rank against identical
///    candidate pools, so metric differences are model differences — the
///    pool-draw noise that separates two Estimate() calls is gone. This is
///    the paper's monitoring use case (Fig. 3c): per-epoch estimates on a
///    pinned draw form a curve whose movement is training progress.
///  - Amortization. The 2|R| pool samplings are paid once per session,
///    not once per checkpoint.
///
/// Both calls are const and thread-safe, so N models can be estimated
/// *concurrently* (the checkpoint sweep does, and so does a server with N
/// clients): each pass runs as its own TaskGroups on the shared worker pool,
/// waiting only on its own chunks — no global barrier. Per-model results
/// are bit-identical to a sequential Estimate() call on the same pinned
/// pools, whatever the interleaving: ranks land in disjoint per-model
/// vectors and are reduced in deterministic index order.
///
/// The session pins pools, not models: models arrive per call and are only
/// read, so one session can outlive any number of checkpoints. Pinning
/// trades the across-draw variance estimate for comparability — metrics
/// still carry the query-sampling CI, but only a new session (a fresh draw)
/// sees pool-draw noise.
class EvalSession {
 public:
  /// Builds a framework for `dataset` and pins its first pool draw for
  /// `split`. Every estimate ranks against `filter`'s known answers
  /// (eval/protocol.h). `dataset` and `filter` must outlive the session.
  static Result<std::unique_ptr<EvalSession>> Create(
      const Dataset* dataset, const FilterIndex* filter,
      const FrameworkOptions& options, Split split = Split::kTest);

  /// Estimates `model` on the pinned pools as `request` asks (see
  /// EvaluationFramework::EstimateOnPools). Repeated calls score identical
  /// pools.
  EstimateResult Estimate(const KgeModel& model,
                          const EstimateRequest& request = {}) const;

  /// Streams the outcome of checkpoint `index` as soon as it is recorded.
  /// Invoked from the sweep's job threads in completion order (not input
  /// order), serialized — two callbacks never overlap.
  using CheckpointProgressFn =
      std::function<void(size_t index, const CheckpointEstimate&)>;

  /// Sweeps checkpoint files on disk against the pinned pools — the
  /// "evaluate every epoch snapshot" loop the paper's monitoring workload
  /// needs. Each path is one EvaluationFramework::EstimateCheckpointOnPools
  /// call on a job thread — loaded, estimated exactly like
  /// Estimate(model, request), and freed before its result is recorded —
  /// so at most worker-count models are ever resident (stats reports the
  /// observed high-water mark). Outcome i is rank-for-rank identical to a
  /// sequential LoadModel + Estimate on paths[i]; a path that fails to
  /// load carries its Status in the outcome without disturbing the rest of
  /// the sweep. `progress` (optional) streams outcomes as they complete;
  /// `stats` (optional) receives sweep-level instrumentation. A
  /// `request.cancel` token fired mid-sweep stops new work cooperatively:
  /// paths not yet loaded record Status(kCancelled) without loading,
  /// in-flight passes wind down at their next block boundary and record
  /// kCancelled too, and already-finished outcomes keep their results.
  /// Cancelled outcomes count into stats->failed and still stream through
  /// `progress`.
  std::vector<CheckpointEstimate> EstimateCheckpoints(
      const std::vector<std::string>& paths,
      const EstimateRequest& request = {},
      const CheckpointProgressFn& progress = nullptr,
      CheckpointSweepStats* stats = nullptr) const;

  // Former sweep signature kept for perfbench's callers; ROADMAP item 3
  // deletes it.
  std::vector<CheckpointEstimate> EstimateCheckpoints(
      const std::vector<std::string>& paths, int64_t max_triples,
      const CheckpointProgressFn& progress,
      CheckpointSweepStats* stats) const;

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

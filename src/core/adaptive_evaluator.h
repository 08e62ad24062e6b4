#ifndef KGEVAL_CORE_ADAPTIVE_EVALUATOR_H_
#define KGEVAL_CORE_ADAPTIVE_EVALUATOR_H_

#include "core/sampled_evaluator.h"

namespace kgeval {

/// Options for the confidence-bounded adaptive evaluation pass. Ranks
/// break ties with TieBreak::kMean, as in the sampled pass. The stopping
/// interval (and the reported RankingCi) is the MRR's two-sided
/// kEstimateConfidence interval, shrunk by the finite-population correction
/// sqrt((N - n) / (N - 1)): the rounds sample the split's query set without
/// replacement, so the uncertainty about the full-pass estimate vanishes as
/// coverage approaches 100%.
struct AdaptiveEvalOptions {
  /// Stop once the MRR estimate's confidence half-width drops to
  /// `target_half_width` or below.
  double target_half_width = 0.01;
  /// Queries scored per round, between convergence checks. Smaller rounds
  /// stop closer to the exact crossing point but re-prepare the pools of
  /// the slots they touch more often.
  size_t batch_queries = 2048;
  /// Never stop on the confidence test before this many queries: the
  /// variance estimate itself needs support before it can be trusted.
  int64_t min_queries = 1024;
  /// Hard budget that forces a stop even if the interval is still wide:
  /// max evaluated triples (0 = all of the split; the query budget is
  /// 2 * max_triples, enforced exactly). The budget ends the pass
  /// *unconverged*.
  int64_t max_triples = 0;
  /// Seed of the schedule shuffle. The whole pass is deterministic given
  /// this seed, the pools, and the model.
  uint64_t shuffle_seed = 29;
  /// Cooperative cancellation, polled between rounds and (through the
  /// shared ScoreSlotBlocks) between query blocks within a round. A
  /// cancelled pass reports `cancelled` on its result; its metrics are
  /// partial and must be discarded.
  const CancelToken* cancel = nullptr;
};

/// Result of an adaptive evaluation pass. `metrics`/`ci` cover the queries
/// actually evaluated — a uniformly shuffled subset of the split's query
/// set, so they estimate the full sampled pass the same way a poll
/// estimates an election.
struct AdaptiveEvalResult {
  RankingMetrics metrics;
  /// Half-widths at kEstimateConfidence, with the finite-population
  /// correction applied (the stopping rule and the report use the same
  /// interval).
  RankingCi ci;
  /// Per-query ranks, indexed like SampledEvalResult::ranks (2 slots per
  /// triple of the split: tail then head). Queries the pass never scored
  /// hold 0.0.
  std::vector<double> ranks;
  int64_t evaluated_queries = 0;
  /// Always 2 x the split's triple count (the population the estimate and
  /// the finite-population correction refer to), regardless of budgets.
  int64_t total_queries = 0;
  int64_t scored_candidates = 0;
  int64_t rounds = 0;
  /// True iff the pass stopped because the confidence test was met. A pass
  /// that consumes the whole split converges trivially (the finite-
  /// population correction collapses the interval to zero at full
  /// coverage — the estimate *is* the full pass); a budget stop always
  /// reports false.
  bool converged = false;
  /// True when AdaptiveEvalOptions::cancel fired mid-pass (never converged
  /// in that case); the partial result must be discarded.
  bool cancelled = false;
  double eval_seconds = 0.0;
  /// The MRR half-width after every round; shrinks ~1/sqrt(n)
  /// as rounds accumulate. Useful for convergence plots and tests.
  std::vector<double> half_width_history;
};

/// Confidence-bounded sampled evaluation: consumes the split's query set in
/// uniformly shuffled rounds — each round a simple random sample of the
/// remaining queries, regrouped by slot and scored through the same
/// prepared/fused kernels as EvaluateSampled —
/// maintains running metrics in a RankingAccumulator, and
/// stops as soon as the MRR's confidence half-width reaches
/// `target_half_width` (or the triple budget runs out). This is the paper's
/// thesis made operational: the sampled estimate stabilizes long before
/// every test query is scored, so the evaluator stops *early* instead of
/// just running fast — and every estimate carries the interval that
/// justified stopping.
/// Deterministic given options.shuffle_seed; evaluated queries' ranks are
/// bit-identical to what EvaluateSampled computes for them on the same
/// pools.
AdaptiveEvalResult EvaluateAdaptive(const KgeModel& model,
                                    const Dataset& dataset,
                                    const FilterIndex& filter, Split split,
                                    const SampledCandidates& candidates,
                                    const AdaptiveEvalOptions& options = {});

}  // namespace kgeval

#endif  // KGEVAL_CORE_ADAPTIVE_EVALUATOR_H_

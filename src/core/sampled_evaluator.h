#ifndef KGEVAL_CORE_SAMPLED_EVALUATOR_H_
#define KGEVAL_CORE_SAMPLED_EVALUATOR_H_

#include <optional>
#include <vector>

#include "core/samplers.h"
#include "eval/metrics.h"
#include "eval/protocol.h"
#include "graph/dataset.h"
#include "models/kge_model.h"
#include "util/cancel.h"

namespace kgeval {

/// Distinct anchors scored per fused kernel call by the slot-major
/// evaluators (a block's queries that repeat an anchor share its row, so
/// a block may hold more queries than this). Bounds the score block (256 x
/// min(n_s, kPoolTile) floats); the pool gather itself happens once per
/// slot, not per block. Smaller blocks are not
/// free: each kernel call streams the whole prepared tile (~440 KB at
/// n_s = 1705, dim 64), so fewer queries per call re-read it more often.
/// Cutting 256 to 16 made the paper-scale codex-m estimate slower, 281 ->
/// 328 ms on a 4-vCPU AVX-512 Xeon.
constexpr size_t kSampledQueryBlock = 256;

/// Two-sided confidence level of every interval the sampled and adaptive
/// estimators report (and of the adaptive stopping rule).
constexpr double kEstimateConfidence = 0.95;

/// Queries an adaptive pass scores per round, between convergence checks.
/// Smaller rounds would stop closer to the exact crossing point but
/// re-prepare the pools of the slots they touch more often.
constexpr size_t kAdaptiveRoundQueries = 2048;

/// An adaptive pass never stops on the confidence test before this many
/// queries: the variance estimate itself needs support before it can be
/// trusted. A pass that scores the whole split converges below it too.
constexpr int64_t kAdaptiveMinQueries = 1024;

/// The stopping rule of an adaptive estimate. Ranks break ties with
/// TieBreak::kMean, as in the fixed pass. The stopping interval (and the
/// reported RankingCi) is the MRR's two-sided kEstimateConfidence interval,
/// shrunk by the finite-population correction sqrt((N - n) / (N - 1)): the
/// rounds sample the split's query set without replacement, so the
/// uncertainty about the full-pass estimate vanishes as coverage approaches
/// 100%.
struct AdaptiveEvalOptions {
  /// Stop once the MRR estimate's confidence half-width drops to
  /// `target_half_width` or below.
  double target_half_width = 0.01;
  /// Seed of the schedule shuffle. The whole pass is deterministic given
  /// this seed, the pools, and the model.
  uint64_t shuffle_seed = 29;
};

/// One estimate request, the input of every estimate call at every layer
/// (evaluator, framework, session, service). Sampled ranks break ties with
/// TieBreak::kMean.
struct EstimateRequest {
  /// Cap on evaluated triples (0 = all): a fixed pass evaluates the split's
  /// deterministic prefix; an adaptive pass treats it as a hard query budget
  /// of 2 * max_triples, enforced exactly, that ends the pass *unconverged*.
  int64_t max_triples = 0;
  /// Cooperative cancellation, polled between query blocks (and between
  /// adaptive rounds); not borrowed — must outlive the pass. A cancelled
  /// pass winds down at the next boundary and flags its result
  /// `cancelled`; the partial metrics are meaningless and must be
  /// discarded by the caller.
  const CancelToken* cancel = nullptr;
  /// Set: run the confidence-bounded adaptive pass with this stopping rule
  /// instead of the fixed pass over the whole (prefix of the) split.
  std::optional<AdaptiveEvalOptions> adaptive;
};

/// Result of an estimate from sampled candidate pools.
struct EstimateResult {
  RankingMetrics metrics;
  /// Normal-approximation half-widths around `metrics` at
  /// kEstimateConfidence (query-sampling noise; see RankingCi for what the
  /// interval does and does not cover). Adaptive passes apply the
  /// finite-population correction (the stopping rule and the report use
  /// the same interval).
  RankingCi ci;
  /// Per-query estimated ranks (tail query, then head query, per triple).
  /// Queries an adaptive pass never scored hold 0.0.
  std::vector<double> ranks;
  double eval_seconds = 0.0;    // Scoring + ranking time.
  double sample_seconds = 0.0;  // Copied from the SampledCandidates.
  int64_t scored_candidates = 0;
  /// True when EstimateRequest::cancel fired mid-pass: the pass ended
  /// early, metrics/ranks are partial garbage, discard everything.
  bool cancelled = false;

  // Set only by adaptive requests. `metrics`/`ci` then cover the queries
  // actually evaluated — a uniformly shuffled subset of the split's query
  // set, so they estimate the full sampled pass the way a poll estimates
  // an election.
  int64_t evaluated_queries = 0;
  /// Always 2 x the split's triple count (the population the estimate and
  /// the finite-population correction refer to), regardless of budgets.
  int64_t total_queries = 0;
  int64_t rounds = 0;
  /// True iff the pass stopped because the confidence test was met or
  /// because it scored the whole split. The latter converges trivially,
  /// however small the split (the finite-population correction collapses
  /// the interval to zero at full coverage — the estimate *is* the full
  /// pass); a budget stop short of the whole split or a cancel always
  /// reports false.
  bool converged = false;
};

// Former names kept for perfbench's callers; ROADMAP item 3 deletes them.
using SampledEvalOptions = EstimateRequest;
using SampledEvalResult = EstimateResult;
using AdaptiveEvalResult = EstimateResult;

/// Ranks each test query's true answer against its slot's sampled pool
/// (filtered; the true answer is always included). The estimated metrics
/// aggregate these pool-ranks directly — no rescaling — which is exactly why
/// uniform Random pools are optimistic and recommender-guided pools are not
/// (Section 4).
/// The hot path is slot-major: queries are grouped by (relation, direction)
/// so each group ranks against one shared pool, prepared once per slot and
/// ranked over slot-aligned chunks of blocks, so parallelism never splits a
/// slot across chunks that would each re-prepare its pool.
///
/// With `request.adaptive` set, the pass is confidence-bounded instead: it
/// consumes the split's query set in uniformly shuffled rounds — each round
/// a simple random sample of the remaining queries, regrouped by slot and
/// scored through the same prepared pools — maintains running metrics in a
/// RankingAccumulator, and stops as soon as the MRR's confidence half-width
/// reaches `target_half_width` (or the triple budget runs out). This is the
/// paper's thesis made operational: the sampled estimate stabilizes long
/// before every test query is scored, so the evaluator stops *early*
/// instead of just running fast — and every estimate carries the interval
/// that justified stopping. Deterministic given `shuffle_seed`; evaluated
/// queries' ranks are bit-identical to what the fixed pass computes for
/// them on the same pools.
EstimateResult EvaluateSampled(const KgeModel& model, const Dataset& dataset,
                               const FilterIndex& filter, Split split,
                               const SampledCandidates& candidates,
                               const EstimateRequest& request = {});

/// Reference triple-major implementation scoring one query at a time through
/// ScoreCandidates. Kept as the baseline the batched path is benchmarked and
/// parity-tested against; produces bit-identical ranks to the fixed
/// EvaluateSampled pass. Reads only `request.max_triples`.
EstimateResult EvaluateSampledScalar(const KgeModel& model,
                                     const Dataset& dataset,
                                     const FilterIndex& filter, Split split,
                                     const SampledCandidates& candidates,
                                     const EstimateRequest& request = {});

}  // namespace kgeval

#endif  // KGEVAL_CORE_SAMPLED_EVALUATOR_H_

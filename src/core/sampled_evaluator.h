#ifndef KGEVAL_CORE_SAMPLED_EVALUATOR_H_
#define KGEVAL_CORE_SAMPLED_EVALUATOR_H_

#include "core/samplers.h"
#include "eval/full_evaluator.h"
#include "eval/metrics.h"
#include "eval/protocol.h"
#include "eval/slot_blocks.h"
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

/// Options for a sampled evaluation pass. Sampled ranks break ties with
/// TieBreak::kMean.
struct SampledEvalOptions {
  /// Cap on evaluated triples (0 = all); deterministic prefix of the split.
  int64_t max_triples = 0;
  /// Cooperative cancellation, polled between query blocks (not borrowed —
  /// must outlive the pass). A cancelled pass winds down at the next block
  /// boundary and flags its result `cancelled`; the partial metrics are
  /// meaningless and must be discarded by the caller.
  const CancelToken* cancel = nullptr;
};

/// Result of estimating the ranking metrics from sampled candidate pools.
struct SampledEvalResult {
  RankingMetrics metrics;
  /// Normal-approximation half-widths around `metrics` at
  /// kEstimateConfidence (query-sampling noise; see RankingCi for what the
  /// interval does and does not cover).
  RankingCi ci;
  /// Per-query estimated ranks (tail query, then head query, per triple).
  std::vector<double> ranks;
  double eval_seconds = 0.0;    // Scoring + ranking time.
  double sample_seconds = 0.0;  // Copied from the SampledCandidates.
  int64_t scored_candidates = 0;
  /// True when SampledEvalOptions::cancel fired mid-pass: the pass ended
  /// early, metrics/ranks are partial garbage, discard everything.
  bool cancelled = false;
};

/// Per-thread scratch for ScoreSlotBlocks. The prepared pool carries across
/// consecutive blocks, and calls, of the same slot, so slot-contiguous
/// schedules prepare each pool once.
struct SlotBlockScratch {
  BlockRankScratch rank;
  PreparedPool pool;
  int32_t pool_slot = -1;  // Slot that `pool` describes.
};

/// The shared incremental core of the sampled evaluators: ranks blocks
/// [begin, end) of a FilterIndex slot-contiguous schedule against
/// `candidates` through RankSlotBlock, preparing a slot's pool in
/// kPoolTile-wide tiles when the slot changes. Thread-safe across disjoint
/// block ranges (each thread brings its own scratch). Returns the evaluated
/// queries' pool sizes + 1 summed (the scalar oracle's scored candidates),
/// not the kernel rows computed: the served `scored=` field reads it. Ranks
/// are bit-identical regardless of how the schedule is cut into ranges or
/// threads.
int64_t ScoreSlotBlocks(const KgeModel& model,
                        const std::vector<Triple>& triples,
                        const FilterIndex& filter,
                        const SampledCandidates& candidates,
                        const std::vector<SlotBlock>& blocks, size_t begin,
                        size_t end, const SampledEvalOptions& options,
                        SlotBlockScratch* scratch, double* ranks);

/// Dies (KGEVAL_CHECK) unless every slot queried by the evaluated prefix
/// of `triples` has a non-empty, strictly increasing candidate pool of ids
/// in [0, num_entities) — the SampledCandidates contract the rankers'
/// index take-back relies on, checked once per pass instead of per block.
/// An empty pool would silently score the truth against nothing and report
/// rank 1 for every query of the slot — an optimistic estimate
/// indistinguishable from a perfect model. Slots the split never queries
/// are not checked and may be empty (their pools are never ranked against,
/// and the per-thread scratch only ever grows to the slots its own chunks
/// score).
void ValidateQueriedPools(const std::vector<Triple>& triples,
                          int64_t num_triples, int32_t num_relations,
                          int32_t num_entities,
                          const SampledCandidates& candidates);

/// Ranks each test query's true answer against its slot's sampled pool
/// (filtered; the true answer is always included). The estimated metrics
/// aggregate these pool-ranks directly — no rescaling — which is exactly why
/// uniform Random pools are optimistic and recommender-guided pools are not
/// (Section 4).
/// The hot path is slot-major: queries are grouped by (relation, direction)
/// so each group ranks against one shared pool, prepared once per slot and
/// ranked through ScoreSlotBlocks over slot-aligned chunks of blocks, so
/// parallelism never splits a slot across chunks that would each
/// re-prepare its pool.
SampledEvalResult EvaluateSampled(const KgeModel& model,
                                  const Dataset& dataset,
                                  const FilterIndex& filter, Split split,
                                  const SampledCandidates& candidates,
                                  const SampledEvalOptions& options = {});

/// Reference triple-major implementation scoring one query at a time through
/// ScoreCandidates. Kept as the baseline the batched path is benchmarked and
/// parity-tested against; produces bit-identical ranks to EvaluateSampled.
SampledEvalResult EvaluateSampledScalar(const KgeModel& model,
                                        const Dataset& dataset,
                                        const FilterIndex& filter, Split split,
                                        const SampledCandidates& candidates,
                                        const SampledEvalOptions& options = {});

}  // namespace kgeval

#endif  // KGEVAL_CORE_SAMPLED_EVALUATOR_H_

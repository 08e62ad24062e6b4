#ifndef KGEVAL_EVAL_FULL_EVALUATOR_H_
#define KGEVAL_EVAL_FULL_EVALUATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "eval/metrics.h"
#include "eval/protocol.h"
#include "graph/dataset.h"
#include "models/kge_model.h"

namespace kgeval {

/// Options for the exhaustive filtered-ranking evaluation (the O(|E|^2)
/// procedure whose cost the paper's framework avoids).
struct FullEvalOptions {
  TieBreak tie = TieBreak::kMean;
  /// Cap on evaluated triples (0 = all). Deterministic prefix of the split;
  /// used by benches to bound the cost of the ground-truth computation.
  int64_t max_triples = 0;
  /// Entities per candidate tile. Each tile is prepared (gathered +
  /// transposed) once per evaluation and reused by every slot block; one
  /// score block is 16 distinct anchors x entity_tile floats. Small values
  /// force multi-tile sweeps (used by tests); ranks are identical for any
  /// tile size.
  size_t entity_tile = 32768;
};

/// Result of a full evaluation: aggregated metrics plus per-query ranks
/// (two per triple: tail query first, then head query).
struct FullEvalResult {
  RankingMetrics metrics;
  std::vector<double> ranks;
};

/// Ranks every entity for every (h,r,?) and (?,r,t) query of `split`,
/// with the protocol supplying the filtered answer sets (and, through its
/// schedule grouping, the kernel relation homogeneity time-aware models
/// need). Each distinct (anchor, kernel relation, direction) is scored
/// once per tile; its queries share the row. Multi-threaded.
FullEvalResult EvaluateFullRanking(const KgeModel& model,
                                   const Dataset& dataset,
                                   const EvalProtocol& protocol, Split split,
                                   const FullEvalOptions& options = {});

/// Static-protocol convenience: filters known true answers
/// (train+valid+test) regardless of timestamp; bit-identical to the
/// pre-protocol evaluator.
FullEvalResult EvaluateFullRanking(const KgeModel& model,
                                   const Dataset& dataset,
                                   const FilterIndex& filter, Split split,
                                   const FullEvalOptions& options = {});

/// Branch-free higher/tied counts of one score row against a truth score:
/// how many of `row[0, n)` are strictly greater than, and exactly equal to,
/// `truth_score` (n < 2^31). The loop has no data-dependent branch, so the
/// compiler vectorizes it; every ranker counts rows through it, then takes
/// back the filtered entries.
struct RowCounts {
  int64_t higher = 0;
  int64_t tied = 0;
};
RowCounts CountHigherTied(const float* row, size_t n, float truth_score);

/// O(1) position lookup in a sorted, deduplicated entity pool: a membership
/// bitmap over entity ids (one word per 64 ids, up to the pool's largest id)
/// plus each word's count of set bits before it. Find(e) is the rank of e's
/// bit among all set bits — e's index in the pool — or -1 when e is not in
/// it. A paper-scale pool over codex-m's 17 050 entities needs ~3 KB, so the
/// index stays cache-resident where a dense id -> position map would not.
class PoolIndex {
 public:
  /// Indexes `ids[0, n)`, which must be strictly increasing and
  /// non-negative (the SampledCandidates pool contract; dies otherwise).
  /// O(max id / 64 + n).
  void Build(const int32_t* ids, size_t n);

  /// Position of entity `e` in the indexed pool, or -1 when absent
  /// (negative ids and ids past the last word included).
  int32_t Find(int32_t e) const {
    const size_t w = static_cast<uint32_t>(e) >> 6;
    if (w >= bits_.size()) return -1;
    const uint64_t bit = uint64_t{1} << (e & 63);
    if ((bits_[w] & bit) == 0) return -1;
    return rank_[w] + __builtin_popcountll(bits_[w] & (bit - 1));
  }

 private:
  std::vector<uint64_t> bits_;
  std::vector<int32_t> rank_;  // Set bits in bits_[0, w).
};

/// The sampled hot path's filtered ranker. `row[0, n)` scores the pool that
/// `index` was built from (row[i] belongs to the pool's i-th entity) and
/// `answers` is the query's sorted filtered-answer list, which must contain
/// the truth (the EvalProtocol contract). Counts the row with
/// CountHigherTied, then takes back each distinct answer found in the pool
/// by one PoolIndex lookup — the counts, and so the rank, equal
/// FilteredRank's over the same strictly increasing pool.
double IndexedFilteredRank(const float* row, size_t n, float truth_score,
                           const std::vector<int32_t>& answers,
                           const PoolIndex& index, TieBreak tie);

/// Reference filtered ranker: the rank of the true answer within a scored
/// candidate array, with the filtered candidates removed. `answers` is the
/// sorted list of known true answers for the query (must contain `truth`).
/// `scores[i]` corresponds to `candidates[i]`; candidates may contain
/// duplicates of `truth` (skipped). With `candidates_sorted` (the array is
/// non-decreasing) it counts the row with CountHigherTied and takes back
/// each distinct answer's range by binary search; otherwise it walks every
/// candidate and skips the filtered ones. The sampled hot path calls
/// IndexedFilteredRank instead, so this is the independent implementation
/// that EvaluateSampledScalar, the tests and the benchmark's layer ladder
/// check that path against.
double FilteredRank(const int32_t* candidates, const float* scores, size_t n,
                    int32_t truth, float truth_score,
                    const std::vector<int32_t>& answers, TieBreak tie,
                    bool candidates_sorted);

}  // namespace kgeval

#endif  // KGEVAL_EVAL_FULL_EVALUATOR_H_

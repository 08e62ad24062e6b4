#ifndef KGEVAL_EVAL_FULL_EVALUATOR_H_
#define KGEVAL_EVAL_FULL_EVALUATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "eval/metrics.h"
#include "eval/protocol.h"
#include "eval/slot_blocks.h"
#include "graph/dataset.h"
#include "models/kge_model.h"
#include "util/cancel.h"

namespace kgeval {

/// Pool positions per prepared tile. One kernel call scores a block's
/// distinct anchors against one tile, so a score block holds anchors x
/// min(pool size, tile) floats: 2 MB for a 16-anchor full-ranking block,
/// 32 MB at most for a 256-anchor sampled block. Large on purpose:
/// per-anchor work that happens once per kernel call (ConvE's conv/FC
/// trunk, RESCAL's relation-matrix product) repeats once per tile.
constexpr size_t kPoolTile = 32768;

/// Options for the exhaustive filtered-ranking evaluation (the O(|E|^2)
/// procedure whose cost the paper's framework avoids).
struct FullEvalOptions {
  TieBreak tie = TieBreak::kMean;
  /// Cap on evaluated triples (0 = all). Deterministic prefix of the split;
  /// used by benches to bound the cost of the ground-truth computation.
  int64_t max_triples = 0;
};

/// Result of a full evaluation: aggregated metrics plus per-query ranks
/// (two per triple: tail query first, then head query).
struct FullEvalResult {
  RankingMetrics metrics;
  std::vector<double> ranks;
};

/// Ranks every entity for every (h,r,?) and (?,r,t) query of `split`,
/// with `filter` supplying the filtered answer sets: one RankQueries pass
/// over every query id against the entity range, prepared once in
/// kPoolTile tiles (any other tile size gives the same ranks). Each
/// distinct (anchor, relation, direction) is scored once per tile; its
/// queries share the row. Multi-threaded.
FullEvalResult EvaluateFullRanking(const KgeModel& model,
                                   const Dataset& dataset,
                                   const FilterIndex& filter, Split split,
                                   const FullEvalOptions& options = {});

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

/// A candidate pool ready for RankSlotBlock: consecutive position tiles,
/// each prepared once with KgeModel::PrepareCandidates, plus one PoolIndex
/// over the whole pool for the filtered take-back. Full ranking prepares
/// the entity range once (position == entity id); the sampled evaluators
/// prepare each slot's pool when the slot changes.
struct PreparedPool {
  size_t size = 0;  // Candidates over all tiles.
  size_t tile_size = 0;
  std::vector<CandidateBlock> tiles;  // Tile t starts at t * tile_size.
  PoolIndex index;

  /// Prepares `ids[0, n)`, strictly increasing, in tiles of `tile_size`.
  void Prepare(const KgeModel& model, const int32_t* ids, size_t n,
               size_t tile_size);
};

/// Adds one pool tile's filtered counts for a query to `*higher` and
/// `*tied`. `row[0, n)` scores pool positions [lo, lo + n) of the pool that
/// `index` was built from, and `answers` is the query's sorted
/// filtered-answer list, which must contain the truth (the
/// FilterIndex::Answers contract). The row is counted branch-free (entries
/// strictly above, and equal to, `truth_score`); then each distinct answer
/// whose pool position falls in the tile is taken back once. Summed over a
/// pool's tiles, the counts equal FilteredRank's over the same strictly
/// increasing pool.
void AddFilteredTileCounts(const float* row, size_t lo, size_t n,
                           float truth_score,
                           const std::vector<int32_t>& answers,
                           const PoolIndex& index, int64_t* higher,
                           int64_t* tied);

/// Per-thread buffers of RankSlotBlock; they grow to the largest block and
/// tile ranked through them.
struct BlockRankScratch {
  std::vector<float> scores, truth_scores;
  std::vector<const std::vector<int32_t>*> answers;
  std::vector<int64_t> higher, tied;
};

/// The one block ranker of the full, sampled and adaptive evaluators: ranks
/// every query of `block`, one of `schedule`'s blocks over `triples`,
/// against `pool` and writes its filtered rank into
/// `ranks[2 * triple_index + (tail ? 0 : 1)]`. Each of the block's rows
/// (distinct anchors) is scored once per tile by KgeModel::ScoreBlock (the
/// first tile's fused call also emits the truth scores) under the block's
/// relation. Each query sums AddFilteredTileCounts over the tiles with its
/// own truth score and the filter's answer set. Thread-safe across blocks
/// with disjoint queries, each thread bringing its own scratch.
void RankSlotBlock(const KgeModel& model, const std::vector<Triple>& triples,
                   const FilterIndex& filter, const EvalSchedule& schedule,
                   const SlotBlock& block, const PreparedPool& pool,
                   TieBreak tie, BlockRankScratch* scratch, double* ranks);

/// The pool a RankQueries chunk ranks a slot's blocks against. It is called
/// with the slot and the chunk's own scratch pool whenever the chunk's
/// blocks reach a new slot, and returns either `scratch`, prepared in place
/// (the sampled passes), or a pool every chunk shares (full ranking). Runs
/// concurrently across chunks.
using SlotPoolSource =
    std::function<const PreparedPool&(int32_t slot, PreparedPool* scratch)>;

/// The one ranking pass of the full, sampled and adaptive evaluators: ranks
/// the queries `query_ids[0, n)` (query id = 2 * triple_index + (0 for the
/// tail query, 1 for the head query)) of `dataset`'s `split` and writes
/// each filtered rank to `ranks[query id]`; every other rank is left alone.
/// It schedules the queries itself into `schedule` (BuildQuerySchedule
/// with the dataset's relation count, which sizes the pool slots; at most
/// `query_block` distinct anchors per block, its buffers reused), cut into
/// slot-aligned chunks (PartitionAtSlotBoundaries, ~4 per worker) and
/// ranked chunk by chunk through RankSlotBlock on the pass's own TaskGroup,
/// so concurrent passes interleave their chunks on the shared workers.
/// `cancel` (optional) is polled before every block; a cancelled pass
/// leaves the unranked queries' ranks as they were. Returns the ranked
/// queries' pool sizes + 1 summed (the scalar oracle's scored candidates,
/// not the kernel rows computed). Ranks are bit-identical however the
/// chunks are threaded.
int64_t RankQueries(const KgeModel& model, const Dataset& dataset, Split split,
                    const FilterIndex& filter, const int64_t* query_ids,
                    size_t n, size_t query_block, TieBreak tie,
                    const SlotPoolSource& pool_for, const CancelToken* cancel,
                    EvalSchedule* schedule, double* ranks);

/// Reference filtered ranker: the rank of the true answer within a scored
/// candidate array, with the filtered candidates removed. `answers` is the
/// sorted list of known true answers for the query (must contain `truth`).
/// `scores[i]` corresponds to `candidates[i]`; candidates may contain
/// duplicates of `truth` (skipped). With `candidates_sorted` (the array is
/// non-decreasing) it counts the row branch-free and takes back each
/// distinct answer's range by binary search; otherwise it walks every
/// candidate and skips the filtered ones. The hot path ranks through
/// RankSlotBlock instead, so this is the independent implementation that
/// EvaluateSampledScalar, the tests and the benchmark's layer ladder check
/// that path against.
double FilteredRank(const int32_t* candidates, const float* scores, size_t n,
                    int32_t truth, float truth_score,
                    const std::vector<int32_t>& answers, TieBreak tie,
                    bool candidates_sorted);

}  // namespace kgeval

#endif  // KGEVAL_EVAL_FULL_EVALUATOR_H_

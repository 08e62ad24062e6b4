#ifndef KGEVAL_EVAL_SLOT_BLOCKS_H_
#define KGEVAL_EVAL_SLOT_BLOCKS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/triple.h"
#include "util/rng.h"

namespace kgeval {

/// One unit of slot-major evaluation work: a range of a schedule's queries
/// that share a relation and direction, all scored in one batched kernel
/// call. The block's queries are sorted by anchor, so queries with the
/// same anchor are adjacent and share one kernel score row; the block holds
/// at most the schedule's `query_block` distinct anchors (its rows),
/// however many queries repeat them. `relation` is the queries' relation
/// id, the one passed to the model's kernels. `pool_slot` is the block's
/// index into SampledCandidates.pools — and the key prepared candidate
/// tiles are reused under — which schedules keep contiguous.
struct SlotBlock {
  int32_t relation;
  QueryDirection direction;
  int32_t pool_slot;
  size_t begin;  // Query range within the schedule's per-query arrays.
  size_t end;
  size_t row_begin;  // Row range within EvalSchedule::anchors.
  size_t row_end;
};

/// A slot-contiguous evaluation schedule (BuildQuerySchedule), as flat
/// arrays that the blocks index into.
struct EvalSchedule {
  /// Per query, in schedule order: its triple index, its truth (the tail
  /// of a tail query, the head of a head query) and the index of its
  /// anchor's row within its block's rows.
  std::vector<int32_t> triple_idx;
  std::vector<int32_t> truths;
  std::vector<int32_t> truth_rows;
  /// Per row: the anchor it scores. Each block's rows are its distinct
  /// anchors, in order.
  std::vector<int32_t> anchors;
  /// Kernel-homogeneous blocks in ascending pool slot order, so blocks
  /// sharing a pool slot are contiguous (the prepared-tile reuse contract
  /// of RankQueries and PartitionAtSlotBoundaries).
  std::vector<SlotBlock> blocks;
  /// BuildQuerySchedule's sort buffers, kept so that a schedule rebuilt
  /// every adaptive round reuses them.
  std::vector<uint64_t> sort_keys;
  std::vector<uint64_t> sort_scratch;
};

/// The anchor a `direction` query of `triple` is scored from: the head for
/// tail queries, the tail for head queries.
inline int32_t QueryAnchor(const Triple& triple, QueryDirection direction) {
  return direction == QueryDirection::kTail ? triple.head : triple.tail;
}

/// Builds the schedule of the queries `query_ids[0, n)` (query id =
/// 2 * triple_index + (0 for the tail query, 1 for the head query)) into
/// `schedule`, reusing its buffers. Two stable radix sorts order the
/// queries, each O(n) whatever the entity count: by anchor, then by pool
/// slot DomainRangeIndex(relation, direction, num_relations). So head
/// queries come first, relations ascending, then tail queries; each slot's
/// queries are sorted by anchor, ties in `query_ids` order. One walk over
/// the sorted queries then fills the flat arrays and cuts a block at each
/// slot change, and at a new anchor once the block holds `query_block`
/// distinct anchors (`query_block` must be positive). Sharing a row is
/// exact only inside one relation, which is why blocks never mix slots.
/// RankQueries schedules every pass through this: all query ids in index
/// order for full ranking and fixed estimates, each round's slice of the
/// shuffled order for adaptive ones.
void BuildQuerySchedule(const std::vector<Triple>& triples,
                        int32_t num_relations, const int64_t* query_ids,
                        size_t n, size_t query_block, EvalSchedule* schedule);

/// A uniformly shuffled order over all 2 * num_triples query ids of a
/// split, where query id = 2 * triple_index + (0 for the tail query, 1 for
/// the head query) — the same packing as the evaluators' rank vectors.
/// Any prefix of the order is a simple random sample (without replacement)
/// of the split's query set, which is what makes the adaptive evaluator's
/// running mean an unbiased estimate with an honest iid confidence
/// interval. Deterministic given `rng`. Shuffling *queries* rather than
/// slot blocks matters: block-granular rounds are cluster samples of
/// same-relation queries whose ranks correlate, which biases small rounds
/// and collapses the effective sample size behind the CI. Ids are int64:
/// the query count is twice the triple count, so a 32-bit id would already
/// overflow past 2^30 triples.
std::vector<int64_t> ShuffledQueryOrder(int64_t num_triples, Rng* rng);

/// Partitions [0, blocks.size()) into at most ~`max_chunks` contiguous
/// [begin, end) ranges whose boundaries coincide with pool-slot boundaries,
/// so a slot's blocks land in one chunk and its candidate pool is prepared
/// once per chunk instead of once per arbitrary ParallelFor split. A slot
/// run much longer than the target chunk size is split anyway (keeping load
/// balance; each piece still prepares only its own slot's pool once).
/// `blocks` must be slot-contiguous, as BuildQuerySchedule emits them.
/// RankQueries cuts every pass with it.
std::vector<std::pair<size_t, size_t>> PartitionAtSlotBoundaries(
    const std::vector<SlotBlock>& blocks, size_t max_chunks);

}  // namespace kgeval

#endif  // KGEVAL_EVAL_SLOT_BLOCKS_H_

#ifndef KGEVAL_EVAL_SLOT_BLOCKS_H_
#define KGEVAL_EVAL_SLOT_BLOCKS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/triple.h"
#include "util/rng.h"

namespace kgeval {

/// One unit of slot-major evaluation work: a block of query indices that
/// share a relation and direction, all scored in one batched kernel
/// call. The block's queries are sorted by anchor (AppendAnchorBlocks), so
/// queries with the same anchor are adjacent and share one kernel score
/// row; the block holds at most the schedule's `query_block` distinct
/// anchors, however many queries repeat them. `relation` is the queries'
/// relation id, the one passed to the model's kernels. `pool_slot` is the
/// block's index into SampledCandidates.pools — and the key prepared
/// candidate tiles are reused under — which FilterIndex schedules keep
/// contiguous.
struct SlotBlock {
  int32_t relation;
  QueryDirection direction;
  const std::vector<int32_t>* triple_idx;  // Anchor-sorted run.
  size_t begin;                            // Block range within triple_idx.
  size_t end;
  int32_t pool_slot;
};

/// The anchor a `direction` query of `triple` is scored from: the head for
/// tail queries, the tail for head queries.
inline int32_t QueryAnchor(const Triple& triple, QueryDirection direction) {
  return direction == QueryDirection::kTail ? triple.head : triple.tail;
}

/// Reads a block's queries in schedule order: writes each distinct anchor
/// once to `anchors` (its score row), and each query's truth and the index
/// of its anchor's row to `truths[q]` and `truth_rows[q]`. Returns the row
/// count. The block is anchor-sorted, so a new row starts wherever the
/// anchor changes. `anchors` needs room for the block's distinct anchors,
/// the other two for its queries.
size_t BlockRows(const std::vector<Triple>& triples, const SlotBlock& block,
                 int32_t* anchors, int32_t* truths, int32_t* truth_rows);

/// The one block cutter of every schedule (FilterIndex::BuildQuerySchedule,
/// whose counting sorts order each run). `run` holds the triple indices of
/// one (relation, direction) run, already sorted by the direction's anchor;
/// it is cut into blocks of at most `query_block` distinct anchors,
/// appended to `blocks` with the given pool slot. The blocks point into
/// `run`, which must stay put while they are in use. `query_block` must be
/// positive. Sharing a row is exact only inside one relation, which is why
/// runs never mix relations.
void AppendAnchorBlocks(const std::vector<Triple>& triples,
                        QueryDirection direction, int32_t pool_slot,
                        size_t query_block, const std::vector<int32_t>* run,
                        std::vector<SlotBlock>* blocks);

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
/// `blocks` must be slot-contiguous, as FilterIndex schedules emit them.
/// RankQueries cuts every pass with it.
std::vector<std::pair<size_t, size_t>> PartitionAtSlotBoundaries(
    const std::vector<SlotBlock>& blocks, size_t max_chunks);

}  // namespace kgeval

#endif  // KGEVAL_EVAL_SLOT_BLOCKS_H_

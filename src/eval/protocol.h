#ifndef KGEVAL_EVAL_PROTOCOL_H_
#define KGEVAL_EVAL_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "eval/slot_blocks.h"
#include "graph/dataset.h"
#include "graph/triple.h"

namespace kgeval {

/// A slot-contiguous evaluation schedule built by FilterIndex: `blocks`
/// point into `runs`, whose inner vectors must stay put — the struct is
/// movable (vector moves steal the outer buffer, leaving the inner vector
/// objects in place) but must not be copied while the blocks are in use.
struct EvalSchedule {
  /// Query-triple indices of each (relation, direction) run, sorted by the
  /// direction's anchor: runs[2 * relation + (tail ? 0 : 1)]. Both
  /// directions of a triple share its relation, but each direction sorts
  /// by its own anchor, hence one run per direction.
  std::vector<std::vector<int32_t>> runs;
  /// Kernel-homogeneous blocks over the runs (AppendAnchorBlocks), ordered
  /// so that blocks sharing a pool slot are contiguous (the prepared-tile
  /// reuse contract of RankQueries and PartitionAtSlotBoundaries).
  std::vector<SlotBlock> blocks;
  /// BuildQuerySchedule's sort buffers, kept so that a schedule rebuilt
  /// every adaptive round reuses them.
  std::vector<uint64_t> sort_keys;
  std::vector<uint64_t> sort_scratch;
};

/// The filtered-ranking protocol and the membership index it filters with,
/// built over every triple of all splits. It owns the decisions the
/// scoring machinery — sampled pools, prepared tiles, fused kernels,
/// adaptive rounds and their confidence intervals — leaves open: how a
/// split's triples become ranking queries (one run per relation and
/// direction, so one batched kernel call serves a whole block), which
/// candidate pool each query ranks against (the relation's domain/range
/// slot), and which known-true answers are filtered out of that ranking
/// (any known (h, r, t) fact, from any split).
class FilterIndex {
 public:
  explicit FilterIndex(const Dataset& dataset);

  /// Known true answers filtered out of the query's ranking (they contain
  /// the query's own truth): tails of (h, r) for kTail queries, heads of
  /// (r, t) for kHead queries. Never nullptr for queries derived from the
  /// index's dataset.
  const std::vector<int32_t>* Answers(const Triple& triple,
                                      QueryDirection direction) const;

  /// Known true tails for (h, r), sorted; nullptr when none.
  const std::vector<int32_t>* TailsFor(int32_t head, int32_t relation) const;

  /// Known true heads for (r, t), sorted; nullptr when none.
  const std::vector<int32_t>* HeadsFor(int32_t relation, int32_t tail) const;

  /// Builds the slot-contiguous schedule of the queries `query_ids[0, n)`
  /// (query id = 2 * triple_index + (0 for the tail query, 1 for the head
  /// query)) into `schedule`, reusing its buffers. Two stable counting
  /// sorts order the queries: by anchor, in radix digits, so the cost is
  /// O(n) whatever the entity count; then into (relation, direction) runs.
  /// Each run is thus sorted by anchor, ties in `query_ids` order, and is
  /// cut by AppendAnchorBlocks at the pool slot DomainRangeIndex(relation,
  /// direction). Runs are emitted one direction at a time, relations
  /// ascending, so each pool slot's blocks are contiguous and each pool is
  /// prepared once per chunk. RankQueries schedules every pass through
  /// this: all query ids in index order for full ranking and fixed
  /// estimates, each round's slice of the shuffled order for adaptive ones.
  void BuildQuerySchedule(const std::vector<Triple>& triples,
                          const int64_t* query_ids, size_t n,
                          size_t query_block, EvalSchedule* schedule) const;

 private:
  using AnswerMap =
      std::unordered_map<uint64_t, std::vector<int32_t>, PairHash>;

  int32_t num_relations_;
  AnswerMap tails_;  // (h, r) -> sorted tails
  AnswerMap heads_;  // (r, t) -> sorted heads
};

}  // namespace kgeval

#endif  // KGEVAL_EVAL_PROTOCOL_H_

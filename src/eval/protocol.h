#ifndef KGEVAL_EVAL_PROTOCOL_H_
#define KGEVAL_EVAL_PROTOCOL_H_

#include <cstdint>
#include <vector>

#include "eval/slot_blocks.h"
#include "graph/dataset.h"
#include "graph/triple.h"

namespace kgeval {

/// A slot-contiguous evaluation schedule built by a protocol: `blocks`
/// point into `runs`, whose inner vectors must stay put — the struct is
/// movable (vector moves steal the outer buffer, leaving the inner vector
/// objects in place) but must not be copied while the blocks are in use.
struct EvalSchedule {
  /// Query-triple indices of each (protocol group, direction) run, sorted
  /// by the direction's anchor: runs[2 * group + (tail ? 0 : 1)]. Both
  /// directions of a triple share its group, but each direction sorts by
  /// its own anchor, hence one run per direction.
  std::vector<std::vector<int32_t>> runs;
  /// Kernel-homogeneous blocks over the runs (AppendAnchorBlocks), ordered
  /// so that blocks sharing a pool slot are contiguous (the prepared-tile
  /// reuse contract of ScoreSlotBlocks and PartitionAtSlotBoundaries).
  std::vector<SlotBlock> blocks;
};

/// An evaluation protocol owns the three decisions the evaluators used to
/// hard-code: how a split's triples become ranking queries (grouping and
/// schedule), which candidate pool each query ranks against, and which
/// known-true answers are filtered out of that ranking. The scoring
/// machinery — sampled pools, prepared tiles, fused kernels, adaptive
/// rounds and their confidence intervals — is protocol-agnostic and runs
/// unchanged over any implementation.
///
/// Queries are partitioned into *groups*: every query of a group shares a
/// dataset relation and, for time-aware protocols, a timestamp, so one
/// batched kernel call (whose kernel relation id the *model* derives from
/// any triple of the block via KgeModel::KernelRelation) serves a whole
/// block. Candidate pools stay keyed by (relation, direction) — 2|R| slots
/// — for every protocol: corruption pools are drawn from relation
/// domains/ranges regardless of how the filter slices time.
class EvalProtocol {
 public:
  virtual ~EvalProtocol() = default;

  EvalProtocol(const EvalProtocol&) = delete;
  EvalProtocol& operator=(const EvalProtocol&) = delete;

  /// Stable protocol name, as accepted by the service's EVAL command.
  virtual const char* name() const = 0;

  int32_t num_relations() const { return num_relations_; }

  /// Number of query groups (static: |R|; temporal: |R| * |T|).
  virtual int32_t num_groups() const = 0;

  /// The group of both queries derived from `triple`.
  virtual int32_t GroupOf(const Triple& triple) const = 0;

  /// The candidate pool slot (index into SampledCandidates.pools) ranked by
  /// a `direction` query of group `group`. Non-decreasing in `group` for a
  /// fixed direction — groups are relation-major — which is what keeps
  /// BuildQuerySchedule's blocks slot-contiguous.
  virtual int32_t PoolSlotOf(int32_t group, QueryDirection direction) const = 0;

  /// Pool slot for a concrete query — always the static domain/range slot
  /// of the triple's relation, for every protocol.
  int32_t PoolSlotFor(const Triple& triple, QueryDirection direction) const {
    return DomainRangeIndex(triple.relation, direction, num_relations_);
  }

  /// Known true answers filtered out of the query's ranking (must contain
  /// the query's own truth). Never nullptr for queries derived from the
  /// protocol's dataset.
  virtual const std::vector<int32_t>* Answers(
      const Triple& triple, QueryDirection direction) const = 0;

  /// Builds the slot-contiguous schedule over both queries of the first
  /// `num_triples` triples, with at most `query_block` distinct anchors
  /// per block: BuildQuerySchedule over every query id.
  EvalSchedule BuildSchedule(const std::vector<Triple>& triples,
                             int64_t num_triples, size_t query_block) const;

  /// Builds the slot-contiguous schedule of the queries `query_ids[0, n)`
  /// (query id = 2 * triple_index + (0 for the tail query, 1 for the head
  /// query)) into `schedule`, reusing its buffers. Queries are bucketed
  /// into (group, direction) runs, and each run is cut by
  /// AppendAnchorBlocks. Runs are emitted one direction at a time, groups
  /// ascending; PoolSlotOf is non-decreasing in the group for a fixed
  /// direction (groups are relation-major), so this order keeps each pool
  /// slot's blocks contiguous and prepares each pool once per chunk,
  /// however many groups share it. The adaptive evaluator schedules each
  /// round through this with the round's slice of the shuffled order.
  void BuildQuerySchedule(const std::vector<Triple>& triples,
                          const int64_t* query_ids, size_t n,
                          size_t query_block, EvalSchedule* schedule) const;

 protected:
  explicit EvalProtocol(int32_t num_relations)
      : num_relations_(num_relations) {}

 private:
  int32_t num_relations_;
};

/// The repo's established evaluation semantics, verbatim: one group per
/// relation, pools at the relation's domain/range slots, and the static
/// filtered-ranking rule — any known (h, r, t) fact, from any split and
/// whenever it held, is removed from the candidate list. Results are
/// bit-identical rank-for-rank to the pre-protocol evaluators (pinned by
/// tests/protocol_test.cc).
class StaticFilteredProtocol : public EvalProtocol {
 public:
  /// Borrows `filter`, which must outlive the protocol.
  StaticFilteredProtocol(int32_t num_relations, const FilterIndex* filter)
      : EvalProtocol(num_relations), filter_(filter) {}
  StaticFilteredProtocol(const Dataset& dataset, const FilterIndex* filter)
      : StaticFilteredProtocol(dataset.num_relations(), filter) {}

  const char* name() const override { return "static"; }
  int32_t num_groups() const override { return num_relations(); }
  int32_t GroupOf(const Triple& triple) const override {
    return triple.relation;
  }
  int32_t PoolSlotOf(int32_t group, QueryDirection direction) const override {
    return DomainRangeIndex(group, direction, num_relations());
  }
  const std::vector<int32_t>* Answers(
      const Triple& triple, QueryDirection direction) const override {
    return filter_->AnswersFor(triple, direction);
  }
 private:
  const FilterIndex* filter_;
};

/// Temporal KBC evaluation (Lacroix et al.): queries carry their triple's
/// timestamp, and only facts true *at that timestamp* are filtered — a
/// corruption that is a fact at another time keeps its place in the
/// ranking. Groups are (relation, timestamp) pairs so blocks stay
/// kernel-homogeneous for time-aware models (which fold the timestamp into
/// a virtual kernel relation id); candidate pools remain the 2|R| static
/// domain/range slots, so pool drawing, validation, and the estimators run
/// unchanged. Time-ignorant models evaluate fine under this protocol —
/// they just cannot use the timestamp to score.
class TemporalFilteredProtocol : public EvalProtocol {
 public:
  /// Borrows `filter`, which must outlive the protocol. A static dataset
  /// (num_timestamps 0) degenerates to one timestamp and static semantics.
  TemporalFilteredProtocol(const Dataset& dataset,
                           const TemporalFilterIndex* filter);

  const char* name() const override { return "temporal"; }
  int32_t num_timestamps() const { return num_timestamps_; }
  int32_t num_groups() const override {
    return num_relations() * num_timestamps_;
  }
  /// Groups are relation-major (g = r * |T| + tau): ascending group order
  /// keeps a relation's timestamps adjacent, which BuildQuerySchedule turns
  /// into pool-slot-contiguous block runs.
  int32_t GroupOf(const Triple& triple) const override {
    return triple.relation * num_timestamps_ + triple.time;
  }
  int32_t PoolSlotOf(int32_t group, QueryDirection direction) const override {
    return DomainRangeIndex(group / num_timestamps_, direction,
                            num_relations());
  }
  const std::vector<int32_t>* Answers(
      const Triple& triple, QueryDirection direction) const override {
    return filter_->AnswersFor(triple, direction);
  }
 private:
  const TemporalFilterIndex* filter_;
  int32_t num_timestamps_;
};

}  // namespace kgeval

#endif  // KGEVAL_EVAL_PROTOCOL_H_

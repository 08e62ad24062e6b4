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
  /// Copyable and movable only as a concrete protocol (a vector of indexes),
  /// never sliced through the base.
  EvalProtocol(const EvalProtocol&) = default;
  EvalProtocol(EvalProtocol&&) = default;
  EvalProtocol& operator=(const EvalProtocol&) = delete;

 private:
  int32_t num_relations_;
};

/// The static filtered-ranking protocol and the membership index it filters
/// with, built over every triple of all splits: one group per relation,
/// pools at the relation's domain/range slots, and any known (h, r, t)
/// fact, from any split and whenever it held, removed from the candidate
/// list.
class FilterIndex : public EvalProtocol {
 public:
  explicit FilterIndex(const Dataset& dataset);

  const char* name() const override { return "static"; }
  int32_t num_groups() const override { return num_relations(); }
  int32_t GroupOf(const Triple& triple) const override {
    return triple.relation;
  }
  int32_t PoolSlotOf(int32_t group, QueryDirection direction) const override {
    return DomainRangeIndex(group, direction, num_relations());
  }
  /// Tails of (h, r) for kTail queries, heads of (r, t) for kHead queries.
  const std::vector<int32_t>* Answers(
      const Triple& triple, QueryDirection direction) const override;

  /// Known true tails for (h, r), sorted; nullptr when none.
  const std::vector<int32_t>* TailsFor(int32_t head, int32_t relation) const;

  /// Known true heads for (r, t), sorted; nullptr when none.
  const std::vector<int32_t>* HeadsFor(int32_t relation, int32_t tail) const;

 private:
  struct PairHash {
    size_t operator()(uint64_t key) const {
      key ^= key >> 33;
      key *= 0xFF51AFD7ED558CCDULL;
      key ^= key >> 33;
      return static_cast<size_t>(key);
    }
  };
  using AnswerMap =
      std::unordered_map<uint64_t, std::vector<int32_t>, PairHash>;

  AnswerMap tails_;  // (h, r) -> sorted tails
  AnswerMap heads_;  // (r, t) -> sorted heads
};

/// Temporal KBC evaluation (Lacroix et al.) and its time-sliced membership
/// index: queries carry their triple's timestamp, and only facts true *at
/// that timestamp* are filtered — a corruption that is a fact at another
/// time keeps its place in the ranking, which makes this a second protocol
/// family rather than a bigger static one. Groups are (relation, timestamp)
/// pairs so blocks stay kernel-homogeneous for time-aware models (which fold
/// the timestamp into a virtual kernel relation id); candidate pools remain
/// the 2|R| static domain/range slots, so pool drawing, validation, and the
/// estimators run unchanged. Time-ignorant models evaluate fine under this
/// protocol — they just cannot use the timestamp to score.
class TemporalFilterIndex : public EvalProtocol {
 public:
  /// A static dataset (num_timestamps 0) degenerates to one timestamp and
  /// FilterIndex's answer sets.
  explicit TemporalFilterIndex(const Dataset& dataset);

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
  /// Known true answers at the query triple's own timestamp.
  const std::vector<int32_t>* Answers(
      const Triple& triple, QueryDirection direction) const override;

 private:
  struct Key {
    int32_t a = 0;  // head (tail queries) or relation (head queries)
    int32_t b = 0;  // relation (tail queries) or tail (head queries)
    int32_t time = 0;
    friend bool operator==(const Key& x, const Key& y) {
      return x.a == y.a && x.b == y.b && x.time == y.time;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t x = PackPair(k.a, k.b) ^
                   (static_cast<uint64_t>(static_cast<uint32_t>(k.time)) *
                    0x9E3779B97F4A7C15ULL);
      x ^= x >> 33;
      x *= 0xFF51AFD7ED558CCDULL;
      x ^= x >> 33;
      return static_cast<size_t>(x);
    }
  };
  using AnswerMap = std::unordered_map<Key, std::vector<int32_t>, KeyHash>;

  AnswerMap tails_;  // (h, r, tau) -> sorted tails
  AnswerMap heads_;  // (r, t, tau) -> sorted heads
  int32_t num_timestamps_;
};

}  // namespace kgeval

#endif  // KGEVAL_EVAL_PROTOCOL_H_

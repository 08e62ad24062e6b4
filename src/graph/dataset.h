#ifndef KGEVAL_GRAPH_DATASET_H_
#define KGEVAL_GRAPH_DATASET_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/triple.h"
#include "graph/type_store.h"

namespace kgeval {

/// Which split a triple belongs to.
enum class Split { kTrain = 0, kValid = 1, kTest = 2 };

/// A complete KGC dataset: vocabularies, the three splits, and (optionally)
/// entity types and human-readable labels. Immutable after construction.
class Dataset {
 public:
  Dataset() = default;
  Dataset(std::string name, int32_t num_entities, int32_t num_relations,
          std::vector<Triple> train, std::vector<Triple> valid,
          std::vector<Triple> test, TypeStore types);
  /// Temporal dataset: every triple's `time` must lie in
  /// [0, num_timestamps). num_timestamps == 0 declares a static dataset
  /// (all times must be 0).
  Dataset(std::string name, int32_t num_entities, int32_t num_relations,
          int32_t num_timestamps, std::vector<Triple> train,
          std::vector<Triple> valid, std::vector<Triple> test,
          TypeStore types);

  const std::string& name() const { return name_; }
  int32_t num_entities() const { return num_entities_; }
  int32_t num_relations() const { return num_relations_; }
  /// Size of the timestamp vocabulary; 0 for static datasets.
  int32_t num_timestamps() const { return num_timestamps_; }
  bool has_timestamps() const { return num_timestamps_ > 0; }

  const std::vector<Triple>& train() const { return train_; }
  const std::vector<Triple>& valid() const { return valid_; }
  const std::vector<Triple>& test() const { return test_; }
  const std::vector<Triple>& split(Split s) const {
    switch (s) {
      case Split::kTrain:
        return train_;
      case Split::kValid:
        return valid_;
      case Split::kTest:
        return test_;
    }
    return train_;
  }

  const TypeStore& types() const { return types_; }
  bool has_types() const { return !types_.empty(); }

  /// Optional labels for qualitative output (Table 10 style). Empty when the
  /// generator did not attach them.
  const std::vector<std::string>& entity_labels() const {
    return entity_labels_;
  }
  const std::vector<std::string>& relation_labels() const {
    return relation_labels_;
  }
  void set_entity_labels(std::vector<std::string> labels) {
    entity_labels_ = std::move(labels);
  }
  void set_relation_labels(std::vector<std::string> labels) {
    relation_labels_ = std::move(labels);
  }
  const std::vector<std::string>& timestamp_labels() const {
    return timestamp_labels_;
  }
  void set_timestamp_labels(std::vector<std::string> labels) {
    timestamp_labels_ = std::move(labels);
  }

  std::string EntityLabel(int32_t e) const;
  std::string RelationLabel(int32_t r) const;
  std::string TimestampLabel(int32_t t) const;

 private:
  std::string name_;
  int32_t num_entities_ = 0;
  int32_t num_relations_ = 0;
  int32_t num_timestamps_ = 0;
  std::vector<Triple> train_;
  std::vector<Triple> valid_;
  std::vector<Triple> test_;
  TypeStore types_;
  std::vector<std::string> entity_labels_;
  std::vector<std::string> relation_labels_;
  std::vector<std::string> timestamp_labels_;
};

/// Membership index over every triple in all splits, used for *filtered*
/// ranking: when ranking (h, r, ?) against candidate c, any other known-true
/// tail c is removed from the candidate list.
class FilterIndex {
 public:
  explicit FilterIndex(const Dataset& dataset);

  /// Known true tails for (h, r), sorted; nullptr when none.
  const std::vector<int32_t>* TailsFor(int32_t head, int32_t relation) const;

  /// Known true heads for (r, t), sorted; nullptr when none.
  const std::vector<int32_t>* HeadsFor(int32_t relation, int32_t tail) const;

  /// Known true answers for a query: tails of (h, r) for kTail queries,
  /// heads of (r, t) for kHead queries. Never nullptr for queries derived
  /// from dataset triples.
  const std::vector<int32_t>* AnswersFor(const Triple& triple,
                                         QueryDirection direction) const;

 private:
  struct PairHash {
    size_t operator()(uint64_t key) const {
      key ^= key >> 33;
      key *= 0xFF51AFD7ED558CCDULL;
      key ^= key >> 33;
      return static_cast<size_t>(key);
    }
  };
  template <typename V>
  using PairMap = std::unordered_map<uint64_t, V, PairHash>;

  PairMap<std::vector<int32_t>> tails_;  // (h, r) -> sorted tails
  PairMap<std::vector<int32_t>> heads_;  // (r, t) -> sorted heads
};

/// Time-sliced membership index over every triple in all splits, used by the
/// temporal filtered-ranking protocol (Lacroix et al.): when ranking
/// (h, r, ?, tau) against candidate c, only candidates true *at tau* are
/// removed. A fact that holds at another timestamp is a valid corruption
/// and keeps its place in the ranking — the semantic difference that makes
/// temporal evaluation a second protocol family rather than a bigger static
/// one. For a static dataset (all times 0) the index degenerates to
/// FilterIndex and yields identical answer sets.
class TemporalFilterIndex {
 public:
  explicit TemporalFilterIndex(const Dataset& dataset);

  /// Known true tails of (h, r) at timestamp `time`, sorted; nullptr when
  /// none.
  const std::vector<int32_t>* TailsAt(int32_t head, int32_t relation,
                                      int32_t time) const;

  /// Known true heads of (r, t) at timestamp `time`, sorted; nullptr when
  /// none.
  const std::vector<int32_t>* HeadsAt(int32_t relation, int32_t tail,
                                      int32_t time) const;

  /// Known true answers for a query at the query triple's own timestamp.
  /// Never nullptr for queries derived from dataset triples.
  const std::vector<int32_t>* AnswersFor(const Triple& triple,
                                         QueryDirection direction) const;

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
  template <typename V>
  using KeyMap = std::unordered_map<Key, V, KeyHash>;

  KeyMap<std::vector<int32_t>> tails_;  // (h, r, tau) -> sorted tails
  KeyMap<std::vector<int32_t>> heads_;  // (r, t, tau) -> sorted heads
};

/// Per-relation head/tail entity sets observed in given splits — exactly the
/// PyKEEN "Pseudo-Typed" (PT) candidate sets, and the seen/unseen divider
/// for Candidate Recall.
class ObservedSets {
 public:
  /// Builds sets from the listed splits of `dataset` (typically train, or
  /// train+valid to mirror the paper's "seen" definition).
  ObservedSets(const Dataset& dataset, const std::vector<Split>& splits);

  /// Sorted entity ids seen as head of `relation`.
  const std::vector<int32_t>& Domain(int32_t relation) const {
    return domains_[relation];
  }
  /// Sorted entity ids seen as tail of `relation`.
  const std::vector<int32_t>& Range(int32_t relation) const {
    return ranges_[relation];
  }

  /// Set for a domain/range index in [0, 2|R|).
  const std::vector<int32_t>& Set(int32_t dr_index) const;

  bool InDomain(int32_t relation, int32_t entity) const;
  bool InRange(int32_t relation, int32_t entity) const;

  int32_t num_relations() const {
    return static_cast<int32_t>(domains_.size());
  }

 private:
  std::vector<std::vector<int32_t>> domains_;
  std::vector<std::vector<int32_t>> ranges_;
};

}  // namespace kgeval

#endif  // KGEVAL_GRAPH_DATASET_H_

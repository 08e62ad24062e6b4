#ifndef KGEVAL_GRAPH_DATASET_H_
#define KGEVAL_GRAPH_DATASET_H_

#include <cstdint>
#include <string>
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

  const std::string& name() const { return name_; }
  int32_t num_entities() const { return num_entities_; }
  int32_t num_relations() const { return num_relations_; }

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

  /// Optional labels for qualitative output (Table 10 style). Without them
  /// EntityLabel/RelationLabel fall back to "E<id>" / "R<id>".
  void set_entity_labels(std::vector<std::string> labels) {
    entity_labels_ = std::move(labels);
  }
  void set_relation_labels(std::vector<std::string> labels) {
    relation_labels_ = std::move(labels);
  }

  std::string EntityLabel(int32_t e) const;
  std::string RelationLabel(int32_t r) const;

 private:
  std::string name_;
  int32_t num_entities_ = 0;
  int32_t num_relations_ = 0;
  std::vector<Triple> train_;
  std::vector<Triple> valid_;
  std::vector<Triple> test_;
  TypeStore types_;
  std::vector<std::string> entity_labels_;
  std::vector<std::string> relation_labels_;
};

/// Per-relation head/tail entity sets observed in given splits — exactly the
/// PyKEEN "Pseudo-Typed" (PT) candidate sets, and the seen/unseen divider
/// for Candidate Recall.
class ObservedSets {
 public:
  /// Builds sets from the listed splits of `dataset` (typically train, or
  /// train+valid to mirror the paper's "seen" definition).
  ObservedSets(const Dataset& dataset, const std::vector<Split>& splits);

  /// Sorted entity ids seen as head (domain) or tail (range) of a
  /// relation, by domain/range index in [0, 2|R|) (DomainRangeIndex).
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

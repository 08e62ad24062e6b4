#ifndef KGEVAL_GRAPH_DATASET_H_
#define KGEVAL_GRAPH_DATASET_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "graph/triple.h"
#include "graph/type_store.h"
#include "sparse/csr.h"

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

/// Slot membership observed in the listed splits: a 2|R| x |E| matrix whose
/// row DomainRangeIndex(r, d) lists the entities seen in that slot (domains
/// [0, |R|), ranges [|R|, 2|R|)), sorted and distinct, each valued by its
/// occurrence count. Over train it is PyKEEN's "Pseudo-Typed" (PT) sets and
/// the DBH scores; over train+valid it is the seen/unseen divider for
/// Candidate Recall. Built with two counting sorts (by entity, then stably
/// by slot): no hashing and no comparison sort.
CsrMatrix ObservedSlots(const Dataset& dataset,
                        std::initializer_list<Split> splits);

}  // namespace kgeval

#endif  // KGEVAL_GRAPH_DATASET_H_

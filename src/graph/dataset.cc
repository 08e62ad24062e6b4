#include "graph/dataset.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace kgeval {

Dataset::Dataset(std::string name, int32_t num_entities, int32_t num_relations,
                 std::vector<Triple> train, std::vector<Triple> valid,
                 std::vector<Triple> test, TypeStore types)
    : name_(std::move(name)),
      num_entities_(num_entities),
      num_relations_(num_relations),
      train_(std::move(train)),
      valid_(std::move(valid)),
      test_(std::move(test)),
      types_(std::move(types)) {
  for (const auto* split : {&train_, &valid_, &test_}) {
    for (const Triple& t : *split) {
      KGEVAL_CHECK(t.head >= 0 && t.head < num_entities_);
      KGEVAL_CHECK(t.tail >= 0 && t.tail < num_entities_);
      KGEVAL_CHECK(t.relation >= 0 && t.relation < num_relations_);
    }
  }
}

std::string Dataset::EntityLabel(int32_t e) const {
  if (e >= 0 && e < static_cast<int32_t>(entity_labels_.size())) {
    return entity_labels_[e];
  }
  return StrFormat("E%d", e);
}

std::string Dataset::RelationLabel(int32_t r) const {
  if (r >= 0 && r < static_cast<int32_t>(relation_labels_.size())) {
    return relation_labels_[r];
  }
  return StrFormat("R%d", r);
}

ObservedSets::ObservedSets(const Dataset& dataset,
                           const std::vector<Split>& splits)
    : domains_(dataset.num_relations()), ranges_(dataset.num_relations()) {
  for (Split s : splits) {
    for (const Triple& t : dataset.split(s)) {
      domains_[t.relation].push_back(t.head);
      ranges_[t.relation].push_back(t.tail);
    }
  }
  auto sort_dedup = [](std::vector<int32_t>* v) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  };
  for (auto& v : domains_) sort_dedup(&v);
  for (auto& v : ranges_) sort_dedup(&v);
}

const std::vector<int32_t>& ObservedSets::Set(int32_t dr_index) const {
  const int32_t num_r = num_relations();
  KGEVAL_DCHECK(dr_index >= 0 && dr_index < 2 * num_r);
  if (dr_index < num_r) return domains_[dr_index];
  return ranges_[dr_index - num_r];
}

bool ObservedSets::InDomain(int32_t relation, int32_t entity) const {
  const auto& v = domains_[relation];
  return std::binary_search(v.begin(), v.end(), entity);
}

bool ObservedSets::InRange(int32_t relation, int32_t entity) const {
  const auto& v = ranges_[relation];
  return std::binary_search(v.begin(), v.end(), entity);
}

}  // namespace kgeval

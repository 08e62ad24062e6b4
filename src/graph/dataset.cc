#include "graph/dataset.h"

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

CsrMatrix ObservedSlots(const Dataset& dataset,
                        std::initializer_list<Split> splits) {
  const int32_t num_e = dataset.num_entities();
  const int32_t num_r = dataset.num_relations();
  const int64_t num_slots = 2LL * num_r;

  // Counting sort by entity: the slots each entity occupied, one entry per
  // occurrence.
  std::vector<int64_t> by_entity(num_e + 1, 0);
  for (Split s : splits) {
    for (const Triple& t : dataset.split(s)) {
      ++by_entity[t.head + 1];
      ++by_entity[t.tail + 1];
    }
  }
  for (int32_t e = 0; e < num_e; ++e) by_entity[e + 1] += by_entity[e];
  std::vector<int32_t> entity_slots(by_entity[num_e]);
  std::vector<int64_t> cursor(by_entity.begin(), by_entity.end() - 1);
  std::vector<int64_t> row_ptr(num_slots + 1, 0);
  for (Split s : splits) {
    for (const Triple& t : dataset.split(s)) {
      entity_slots[cursor[t.head]++] = t.relation;
      entity_slots[cursor[t.tail]++] = t.relation + num_r;
      ++row_ptr[t.relation + 1];
      ++row_ptr[t.relation + num_r + 1];
    }
  }
  for (int64_t slot = 0; slot < num_slots; ++slot) {
    row_ptr[slot + 1] += row_ptr[slot];
  }

  // Stable counting sort by slot: entities arrive in ascending order, so a
  // repeat is always the entry last written to its slot and only bumps its
  // count.
  std::vector<int32_t> col_idx(entity_slots.size());
  std::vector<float> values(entity_slots.size());
  std::vector<int64_t> end(row_ptr.begin(), row_ptr.end() - 1);
  for (int32_t e = 0; e < num_e; ++e) {
    for (int64_t k = by_entity[e]; k < by_entity[e + 1]; ++k) {
      const int32_t slot = entity_slots[k];
      if (end[slot] > row_ptr[slot] && col_idx[end[slot] - 1] == e) {
        values[end[slot] - 1] += 1.0f;
      } else {
        col_idx[end[slot]] = e;
        values[end[slot]++] = 1.0f;
      }
    }
  }

  // Close the gaps the repeats left behind each row.
  int64_t nnz = 0;
  for (int64_t slot = 0; slot < num_slots; ++slot) {
    const int64_t begin = row_ptr[slot];
    row_ptr[slot] = nnz;
    for (int64_t k = begin; k < end[slot]; ++k, ++nnz) {
      col_idx[nnz] = col_idx[k];
      values[nnz] = values[k];
    }
  }
  row_ptr[num_slots] = nnz;
  col_idx.resize(nnz);
  values.resize(nnz);
  return CsrMatrix(num_slots, num_e, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

}  // namespace kgeval

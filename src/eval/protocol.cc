#include "eval/protocol.h"

#include <algorithm>
#include <cstdint>

namespace kgeval {
namespace {

void SortDedup(std::vector<int32_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

FilterIndex::FilterIndex(const Dataset& dataset) {
  for (Split s : {Split::kTrain, Split::kValid, Split::kTest}) {
    for (const Triple& t : dataset.split(s)) {
      tails_[PackPair(t.head, t.relation)].push_back(t.tail);
      heads_[PackPair(t.relation, t.tail)].push_back(t.head);
    }
  }
  for (auto& [key, v] : tails_) SortDedup(&v);
  for (auto& [key, v] : heads_) SortDedup(&v);
}

const std::vector<int32_t>* FilterIndex::TailsFor(int32_t head,
                                                  int32_t relation) const {
  auto it = tails_.find(PackPair(head, relation));
  return it == tails_.end() ? nullptr : &it->second;
}

const std::vector<int32_t>* FilterIndex::HeadsFor(int32_t relation,
                                                  int32_t tail) const {
  auto it = heads_.find(PackPair(relation, tail));
  return it == heads_.end() ? nullptr : &it->second;
}

const std::vector<int32_t>* FilterIndex::Answers(
    const Triple& triple, QueryDirection direction) const {
  if (direction == QueryDirection::kTail) {
    return TailsFor(triple.head, triple.relation);
  }
  return HeadsFor(triple.relation, triple.tail);
}

}  // namespace kgeval

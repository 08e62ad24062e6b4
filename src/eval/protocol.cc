#include "eval/protocol.h"

#include <algorithm>
#include <numeric>

namespace kgeval {

EvalSchedule FilterIndex::BuildSchedule(const std::vector<Triple>& triples,
                                        int64_t num_triples,
                                        size_t query_block) const {
  std::vector<int64_t> query_ids(2 * static_cast<size_t>(num_triples));
  std::iota(query_ids.begin(), query_ids.end(), int64_t{0});
  EvalSchedule schedule;
  BuildQuerySchedule(triples, query_ids.data(), query_ids.size(),
                     query_block, &schedule);
  return schedule;
}

void FilterIndex::BuildQuerySchedule(const std::vector<Triple>& triples,
                                     const int64_t* query_ids, size_t n,
                                     size_t query_block,
                                     EvalSchedule* schedule) const {
  // runs[2 * relation + d], where d is the query id's direction bit.
  schedule->runs.resize(2 * static_cast<size_t>(num_relations_));
  for (std::vector<int32_t>& run : schedule->runs) run.clear();
  schedule->blocks.clear();
  for (size_t k = 0; k < n; ++k) {
    const int32_t i = static_cast<int32_t>(query_ids[k] >> 1);
    const size_t r = static_cast<size_t>(triples[i].relation);
    schedule->runs[2 * r + static_cast<size_t>(query_ids[k] & 1)].push_back(i);
  }
  for (QueryDirection dir : {QueryDirection::kHead, QueryDirection::kTail}) {
    const size_t d = dir == QueryDirection::kTail ? 0 : 1;
    for (int32_t r = 0; r < num_relations_; ++r) {
      AppendAnchorBlocks(triples, dir, DomainRangeIndex(r, dir, num_relations_),
                         query_block,
                         &schedule->runs[2 * static_cast<size_t>(r) + d],
                         &schedule->blocks);
    }
  }
}

namespace {

void SortDedup(std::vector<int32_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

FilterIndex::FilterIndex(const Dataset& dataset)
    : num_relations_(dataset.num_relations()) {
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

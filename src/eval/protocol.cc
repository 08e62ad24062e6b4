#include "eval/protocol.h"

#include <algorithm>
#include <cstdint>

namespace kgeval {
namespace {

void SortDedup(std::vector<int32_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

/// Digit width of the anchor radix sort: a 2^11-entry histogram stays in
/// L1, and two passes cover every graph below 2^22 entities.
constexpr int kRadixBits = 11;

/// Stable LSD radix sort of `keys` by their upper 32 bits, in as few
/// digits of at most kRadixBits as `max_high` needs. A pass costs
/// O(n + 2^kRadixBits), never O(max_high), so an adaptive round of a few
/// hundred queries sorts in microseconds on any graph.
void RadixSortByHighWord(uint32_t max_high, std::vector<uint64_t>* keys,
                         std::vector<uint64_t>* scratch) {
  const int bits = max_high == 0 ? 0 : 32 - __builtin_clz(max_high);
  const int passes = (bits + kRadixBits - 1) / kRadixBits;
  if (passes == 0) return;
  const int width = (bits + passes - 1) / passes;
  const uint64_t digit_mask = (uint64_t{1} << width) - 1;
  uint32_t start[size_t{1} << kRadixBits];
  scratch->resize(keys->size());
  for (int p = 0; p < passes; ++p) {
    const int shift = 32 + p * width;
    std::fill(start, start + (size_t{1} << width), 0u);
    for (uint64_t key : *keys) ++start[(key >> shift) & digit_mask];
    uint32_t sum = 0;
    for (size_t d = 0; d <= digit_mask; ++d) {
      const uint32_t count = start[d];
      start[d] = sum;
      sum += count;
    }
    for (uint64_t key : *keys) {
      (*scratch)[start[(key >> shift) & digit_mask]++] = key;
    }
    keys->swap(*scratch);
  }
}

}  // namespace

void FilterIndex::BuildQuerySchedule(const std::vector<Triple>& triples,
                                     const int64_t* query_ids, size_t n,
                                     size_t query_block,
                                     EvalSchedule* schedule) const {
  // Two stable counting sorts: first by anchor (radix digits), then into
  // runs[2 * relation + d], where d is the query id's direction bit. So
  // each run comes out anchor-sorted, ties in input order, and
  // AppendAnchorBlocks only has to cut it. A key is the anchor above the
  // query id; a query id fits 32 bits because triple indices are int32.
  std::vector<uint64_t>& keys = schedule->sort_keys;
  keys.resize(n);
  uint32_t max_anchor = 0;
  for (size_t k = 0; k < n; ++k) {
    const Triple& triple = triples[static_cast<size_t>(query_ids[k] >> 1)];
    const uint32_t anchor = static_cast<uint32_t>(
        (query_ids[k] & 1) != 0 ? triple.tail : triple.head);
    max_anchor = std::max(max_anchor, anchor);
    keys[k] = (uint64_t{anchor} << 32) | static_cast<uint32_t>(query_ids[k]);
  }
  RadixSortByHighWord(max_anchor, &keys, &schedule->sort_scratch);
  schedule->runs.resize(2 * static_cast<size_t>(num_relations_));
  for (std::vector<int32_t>& run : schedule->runs) run.clear();
  schedule->blocks.clear();
  for (uint64_t key : keys) {
    const uint32_t id = static_cast<uint32_t>(key);
    const int32_t i = static_cast<int32_t>(id >> 1);
    const size_t r = static_cast<size_t>(triples[i].relation);
    schedule->runs[2 * r + (id & 1)].push_back(i);
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

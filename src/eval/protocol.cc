#include "eval/protocol.h"

#include <algorithm>
#include <numeric>

namespace kgeval {

EvalSchedule EvalProtocol::BuildSchedule(const std::vector<Triple>& triples,
                                         int64_t num_triples,
                                         size_t query_block) const {
  std::vector<int64_t> query_ids(2 * static_cast<size_t>(num_triples));
  std::iota(query_ids.begin(), query_ids.end(), int64_t{0});
  EvalSchedule schedule;
  BuildQuerySchedule(triples, query_ids.data(), query_ids.size(),
                     query_block, &schedule);
  return schedule;
}

void EvalProtocol::BuildQuerySchedule(const std::vector<Triple>& triples,
                                      const int64_t* query_ids, size_t n,
                                      size_t query_block,
                                      EvalSchedule* schedule) const {
  // runs[2 * group + d], where d is the query id's direction bit.
  schedule->runs.resize(2 * static_cast<size_t>(num_groups()));
  for (std::vector<int32_t>& run : schedule->runs) run.clear();
  schedule->blocks.clear();
  for (size_t k = 0; k < n; ++k) {
    const int32_t i = static_cast<int32_t>(query_ids[k] >> 1);
    const size_t g = static_cast<size_t>(GroupOf(triples[i]));
    schedule->runs[2 * g + static_cast<size_t>(query_ids[k] & 1)].push_back(i);
  }
  for (QueryDirection dir : {QueryDirection::kHead, QueryDirection::kTail}) {
    const size_t d = dir == QueryDirection::kTail ? 0 : 1;
    for (int32_t g = 0; g < num_groups(); ++g) {
      AppendAnchorBlocks(triples, dir, PoolSlotOf(g, dir), query_block,
                         &schedule->runs[2 * static_cast<size_t>(g) + d],
                         &schedule->blocks);
    }
  }
}

TemporalFilteredProtocol::TemporalFilteredProtocol(
    const Dataset& dataset, const TemporalFilterIndex* filter)
    : EvalProtocol(dataset.num_relations()),
      filter_(filter),
      num_timestamps_(std::max<int32_t>(1, dataset.num_timestamps())) {}

}  // namespace kgeval

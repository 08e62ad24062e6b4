#ifndef KGEVAL_TESTS_TILED_RANKING_H_
#define KGEVAL_TESTS_TILED_RANKING_H_

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "eval/full_evaluator.h"
#include "eval/slot_blocks.h"
#include "graph/dataset.h"
#include "models/kge_model.h"

namespace kgeval {

/// Full filtered ranks of the first `num_triples` test triples (two per
/// triple, tail query first) with the entity range prepared in `tile`-entity
/// tiles: the RankQueries pass EvaluateFullRanking runs, but over a pool
/// tiled narrower than kPoolTile, so small graphs sweep several tiles.
inline std::vector<double> TiledFullRanks(const KgeModel& model,
                                          const Dataset& dataset,
                                          const FilterIndex& filter,
                                          size_t num_triples, size_t tile) {
  std::vector<int32_t> entities(dataset.num_entities());
  std::iota(entities.begin(), entities.end(), 0);
  PreparedPool pool;
  pool.Prepare(model, entities.data(), entities.size(), tile);
  std::vector<int64_t> query_ids(2 * num_triples);
  std::iota(query_ids.begin(), query_ids.end(), int64_t{0});
  std::vector<double> ranks(query_ids.size(), 0.0);
  EvalSchedule schedule;
  RankQueries(model, dataset, Split::kTest, filter, query_ids.data(),
              query_ids.size(), /*query_block=*/16, TieBreak::kMean,
              [&](int32_t, PreparedPool*) -> const PreparedPool& {
                return pool;
              },
              /*cancel=*/nullptr, &schedule, ranks.data());
  return ranks;
}

}  // namespace kgeval

#endif  // KGEVAL_TESTS_TILED_RANKING_H_

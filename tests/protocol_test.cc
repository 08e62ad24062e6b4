#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "core/sampled_evaluator.h"
#include "core/samplers.h"
#include "eval/full_evaluator.h"
#include "eval/protocol.h"
#include "eval/slot_blocks.h"
#include "graph/dataset.h"
#include "models/kge_model.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "tests/fake_model.h"
#include "tests/gate_data.h"
#include "tests/tiled_ranking.h"
#include "util/rng.h"

namespace kgeval {
namespace {

ModelOptions SmallOptions() {
  ModelOptions options;
  options.dim = 16;
  options.seed = 7;
  return options;
}

Dataset SynthDataset() {
  SynthConfig config;
  config.num_entities = 500;
  config.num_relations = 12;
  config.num_types = 8;
  config.num_train = 6000;
  config.num_valid = 400;
  config.num_test = 400;
  config.seed = 42;
  return GenerateDataset(config).ValueOrDie().dataset;
}

/// Exhaustive candidate pools: every slot ranks against all entities, so
/// sampled pool-ranks must coincide with full filtered ranks.
SampledCandidates ExhaustivePools(int32_t num_entities, int32_t num_slots) {
  SampledCandidates pools;
  std::vector<int32_t> all(num_entities);
  std::iota(all.begin(), all.end(), 0);
  pools.pools.assign(num_slots, all);
  return pools;
}

/// A split where most test queries repeat an (anchor, relation) pair in
/// both directions: each relation's test triples are a grid over four
/// heads and five tails, plus an exact duplicate and a grid anchor with a
/// truth outside the grid. Train holds the rest of the grid and a
/// scattering of other facts, so filtering has answers to take back.
Dataset DuplicateQueryDataset() {
  constexpr int32_t kEntities = 50;
  constexpr int32_t kRelations = 3;
  std::vector<Triple> train, test;
  for (int32_t r = 0; r < kRelations; ++r) {
    for (int32_t h = r; h < r + 4; ++h) {
      for (int32_t t = 20; t < 25; ++t) {
        ((h + t + r) % 4 == 0 ? train : test).push_back({h, r, t});
      }
    }
    test.push_back({r, r, 21});
    test.push_back({r, r, 21});
    test.push_back({r + 1, r, 30});
  }
  for (int32_t k = 0; k < 300; ++k) {
    train.push_back({(k * 7) % kEntities, k % kRelations,
                     (k * 13 + 5) % kEntities});
  }
  return Dataset("duplicate-queries", kEntities, kRelations, std::move(train),
                 /*valid=*/{}, std::move(test), TypeStore());
}

/// Every (triple, direction) query of the first `num_triples` triples.
std::set<std::pair<int32_t, int32_t>> AllQueries(int64_t num_triples) {
  std::set<std::pair<int32_t, int32_t>> queries;
  for (int32_t i = 0; i < num_triples; ++i) {
    queries.insert({i, 0});
    queries.insert({i, 1});
  }
  return queries;
}

/// The schedule over both queries of the first `num_triples` triples:
/// BuildQuerySchedule over every query id, in index order.
EvalSchedule FullSchedule(const std::vector<Triple>& triples,
                          int32_t num_relations, int64_t num_triples,
                          size_t query_block) {
  std::vector<int64_t> ids(2 * static_cast<size_t>(num_triples));
  std::iota(ids.begin(), ids.end(), int64_t{0});
  EvalSchedule schedule;
  BuildQuerySchedule(triples, num_relations, ids.data(), ids.size(),
                     query_block, &schedule);
  return schedule;
}

/// The schedule contract every evaluator relies on: the scheduled queries
/// are exactly `expected`, each once; every block holds one relation,
/// ranks against that relation's domain/range slot, and holds at most
/// `query_block` distinct anchors; anchors never decrease
/// within a pool slot and no anchor is split across blocks (so each
/// distinct query is scored once); blocks sharing a pool slot are
/// contiguous (the prepare-once contract); and each block's rows are the
/// distinct anchors of its queries, in order, each query's truth is its
/// triple's for the block's direction and its row holds its anchor.
void ExpectScheduleInvariants(
    const std::vector<Triple>& triples, int32_t num_relations,
    const EvalSchedule& schedule, size_t query_block,
    const std::set<std::pair<int32_t, int32_t>>& expected) {
  std::set<std::pair<int32_t, int32_t>> seen;
  std::set<int32_t> closed_slots;
  std::set<std::tuple<int32_t, int32_t, int32_t>> closed_anchors;
  std::map<int32_t, int32_t> slot_last_anchor;
  int32_t current_slot = -1;
  for (const SlotBlock& block : schedule.blocks) {
    ASSERT_LT(block.begin, block.end);
    if (block.pool_slot != current_slot) {
      ASSERT_TRUE(closed_slots.insert(block.pool_slot).second)
          << "pool slot " << block.pool_slot << " revisited";
      current_slot = block.pool_slot;
    }
    const int32_t dir = static_cast<int32_t>(block.direction);
    EXPECT_EQ(block.pool_slot,
              DomainRangeIndex(block.relation, block.direction, num_relations));
    std::set<int32_t> block_anchors;
    std::vector<int32_t> distinct_anchors;
    for (size_t i = block.begin; i < block.end; ++i) {
      const int32_t idx = schedule.triple_idx[i];
      EXPECT_EQ(triples[idx].relation, block.relation);
      const int32_t anchor = QueryAnchor(triples[idx], block.direction);
      auto last = slot_last_anchor.emplace(block.pool_slot, anchor).first;
      EXPECT_GE(anchor, last->second) << "anchors decrease within a slot";
      last->second = anchor;
      block_anchors.insert(anchor);
      if (distinct_anchors.empty() || distinct_anchors.back() != anchor) {
        distinct_anchors.push_back(anchor);
      }
      EXPECT_EQ(schedule.truths[i], block.direction == QueryDirection::kTail
                                        ? triples[idx].tail
                                        : triples[idx].head);
      const size_t row = block.row_begin + schedule.truth_rows[i];
      ASSERT_LT(row, block.row_end);
      EXPECT_EQ(schedule.anchors[row], anchor) << "query row";
      EXPECT_TRUE(seen.insert({idx, dir}).second) << "query scheduled twice";
    }
    EXPECT_EQ(std::vector<int32_t>(schedule.anchors.begin() + block.row_begin,
                                   schedule.anchors.begin() + block.row_end),
              distinct_anchors)
        << "block rows";
    EXPECT_LE(block_anchors.size(), query_block);
    for (int32_t anchor : block_anchors) {
      EXPECT_TRUE(closed_anchors.insert({block.relation, dir, anchor}).second)
          << "anchor " << anchor << " split across blocks";
    }
  }
  EXPECT_EQ(seen, expected);
}

/// Full-ranking ranks against an oracle that shares no code with it: the
/// scalar sampled evaluator on exhaustive pools, which scores every query
/// on its own through ScoreCandidates and ranks by FilteredRank. Ranking
/// the same queries over 7-entity tiles forces multi-tile sweeps.
void ExpectFullRankingMatchesScalarOracle(const KgeModel& model,
                                          const Dataset& dataset,
                                          const FilterIndex& filter) {
  const SampledCandidates pools = ExhaustivePools(
      dataset.num_entities(), 2 * dataset.num_relations());
  const EstimateResult oracle =
      EvaluateSampledScalar(model, dataset, filter, Split::kTest, pools);
  const FullEvalResult full =
      EvaluateFullRanking(model, dataset, filter, Split::kTest);
  EXPECT_EQ(full.ranks, oracle.ranks) << model.name();
  EXPECT_DOUBLE_EQ(full.metrics.mrr, oracle.metrics.mrr) << model.name();
  EXPECT_EQ(TiledFullRanks(model, dataset, filter, dataset.test().size(),
                           /*tile=*/7),
            oracle.ranks)
      << model.name();
}

// ---------------------------------------------------------------------------
// The prepared engines agree bit for bit with the scalar reference on every
// model, and exhaustive pools reproduce full ranking.
// ---------------------------------------------------------------------------

TEST(StaticParityTest, SampledEnginesBitExactAcrossAllModels) {
  // Two inputs: the small synthetic graph, and Table 9's engine-comparison
  // setting (scaled codex-s, untrained dim-32 models, random pools of 10%
  // of the entities drawn from Rng(91)).
  struct Input {
    Dataset dataset;
    ModelOptions options;
    uint64_t pool_seed;
    int64_t n_s;
  };
  ModelOptions table9_options;
  table9_options.dim = 32;
  Dataset codex_s = CodexS();
  const int64_t codex_s_n_s =
      static_cast<int64_t>(0.1 * codex_s.num_entities());
  const Input inputs[] = {
      {SynthDataset(), SmallOptions(), 13, 60},
      {std::move(codex_s), table9_options, 91, codex_s_n_s}};
  for (const Input& input : inputs) {
    const Dataset& dataset = input.dataset;
    SCOPED_TRACE(dataset.name());
    const FilterIndex filter(dataset);
    Rng rng(input.pool_seed);
    const SampledCandidates pools = DrawCandidates(
        SamplingStrategy::kRandom, nullptr, dataset.num_entities(), input.n_s,
        NeededSlots(dataset, Split::kTest), 2 * dataset.num_relations(),
        &rng);
    for (ModelType type : kAllModelTypes) {
      auto model = CreateModel(type, dataset.num_entities(),
                               dataset.num_relations(), input.options)
                       .ValueOrDie();
      const EstimateResult prepared =
          EvaluateSampled(*model, dataset, filter, Split::kTest, pools);
      const EstimateResult scalar = EvaluateSampledScalar(
          *model, dataset, filter, Split::kTest, pools);
      EXPECT_EQ(prepared.ranks, scalar.ranks) << ModelTypeName(type);
      EXPECT_EQ(prepared.scored_candidates, scalar.scored_candidates)
          << ModelTypeName(type);
      EXPECT_DOUBLE_EQ(prepared.metrics.mrr, scalar.metrics.mrr)
          << ModelTypeName(type);
    }
  }
}

TEST(StaticParityTest, ExhaustivePoolsReproduceFullRanking) {
  // With every entity in every pool, the sampled estimator *is* the full
  // evaluator: pool-ranks equal exhaustive filtered ranks query for query.
  // Three inputs: untrained DistMult and RotatE on the small synthetic
  // graph, and ComplEx trained for one epoch on scaled codex-s.
  const Dataset small = SynthDataset();
  const Dataset codex_s = CodexS();
  std::vector<std::pair<const Dataset*, std::unique_ptr<KgeModel>>> inputs;
  for (ModelType type : {ModelType::kDistMult, ModelType::kRotatE}) {
    auto model = CreateModel(type, small.num_entities(),
                             small.num_relations(), SmallOptions())
                     .ValueOrDie();
    inputs.emplace_back(&small, std::move(model));
  }
  inputs.emplace_back(&codex_s, TrainGateModel(codex_s, GateTraining()));
  for (const auto& [dataset, model] : inputs) {
    SCOPED_TRACE(dataset->name());
    const FilterIndex filter(*dataset);
    const SampledCandidates pools = ExhaustivePools(
        dataset->num_entities(), 2 * dataset->num_relations());
    const EstimateResult sampled =
        EvaluateSampled(*model, *dataset, filter, Split::kTest, pools);
    const FullEvalResult full =
        EvaluateFullRanking(*model, *dataset, filter, Split::kTest);
    ASSERT_EQ(full.ranks.size(), 2 * dataset->test().size());
    EXPECT_EQ(sampled.ranks, full.ranks) << model->name();
    EXPECT_DOUBLE_EQ(sampled.metrics.mrr, full.metrics.mrr) << model->name();
  }
}

TEST(StaticParityTest, ScheduleIsGroupHomogeneousAndComplete) {
  for (const Dataset& dataset : {SynthDataset(), DuplicateQueryDataset()}) {
    const std::vector<Triple>& triples = dataset.test();
    const int64_t n = static_cast<int64_t>(triples.size());
    for (size_t query_block : {size_t{1}, size_t{3}, size_t{16}}) {
      const EvalSchedule schedule =
          FullSchedule(triples, dataset.num_relations(), n, query_block);
      ExpectScheduleInvariants(triples, dataset.num_relations(), schedule,
                               query_block, AllQueries(n));
    }
  }
}

TEST(StaticParityTest, FullRankingMatchesScalarOracleOnDuplicateQueries) {
  const Dataset dataset = DuplicateQueryDataset();
  const FilterIndex filter(dataset);
  // One model per kernel family: dot, dot + per-entity bias, L1 distance,
  // complex distance.
  for (ModelType type : {ModelType::kDistMult, ModelType::kConvE,
                         ModelType::kTransE, ModelType::kRotatE}) {
    auto model = CreateModel(type, dataset.num_entities(),
                             dataset.num_relations(), SmallOptions())
                     .ValueOrDie();
    ExpectFullRankingMatchesScalarOracle(*model, dataset, filter);
  }
}

TEST(StaticParityTest, RankQueriesOnAShuffledSliceMatchesFullRanking) {
  // A full-ranked subset of queries: a seeded, shuffled slice of the test
  // split's query ids, ranked by one RankQueries call against the shared
  // entity pool, reproduces EvaluateFullRanking's ranks for the slice bit
  // for bit and leaves every other rank at 0.0. The pool's tile and the
  // query block differ from full ranking's, which must not matter.
  const Dataset dataset = SynthDataset();
  const FilterIndex filter(dataset);
  const std::vector<Triple>& triples = dataset.test();
  Rng rng(17);
  std::vector<int64_t> slice =
      ShuffledQueryOrder(static_cast<int64_t>(triples.size()), &rng);
  slice.resize(slice.size() / 3);
  std::vector<int32_t> entities(dataset.num_entities());
  std::iota(entities.begin(), entities.end(), 0);
  // One model per kernel family: dot, dot + per-entity bias, L1 distance,
  // complex distance.
  for (ModelType type : {ModelType::kDistMult, ModelType::kConvE,
                         ModelType::kTransE, ModelType::kRotatE}) {
    auto model = CreateModel(type, dataset.num_entities(),
                             dataset.num_relations(), SmallOptions())
                     .ValueOrDie();
    SCOPED_TRACE(model->name());
    PreparedPool pool;
    pool.Prepare(*model, entities.data(), entities.size(), /*tile_size=*/7);
    std::vector<double> ranks(2 * triples.size(), 0.0);
    EvalSchedule schedule;
    const int64_t scored = RankQueries(
        *model, dataset, Split::kTest, filter, slice.data(), slice.size(),
        /*query_block=*/5, TieBreak::kMean,
        [&](int32_t, PreparedPool*) -> const PreparedPool& { return pool; },
        /*cancel=*/nullptr, &schedule, ranks.data());
    EXPECT_EQ(scored, static_cast<int64_t>(slice.size() *
                                           (entities.size() + 1)));
    const FullEvalResult full =
        EvaluateFullRanking(*model, dataset, filter, Split::kTest);
    std::vector<double> expected(ranks.size(), 0.0);
    for (int64_t id : slice) expected[id] = full.ranks[id];
    EXPECT_EQ(ranks, expected);
  }
}

TEST(StaticParityTest, ScoredCandidatesCountEvaluatedQueries) {
  // `scored_candidates` is pool size + 1 per evaluated query, whether or
  // not the query shares its score row with a duplicate: the scalar
  // oracle's count, which the served `scored=` field reads.
  const Dataset dataset = DuplicateQueryDataset();
  const FilterIndex filter(dataset);
  Rng rng(41);
  const SampledCandidates pools = DrawCandidates(
      SamplingStrategy::kRandom, nullptr, dataset.num_entities(),
      /*n_s=*/20, NeededSlots(dataset, Split::kTest),
      2 * dataset.num_relations(), &rng);
  auto model = CreateModel(ModelType::kComplEx, dataset.num_entities(),
                           dataset.num_relations(), SmallOptions())
                   .ValueOrDie();
  const EstimateResult scalar =
      EvaluateSampledScalar(*model, dataset, filter, Split::kTest, pools);
  const EstimateResult sampled =
      EvaluateSampled(*model, dataset, filter, Split::kTest, pools);
  EXPECT_EQ(sampled.ranks, scalar.ranks);
  EXPECT_EQ(sampled.scored_candidates, scalar.scored_candidates);

  // A whole-split adaptive pass scores what the scalar oracle scores; a
  // budget-stopped one scores pool size + 1 for each query it evaluated.
  EstimateRequest request;
  request.adaptive.emplace();
  request.adaptive->target_half_width = 0.0;
  request.adaptive->min_queries = 1;
  request.adaptive->batch_queries = 16;
  const EstimateResult whole =
      EvaluateSampled(*model, dataset, filter, Split::kTest, pools, request);
  EXPECT_EQ(whole.evaluated_queries, whole.total_queries);
  EXPECT_EQ(whole.scored_candidates, scalar.scored_candidates);
  request.max_triples = static_cast<int64_t>(dataset.test().size()) / 3;
  const EstimateResult budgeted =
      EvaluateSampled(*model, dataset, filter, Split::kTest, pools, request);
  ASSERT_EQ(budgeted.evaluated_queries, 2 * request.max_triples);
  ASSERT_LT(budgeted.evaluated_queries, budgeted.total_queries);
  int64_t expected = 0;
  const std::vector<Triple>& triples = dataset.test();
  for (size_t q = 0; q < budgeted.ranks.size(); ++q) {
    if (budgeted.ranks[q] == 0.0) continue;  // Never scored by the pass.
    EXPECT_EQ(budgeted.ranks[q], scalar.ranks[q]) << "query " << q;
    const QueryDirection dir =
        q % 2 == 0 ? QueryDirection::kTail : QueryDirection::kHead;
    const int32_t slot =
        DomainRangeIndex(triples[q / 2].relation, dir, dataset.num_relations());
    expected += static_cast<int64_t>(pools.pools[slot].size() + 1);
  }
  EXPECT_EQ(budgeted.scored_candidates, expected);
}

/// One block of a schedule, by value: what a block ranks and in which
/// order, its score rows (distinct anchors), and per query its truth and
/// row.
struct BlockContents {
  int32_t relation;
  QueryDirection direction;
  int32_t pool_slot;
  std::vector<int32_t> triples;
  std::vector<int32_t> rows;
  std::vector<int32_t> truths;
  std::vector<int32_t> truth_rows;

  bool operator==(const BlockContents& o) const {
    return relation == o.relation && direction == o.direction &&
           pool_slot == o.pool_slot && triples == o.triples &&
           rows == o.rows && truths == o.truths && truth_rows == o.truth_rows;
  }
};

std::ostream& operator<<(std::ostream& os, const BlockContents& b) {
  const auto list = [&](const char* name, const std::vector<int32_t>& v) {
    os << " " << name << "=[";
    for (int32_t i : v) os << i << ",";
    os << "]";
  };
  os << "{r=" << b.relation << " dir=" << static_cast<int>(b.direction)
     << " slot=" << b.pool_slot;
  list("triples", b.triples);
  list("rows", b.rows);
  list("truths", b.truths);
  list("truth_rows", b.truth_rows);
  return os << "}";
}

std::vector<BlockContents> Contents(const EvalSchedule& schedule) {
  std::vector<BlockContents> out;
  const auto range = [](const std::vector<int32_t>& v, size_t lo, size_t hi) {
    return std::vector<int32_t>(v.begin() + lo, v.begin() + hi);
  };
  for (const SlotBlock& b : schedule.blocks) {
    out.push_back({b.relation, b.direction, b.pool_slot,
                   range(schedule.triple_idx, b.begin, b.end),
                   range(schedule.anchors, b.row_begin, b.row_end),
                   range(schedule.truths, b.begin, b.end),
                   range(schedule.truth_rows, b.begin, b.end)});
  }
  return out;
}

/// The schedule builder the counting sorts replaced, kept here as the
/// reference: bucket the query ids into (relation, direction) runs in
/// input order, stable-sort each run by its anchor, then walk the runs
/// head direction first, relations ascending, cutting each into blocks of
/// at most `query_block` distinct anchors, each distinct anchor a row.
std::vector<BlockContents> StableSortSchedule(
    const std::vector<Triple>& triples, int32_t num_relations,
    const int64_t* query_ids, size_t n, size_t query_block) {
  std::vector<std::vector<int32_t>> runs(2 * num_relations);
  for (size_t k = 0; k < n; ++k) {
    const int32_t i = static_cast<int32_t>(query_ids[k] >> 1);
    runs[2 * triples[i].relation + (query_ids[k] & 1)].push_back(i);
  }
  std::vector<BlockContents> blocks;
  for (QueryDirection dir : {QueryDirection::kHead, QueryDirection::kTail}) {
    for (int32_t r = 0; r < num_relations; ++r) {
      std::vector<int32_t>& run =
          runs[2 * r + (dir == QueryDirection::kTail ? 0 : 1)];
      const auto anchor = [&](int32_t i) {
        return QueryAnchor(triples[i], dir);
      };
      std::stable_sort(run.begin(), run.end(), [&](int32_t a, int32_t b) {
        return anchor(a) < anchor(b);
      });
      const int32_t slot = DomainRangeIndex(r, dir, num_relations);
      size_t distinct = 0;
      for (size_t i = 0; i < run.size(); ++i) {
        const bool new_anchor = i == 0 || anchor(run[i]) != anchor(run[i - 1]);
        if (new_anchor && distinct == query_block) {
          distinct = 0;
        }
        if (new_anchor && distinct++ == 0) {
          blocks.push_back({r, dir, slot, {}, {}, {}, {}});
        }
        BlockContents& block = blocks.back();
        if (new_anchor) block.rows.push_back(anchor(run[i]));
        block.triples.push_back(run[i]);
        block.truths.push_back(dir == QueryDirection::kTail
                                   ? triples[run[i]].tail
                                   : triples[run[i]].head);
        block.truth_rows.push_back(static_cast<int32_t>(block.rows.size()) -
                                   1);
      }
    }
  }
  return blocks;
}

/// Random triples over few entities and relations, so anchors repeat
/// heavily within and across runs (duplicate triples included), with the
/// entity ids spread to `max_entity` so the anchor sort needs several
/// digits.
Dataset RepeatedAnchorDataset(int32_t max_entity, uint64_t seed) {
  constexpr int32_t kRelations = 5;
  Rng rng(seed);
  const int32_t picks[] = {0, 1, 2, 3, 2047, 2048, max_entity / 2,
                           max_entity - 1};
  const auto pick = [&] {
    return std::min(picks[rng.NextBounded(std::size(picks))], max_entity - 1);
  };
  std::vector<Triple> test;
  for (int k = 0; k < 900; ++k) {
    const int32_t head = pick();
    const int32_t relation = static_cast<int32_t>(rng.NextBounded(kRelations));
    test.push_back({head, relation, pick()});
  }
  return Dataset("repeated-anchors", max_entity, kRelations, /*train=*/{},
                 /*valid=*/{}, std::move(test), TypeStore());
}

TEST(ScheduleTest, BuildsTheStableSortSchedule) {
  std::vector<Dataset> datasets;
  datasets.push_back(SynthDataset());
  datasets.push_back(DuplicateQueryDataset());
  // 2^22 + 9 entities: anchors of 23 bits take three radix digits.
  for (int32_t max_entity : {8, 5000, (1 << 22) + 9}) {
    datasets.push_back(RepeatedAnchorDataset(max_entity, 77));
  }
  for (const Dataset& dataset : datasets) {
    SCOPED_TRACE(dataset.name());
    const int32_t num_r = dataset.num_relations();
    for (Split split : {Split::kTrain, Split::kTest}) {
      const std::vector<Triple>& triples = dataset.split(split);
      const int64_t n = static_cast<int64_t>(triples.size());
      std::vector<int64_t> all(2 * static_cast<size_t>(n));
      std::iota(all.begin(), all.end(), int64_t{0});
      for (size_t query_block : {size_t{1}, size_t{3}, size_t{16}}) {
        SCOPED_TRACE(testing::Message() << "query_block=" << query_block);
        // The full split.
        EXPECT_EQ(Contents(FullSchedule(triples, num_r, n, query_block)),
                  StableSortSchedule(triples, num_r, all.data(), all.size(),
                                     query_block));
        // Round-sized slices of a shuffled order, into one reused
        // schedule as the adaptive evaluator builds them.
        Rng rng(query_block);
        const std::vector<int64_t> order = ShuffledQueryOrder(n, &rng);
        EvalSchedule round;
        for (size_t take : {size_t{1}, size_t{37}, size_t{256}}) {
          for (size_t lo = 0; lo < order.size(); lo += take) {
            const size_t k = std::min(take, order.size() - lo);
            BuildQuerySchedule(triples, num_r, order.data() + lo, k,
                               query_block, &round);
            ASSERT_EQ(Contents(round),
                      StableSortSchedule(triples, num_r, order.data() + lo, k,
                                         query_block))
                << "round [" << lo << ", " << lo + k << ")";
          }
        }
      }
    }
  }
}

TEST(ScheduleTest, AdaptiveRoundsKeepInvariants) {
  const Dataset dataset = DuplicateQueryDataset();
  const std::vector<Triple>& triples = dataset.test();
  Rng rng(43);
  const std::vector<int64_t> order = ShuffledQueryOrder(
      static_cast<int64_t>(triples.size()), &rng);
  // One schedule reused across rounds, as the adaptive evaluator does.
  EvalSchedule round;
  constexpr size_t kRound = 37;
  for (size_t lo = 0; lo < order.size(); lo += kRound) {
    const size_t take = std::min(kRound, order.size() - lo);
    BuildQuerySchedule(triples, dataset.num_relations(), order.data() + lo,
                       take, /*query_block=*/2, &round);
    std::set<std::pair<int32_t, int32_t>> expected;
    for (size_t k = lo; k < lo + take; ++k) {
      expected.insert({static_cast<int32_t>(order[k] >> 1),
                       static_cast<int32_t>(order[k] & 1)});
    }
    ExpectScheduleInvariants(triples, dataset.num_relations(), round, 2,
                             expected);
  }
}

}  // namespace
}  // namespace kgeval

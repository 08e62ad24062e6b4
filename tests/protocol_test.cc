#include <gtest/gtest.h>

#include <algorithm>
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
#include "graph/dataset.h"
#include "models/kge_model.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "tests/fake_model.h"
#include "tests/gate_data.h"
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

/// The schedule contract every evaluator relies on: the scheduled queries
/// are exactly `expected`, each once; every block holds one relation,
/// ranks against that relation's domain/range slot, and holds at most
/// `query_block` distinct anchors; anchors never decrease
/// within a run and no anchor is split across blocks (so each distinct
/// query is scored once); and blocks sharing a pool slot are contiguous
/// (the prepare-once contract).
void ExpectScheduleInvariants(
    const std::vector<Triple>& triples, int32_t num_relations,
    const EvalSchedule& schedule, size_t query_block,
    const std::set<std::pair<int32_t, int32_t>>& expected) {
  std::set<std::pair<int32_t, int32_t>> seen;
  std::set<int32_t> closed_slots;
  std::set<std::tuple<int32_t, int32_t, int32_t>> closed_anchors;
  std::map<const std::vector<int32_t>*, int32_t> run_last_anchor;
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
    for (size_t i = block.begin; i < block.end; ++i) {
      const int32_t idx = (*block.triple_idx)[i];
      EXPECT_EQ(triples[idx].relation, block.relation);
      const int32_t anchor = QueryAnchor(triples[idx], block.direction);
      auto last = run_last_anchor.emplace(block.triple_idx, anchor).first;
      EXPECT_GE(anchor, last->second) << "anchors decrease within a run";
      last->second = anchor;
      block_anchors.insert(anchor);
      EXPECT_TRUE(seen.insert({idx, dir}).second) << "query scheduled twice";
    }
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
/// on its own through ScoreCandidates and ranks by FilteredRank. The small
/// entity tile forces multi-tile sweeps.
void ExpectFullRankingMatchesScalarOracle(const KgeModel& model,
                                          const Dataset& dataset,
                                          const FilterIndex& filter) {
  const SampledCandidates pools = ExhaustivePools(
      dataset.num_entities(), 2 * dataset.num_relations());
  const EstimateResult oracle =
      EvaluateSampledScalar(model, dataset, filter, Split::kTest, pools);
  FullEvalOptions options;
  options.entity_tile = 7;
  const FullEvalResult full =
      EvaluateFullRanking(model, dataset, filter, Split::kTest, options);
  EXPECT_EQ(full.ranks, oracle.ranks) << model.name();
  EXPECT_DOUBLE_EQ(full.metrics.mrr, oracle.metrics.mrr) << model.name();
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
    const FilterIndex filter(dataset);
    const std::vector<Triple>& triples = dataset.test();
    const int64_t n = static_cast<int64_t>(triples.size());
    for (size_t query_block : {size_t{1}, size_t{3}, size_t{16}}) {
      const EvalSchedule schedule =
          filter.BuildSchedule(triples, n, query_block);
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

TEST(ScheduleTest, AdaptiveRoundsKeepInvariants) {
  const Dataset dataset = DuplicateQueryDataset();
  const FilterIndex filter(dataset);
  const std::vector<Triple>& triples = dataset.test();
  Rng rng(43);
  const std::vector<int64_t> order = ShuffledQueryOrder(
      static_cast<int64_t>(triples.size()), &rng);
  // One schedule reused across rounds, as the adaptive evaluator does.
  EvalSchedule round;
  constexpr size_t kRound = 37;
  for (size_t lo = 0; lo < order.size(); lo += kRound) {
    const size_t take = std::min(kRound, order.size() - lo);
    filter.BuildQuerySchedule(triples, order.data() + lo, take,
                              /*query_block=*/2, &round);
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

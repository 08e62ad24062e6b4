#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "core/adaptive_evaluator.h"
#include "core/sampled_evaluator.h"
#include "core/samplers.h"
#include "eval/full_evaluator.h"
#include "eval/protocol.h"
#include "graph/dataset.h"
#include "models/kge_model.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "tests/gate_data.h"
#include "util/rng.h"

namespace kgeval {
namespace {

constexpr ModelType kAllModels[] = {
    ModelType::kTransE, ModelType::kDistMult, ModelType::kComplEx,
    ModelType::kRescal, ModelType::kRotatE,   ModelType::kTuckEr,
    ModelType::kConvE,  ModelType::kTComplEx};

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

/// `base` with deterministic timestamps painted on: every triple gets
/// time = f(h, r, t) % T, so slices are well-populated and the same fact
/// can recur at several timestamps across splits.
Dataset StampTimestamps(const Dataset& base, int32_t num_timestamps) {
  auto stamp = [num_timestamps](std::vector<Triple> triples) {
    for (Triple& t : triples) {
      t.time = (t.head * 31 + t.tail * 7 + t.relation) % num_timestamps;
    }
    return triples;
  };
  return Dataset(base.name() + "-temporal", base.num_entities(),
                 base.num_relations(), num_timestamps, stamp(base.train()),
                 stamp(base.valid()), stamp(base.test()), base.types());
}

Dataset TemporalSynthDataset(int32_t num_timestamps) {
  return StampTimestamps(SynthDataset(), num_timestamps);
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
/// heads and five tails, plus an exact duplicate and one anchor that
/// recurs at every timestamp with a different truth. Train holds the rest
/// of the grid and a scattering of other facts, so filtering has answers
/// to take back. `num_timestamps` 0 builds a static dataset.
Dataset DuplicateQueryDataset(int32_t num_timestamps) {
  constexpr int32_t kEntities = 50;
  constexpr int32_t kRelations = 3;
  const int32_t times = std::max<int32_t>(1, num_timestamps);
  std::vector<Triple> train, test;
  for (int32_t r = 0; r < kRelations; ++r) {
    for (int32_t h = r; h < r + 4; ++h) {
      for (int32_t t = 20; t < 25; ++t) {
        const Triple triple{h, r, t, (h + t) % times};
        ((h + t + r) % 4 == 0 ? train : test).push_back(triple);
      }
    }
    test.push_back({r, r, 21, 0});
    test.push_back({r, r, 21, 0});
    for (int32_t tau = 0; tau < times; ++tau) {
      test.push_back({r + 1, r, 30 + tau, tau});
    }
  }
  for (int32_t k = 0; k < 300; ++k) {
    train.push_back({(k * 7) % kEntities, k % kRelations,
                     (k * 13 + 5) % kEntities, k % times});
  }
  return Dataset("duplicate-queries", kEntities, kRelations, num_timestamps,
                 std::move(train), /*valid=*/{}, std::move(test),
                 TypeStore());
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
/// are exactly `expected`, each once; every block is group-homogeneous and
/// holds at most `query_block` distinct anchors; anchors never decrease
/// within a run and no anchor is split across blocks (so each distinct
/// query is scored once); and blocks sharing a pool slot are contiguous
/// (the prepare-once contract).
void ExpectScheduleInvariants(
    const EvalProtocol& protocol, const std::vector<Triple>& triples,
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
    const int32_t group =
        protocol.GroupOf(triples[(*block.triple_idx)[block.begin]]);
    std::set<int32_t> block_anchors;
    for (size_t i = block.begin; i < block.end; ++i) {
      const int32_t idx = (*block.triple_idx)[i];
      EXPECT_EQ(protocol.GroupOf(triples[idx]), group);
      EXPECT_EQ(triples[idx].relation, block.relation);
      EXPECT_EQ(block.pool_slot,
                protocol.PoolSlotFor(triples[idx], block.direction));
      const int32_t anchor = QueryAnchor(triples[idx], block.direction);
      auto last = run_last_anchor.emplace(block.triple_idx, anchor).first;
      EXPECT_GE(anchor, last->second) << "anchors decrease within a run";
      last->second = anchor;
      block_anchors.insert(anchor);
      EXPECT_TRUE(seen.insert({idx, dir}).second) << "query scheduled twice";
    }
    EXPECT_LE(block_anchors.size(), query_block);
    for (int32_t anchor : block_anchors) {
      EXPECT_TRUE(closed_anchors.insert({group, dir, anchor}).second)
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
                                          const EvalProtocol& protocol) {
  const SampledCandidates pools = ExhaustivePools(
      dataset.num_entities(), 2 * dataset.num_relations());
  const SampledEvalResult oracle =
      EvaluateSampledScalar(model, dataset, protocol, Split::kTest, pools);
  FullEvalOptions options;
  options.entity_tile = 7;
  const FullEvalResult full =
      EvaluateFullRanking(model, dataset, protocol, Split::kTest, options);
  EXPECT_EQ(full.ranks, oracle.ranks) << model.name();
  EXPECT_DOUBLE_EQ(full.metrics.mrr, oracle.metrics.mrr) << model.name();
}

/// A model whose score is supplied by a lambda — lets tests pin exact
/// rankings.
class FakeModel : public KgeModel {
 public:
  using ScoreFn = std::function<float(int32_t, int32_t, int32_t)>;

  FakeModel(int32_t num_entities, int32_t num_relations, ScoreFn fn)
      : KgeModel(ModelType::kDistMult, num_entities, num_relations,
                 ModelOptions()),
        fn_(std::move(fn)) {}

  void ScoreCandidates(int32_t anchor, int32_t relation,
                       QueryDirection direction, const int32_t* candidates,
                       size_t n, float* out) const override {
    for (size_t i = 0; i < n; ++i) {
      const int32_t h =
          direction == QueryDirection::kTail ? anchor : candidates[i];
      const int32_t t =
          direction == QueryDirection::kTail ? candidates[i] : anchor;
      out[i] = fn_(h, relation, t);
    }
  }

  void UpdateTriple(int32_t, int32_t, int32_t, QueryDirection,
                    float) override {}

  void CollectParameters(std::vector<NamedParameter>*) override {}

 private:
  ScoreFn fn_;
};

// ---------------------------------------------------------------------------
// Static protocol: the refactor seam must be invisible. The FilterIndex
// convenience overloads (the pre-refactor API) and an explicit
// StaticFilteredProtocol must produce bit-identical ranks on every model
// and every estimator.
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
    const StaticFilteredProtocol protocol(dataset, &filter);
    Rng rng(input.pool_seed);
    const SampledCandidates pools = DrawCandidates(
        SamplingStrategy::kRandom, nullptr, dataset.num_entities(), input.n_s,
        NeededSlots(dataset, Split::kTest), 2 * dataset.num_relations(),
        &rng);
    for (ModelType type : kAllModels) {
      auto model = CreateModel(type, dataset.num_entities(),
                               dataset.num_relations(), input.options)
                       .ValueOrDie();
      // Pre-refactor API: FilterIndex overload, prepared engine.
      const SampledEvalResult via_filter =
          EvaluateSampled(*model, dataset, filter, Split::kTest, pools);
      // Explicit protocol, prepared engine and scalar reference.
      const SampledEvalResult prepared =
          EvaluateSampled(*model, dataset, protocol, Split::kTest, pools);
      const SampledEvalResult scalar = EvaluateSampledScalar(
          *model, dataset, protocol, Split::kTest, pools);
      EXPECT_EQ(via_filter.ranks, prepared.ranks) << ModelTypeName(type);
      EXPECT_EQ(prepared.ranks, scalar.ranks) << ModelTypeName(type);
      EXPECT_EQ(via_filter.scored_candidates, scalar.scored_candidates)
          << ModelTypeName(type);
      EXPECT_DOUBLE_EQ(via_filter.metrics.mrr, scalar.metrics.mrr)
          << ModelTypeName(type);
    }
  }
}

TEST(StaticParityTest, FullRankingBitExact) {
  const Dataset dataset = SynthDataset();
  const FilterIndex filter(dataset);
  const StaticFilteredProtocol protocol(dataset, &filter);
  FullEvalOptions options;
  options.max_triples = 60;
  for (ModelType type : {ModelType::kDistMult, ModelType::kTComplEx}) {
    auto model = CreateModel(type, dataset.num_entities(),
                             dataset.num_relations(), SmallOptions())
                     .ValueOrDie();
    const FullEvalResult via_filter =
        EvaluateFullRanking(*model, dataset, filter, Split::kTest, options);
    const FullEvalResult via_protocol =
        EvaluateFullRanking(*model, dataset, protocol, Split::kTest, options);
    EXPECT_EQ(via_filter.ranks, via_protocol.ranks) << ModelTypeName(type);
    EXPECT_DOUBLE_EQ(via_filter.metrics.mrr, via_protocol.metrics.mrr)
        << ModelTypeName(type);
  }
}

TEST(StaticParityTest, AdaptiveBitExact) {
  const Dataset dataset = SynthDataset();
  const FilterIndex filter(dataset);
  const StaticFilteredProtocol protocol(dataset, &filter);
  Rng rng(17);
  const SampledCandidates pools = DrawCandidates(
      SamplingStrategy::kRandom, nullptr, dataset.num_entities(),
      /*n_s=*/60, NeededSlots(dataset, Split::kTest),
      2 * dataset.num_relations(), &rng);
  auto model = CreateModel(ModelType::kComplEx, dataset.num_entities(),
                           dataset.num_relations(), SmallOptions())
                   .ValueOrDie();
  AdaptiveEvalOptions options;
  options.target_half_width = 0.05;
  options.min_queries = 128;
  options.batch_queries = 128;
  const AdaptiveEvalResult via_filter = EvaluateAdaptive(
      *model, dataset, filter, Split::kTest, pools, options);
  const AdaptiveEvalResult via_protocol = EvaluateAdaptive(
      *model, dataset, protocol, Split::kTest, pools, options);
  EXPECT_EQ(via_filter.ranks, via_protocol.ranks);
  EXPECT_EQ(via_filter.evaluated_queries, via_protocol.evaluated_queries);
  EXPECT_EQ(via_filter.rounds, via_protocol.rounds);
  EXPECT_EQ(via_filter.converged, via_protocol.converged);
  EXPECT_DOUBLE_EQ(via_filter.ci.mrr, via_protocol.ci.mrr);
  EXPECT_DOUBLE_EQ(via_filter.metrics.mrr, via_protocol.metrics.mrr);
}

TEST(StaticParityTest, ExhaustivePoolsReproduceFullRanking) {
  // With every entity in every pool, the sampled estimator *is* the full
  // evaluator: pool-ranks equal exhaustive filtered ranks query for query.
  const Dataset dataset = SynthDataset();
  const FilterIndex filter(dataset);
  const StaticFilteredProtocol protocol(dataset, &filter);
  const SampledCandidates pools = ExhaustivePools(
      dataset.num_entities(), 2 * dataset.num_relations());
  for (ModelType type : {ModelType::kDistMult, ModelType::kRotatE}) {
    auto model = CreateModel(type, dataset.num_entities(),
                             dataset.num_relations(), SmallOptions())
                     .ValueOrDie();
    const SampledEvalResult sampled =
        EvaluateSampled(*model, dataset, protocol, Split::kTest, pools);
    const FullEvalResult full =
        EvaluateFullRanking(*model, dataset, protocol, Split::kTest);
    EXPECT_EQ(sampled.ranks, full.ranks) << ModelTypeName(type);
    EXPECT_DOUBLE_EQ(sampled.metrics.mrr, full.metrics.mrr)
        << ModelTypeName(type);
  }
}

TEST(StaticParityTest, ScheduleIsGroupHomogeneousAndComplete) {
  for (const Dataset& dataset : {SynthDataset(), DuplicateQueryDataset(0)}) {
    const FilterIndex filter(dataset);
    const StaticFilteredProtocol protocol(dataset, &filter);
    const std::vector<Triple>& triples = dataset.test();
    const int64_t n = static_cast<int64_t>(triples.size());
    for (size_t query_block : {size_t{1}, size_t{3}, size_t{16}}) {
      const EvalSchedule schedule =
          protocol.BuildSchedule(triples, n, query_block);
      ExpectScheduleInvariants(protocol, triples, schedule, query_block,
                               AllQueries(n));
    }
  }
}

TEST(StaticParityTest, FullRankingMatchesScalarOracleOnDuplicateQueries) {
  const Dataset dataset = DuplicateQueryDataset(0);
  const FilterIndex filter(dataset);
  const StaticFilteredProtocol protocol(dataset, &filter);
  // One model per kernel family: dot, dot + per-entity bias, L1 distance,
  // complex distance.
  for (ModelType type : {ModelType::kDistMult, ModelType::kConvE,
                         ModelType::kTransE, ModelType::kRotatE}) {
    auto model = CreateModel(type, dataset.num_entities(),
                             dataset.num_relations(), SmallOptions())
                     .ValueOrDie();
    ExpectFullRankingMatchesScalarOracle(*model, dataset, protocol);
  }
}

TEST(StaticParityTest, ScoredCandidatesCountEvaluatedQueries) {
  // `scored_candidates` is pool size + 1 per evaluated query, whether or
  // not the query shares its score row with a duplicate: the scalar
  // oracle's count, which the served `scored=` field and the adaptive
  // candidate budget read.
  const Dataset dataset = DuplicateQueryDataset(0);
  const FilterIndex filter(dataset);
  const StaticFilteredProtocol protocol(dataset, &filter);
  Rng rng(41);
  const SampledCandidates pools = DrawCandidates(
      SamplingStrategy::kRandom, nullptr, dataset.num_entities(),
      /*n_s=*/20, NeededSlots(dataset, Split::kTest),
      2 * dataset.num_relations(), &rng);
  auto model = CreateModel(ModelType::kComplEx, dataset.num_entities(),
                           dataset.num_relations(), SmallOptions())
                   .ValueOrDie();
  const SampledEvalResult scalar =
      EvaluateSampledScalar(*model, dataset, protocol, Split::kTest, pools);
  const SampledEvalResult sampled =
      EvaluateSampled(*model, dataset, protocol, Split::kTest, pools);
  EXPECT_EQ(sampled.ranks, scalar.ranks);
  EXPECT_EQ(sampled.scored_candidates, scalar.scored_candidates);

  // A whole-split adaptive pass scores what the scalar oracle scores; a
  // budget-stopped one scores pool size + 1 for each query it evaluated.
  AdaptiveEvalOptions options;
  options.target_half_width = 0.0;
  options.min_queries = 1;
  options.batch_queries = 16;
  const AdaptiveEvalResult whole = EvaluateAdaptive(
      *model, dataset, protocol, Split::kTest, pools, options);
  EXPECT_EQ(whole.evaluated_queries, whole.total_queries);
  EXPECT_EQ(whole.scored_candidates, scalar.scored_candidates);
  options.max_candidates = scalar.scored_candidates / 3;
  const AdaptiveEvalResult budgeted = EvaluateAdaptive(
      *model, dataset, protocol, Split::kTest, pools, options);
  ASSERT_LT(budgeted.evaluated_queries, budgeted.total_queries);
  int64_t expected = 0;
  const std::vector<Triple>& triples = dataset.test();
  for (size_t q = 0; q < budgeted.ranks.size(); ++q) {
    if (budgeted.ranks[q] == 0.0) continue;  // Never scored by the pass.
    EXPECT_EQ(budgeted.ranks[q], scalar.ranks[q]) << "query " << q;
    const QueryDirection dir =
        q % 2 == 0 ? QueryDirection::kTail : QueryDirection::kHead;
    expected += static_cast<int64_t>(
        pools.pools[protocol.PoolSlotFor(triples[q / 2], dir)].size() + 1);
  }
  EXPECT_EQ(budgeted.scored_candidates, expected);
}

TEST(ScheduleTest, AdaptiveRoundsKeepInvariants) {
  const Dataset dataset = DuplicateQueryDataset(/*num_timestamps=*/3);
  const FilterIndex static_filter(dataset);
  const TemporalFilterIndex temporal_filter(dataset);
  const StaticFilteredProtocol static_protocol(dataset, &static_filter);
  const TemporalFilteredProtocol temporal_protocol(dataset, &temporal_filter);
  const std::vector<Triple>& triples = dataset.test();
  Rng rng(43);
  const std::vector<int64_t> order = ShuffledQueryOrder(
      static_cast<int64_t>(triples.size()), &rng);
  for (const EvalProtocol* protocol :
       {static_cast<const EvalProtocol*>(&static_protocol),
        static_cast<const EvalProtocol*>(&temporal_protocol)}) {
    // One schedule reused across rounds, as the adaptive evaluator does.
    EvalSchedule round;
    constexpr size_t kRound = 37;
    for (size_t lo = 0; lo < order.size(); lo += kRound) {
      const size_t take = std::min(kRound, order.size() - lo);
      protocol->BuildQuerySchedule(triples, order.data() + lo, take,
                                   /*query_block=*/2, &round);
      std::set<std::pair<int32_t, int32_t>> expected;
      for (size_t k = lo; k < lo + take; ++k) {
        expected.insert({static_cast<int32_t>(order[k] >> 1),
                         static_cast<int32_t>(order[k] & 1)});
      }
      ExpectScheduleInvariants(*protocol, triples, round, 2, expected);
    }
  }
}

// ---------------------------------------------------------------------------
// Temporal protocol: time-sliced filter semantics.
// ---------------------------------------------------------------------------

/// Three entities, one relation, two timestamps. (0, 0, 1) holds at tau=0,
/// (0, 0, 2) holds at tau=1; the test query is (0, 0, ?) at tau=0.
Dataset HandTemporalDataset() {
  std::vector<Triple> train = {{0, 0, 1, 0}, {0, 0, 2, 1}};
  std::vector<Triple> test = {{0, 0, 1, 0}};
  return Dataset("hand-temporal", /*num_entities=*/3, /*num_relations=*/1,
                 /*num_timestamps=*/2, std::move(train), /*valid=*/{},
                 std::move(test), TypeStore());
}

TEST(TemporalProtocolTest, FilterIsSlicedByTimestamp) {
  const Dataset dataset = HandTemporalDataset();
  const FilterIndex static_filter(dataset);
  const TemporalFilterIndex temporal_filter(dataset);
  const StaticFilteredProtocol static_protocol(dataset, &static_filter);
  const TemporalFilteredProtocol temporal_protocol(dataset, &temporal_filter);
  const Triple& query = dataset.test()[0];

  // Static semantics: both tails are known facts, whenever they held.
  const std::vector<int32_t>* static_answers =
      static_protocol.Answers(query, QueryDirection::kTail);
  ASSERT_NE(static_answers, nullptr);
  EXPECT_EQ(*static_answers, (std::vector<int32_t>{1, 2}));

  // Temporal semantics: only the tail true *at tau=0* is filtered. Entity 2
  // is a fact at tau=1 — a valid corruption for this query.
  const std::vector<int32_t>* temporal_answers =
      temporal_protocol.Answers(query, QueryDirection::kTail);
  ASSERT_NE(temporal_answers, nullptr);
  EXPECT_EQ(*temporal_answers, (std::vector<int32_t>{1}));

  EXPECT_EQ(temporal_protocol.num_timestamps(), 2);
  EXPECT_EQ(temporal_protocol.num_groups(), 2);
  EXPECT_EQ(temporal_protocol.GroupOf({0, 0, 2, 1}), 1);
  // Pools stay at the static domain/range slots for every group.
  EXPECT_EQ(temporal_protocol.PoolSlotOf(1, QueryDirection::kTail),
            static_protocol.PoolSlotOf(0, QueryDirection::kTail));
  EXPECT_EQ(temporal_protocol.PoolSlotFor(query, QueryDirection::kHead),
            static_protocol.PoolSlotFor(query, QueryDirection::kHead));
}

TEST(TemporalProtocolTest, CorruptionTrueAtAnotherTimestampKeepsItsRank) {
  const Dataset dataset = HandTemporalDataset();
  const FilterIndex static_filter(dataset);
  const TemporalFilterIndex temporal_filter(dataset);
  const StaticFilteredProtocol static_protocol(dataset, &static_filter);
  const TemporalFilteredProtocol temporal_protocol(dataset, &temporal_filter);
  // Score by tail id: entity 2 outscores the truth (entity 1).
  const FakeModel model(dataset.num_entities(), dataset.num_relations(),
                        [](int32_t, int32_t, int32_t t) {
                          return t == 2 ? 5.0f : (t == 1 ? 3.0f : 0.0f);
                        });
  const FullEvalResult static_full = EvaluateFullRanking(
      model, dataset, static_protocol, Split::kTest);
  const FullEvalResult temporal_full = EvaluateFullRanking(
      model, dataset, temporal_protocol, Split::kTest);
  // Static filtering removes entity 2 (a fact at *some* time): rank 1.
  EXPECT_DOUBLE_EQ(static_full.ranks[0], 1.0);
  // Temporal filtering keeps it (not a fact at tau=0): it outranks the
  // truth, rank 2.
  EXPECT_DOUBLE_EQ(temporal_full.ranks[0], 2.0);

  // The sampled estimator applies the same sliced filter.
  const SampledCandidates pools = ExhaustivePools(
      dataset.num_entities(), 2 * dataset.num_relations());
  const SampledEvalResult sampled = EvaluateSampled(
      model, dataset, temporal_protocol, Split::kTest, pools);
  EXPECT_EQ(sampled.ranks, temporal_full.ranks);
}

TEST(TemporalProtocolTest, ScheduleIsGroupHomogeneousAndComplete) {
  // Blocks are (relation, timestamp)-homogeneous, so an anchor at several
  // timestamps is a different query at each one.
  for (const Dataset& dataset :
       {TemporalSynthDataset(/*num_timestamps=*/5),
        DuplicateQueryDataset(/*num_timestamps=*/3)}) {
    const TemporalFilterIndex filter(dataset);
    const TemporalFilteredProtocol protocol(dataset, &filter);
    const std::vector<Triple>& triples = dataset.test();
    const int64_t n = static_cast<int64_t>(triples.size());
    for (size_t query_block : {size_t{1}, size_t{3}, size_t{16}}) {
      const EvalSchedule schedule =
          protocol.BuildSchedule(triples, n, query_block);
      ExpectScheduleInvariants(protocol, triples, schedule, query_block,
                               AllQueries(n));
    }
  }
}

TEST(TemporalProtocolTest, FullRankingMatchesScalarOracleOnDuplicateQueries) {
  const Dataset dataset = DuplicateQueryDataset(/*num_timestamps=*/3);
  const TemporalFilterIndex filter(dataset);
  const TemporalFilteredProtocol protocol(dataset, &filter);
  ModelOptions options = SmallOptions();
  options.num_timestamps = dataset.num_timestamps();
  auto model = CreateModel(ModelType::kTComplEx, dataset.num_entities(),
                           dataset.num_relations(), options)
                   .ValueOrDie();
  ExpectFullRankingMatchesScalarOracle(*model, dataset, protocol);
}

TEST(TemporalProtocolTest, EnginesBitExactOnTemporalData) {
  const Dataset dataset = TemporalSynthDataset(/*num_timestamps=*/5);
  const TemporalFilterIndex filter(dataset);
  const TemporalFilteredProtocol protocol(dataset, &filter);
  Rng rng(23);
  const SampledCandidates pools = DrawCandidates(
      SamplingStrategy::kRandom, nullptr, dataset.num_entities(),
      /*n_s=*/60, NeededSlots(dataset, Split::kTest),
      2 * dataset.num_relations(), &rng);
  ModelOptions options = SmallOptions();
  options.num_timestamps = dataset.num_timestamps();
  // One time-aware model (virtual kernel relations) and one time-ignorant
  // model (plain relations) both run the temporal schedule bit-exactly.
  for (ModelType type : {ModelType::kTComplEx, ModelType::kDistMult}) {
    auto model = CreateModel(type, dataset.num_entities(),
                             dataset.num_relations(), options)
                     .ValueOrDie();
    const SampledEvalResult prepared =
        EvaluateSampled(*model, dataset, protocol, Split::kTest, pools);
    const SampledEvalResult scalar =
        EvaluateSampledScalar(*model, dataset, protocol, Split::kTest, pools);
    EXPECT_EQ(prepared.ranks, scalar.ranks) << ModelTypeName(type);
    EXPECT_EQ(prepared.scored_candidates, scalar.scored_candidates)
        << ModelTypeName(type);
  }
}

TEST(TemporalProtocolTest, ExhaustivePoolsReproduceFullRanking) {
  // Two inputs: the small synthetic graph with 5 timestamps and an
  // untrained TComplEx, and scaled codex-s stamped with 8 timestamps and a
  // TComplEx trained for one epoch.
  const Dataset small = TemporalSynthDataset(/*num_timestamps=*/5);
  ModelOptions options = SmallOptions();
  options.num_timestamps = small.num_timestamps();
  auto untrained = CreateModel(ModelType::kTComplEx, small.num_entities(),
                               small.num_relations(), options)
                       .ValueOrDie();
  const Dataset codex_s = StampTimestamps(CodexS(), /*num_timestamps=*/8);
  GateTraining recipe;
  recipe.type = ModelType::kTComplEx;
  auto trained = TrainGateModel(codex_s, recipe);
  const std::pair<const Dataset*, const KgeModel*> inputs[] = {
      {&small, untrained.get()}, {&codex_s, trained.get()}};
  for (const auto& [dataset, model] : inputs) {
    SCOPED_TRACE(dataset->name());
    const TemporalFilterIndex filter(*dataset);
    const TemporalFilteredProtocol protocol(*dataset, &filter);
    const SampledCandidates pools = ExhaustivePools(
        dataset->num_entities(), 2 * dataset->num_relations());
    const SampledEvalResult sampled =
        EvaluateSampled(*model, *dataset, protocol, Split::kTest, pools);
    const FullEvalResult full =
        EvaluateFullRanking(*model, *dataset, protocol, Split::kTest);
    ASSERT_EQ(full.ranks.size(), 2 * dataset->test().size());
    EXPECT_EQ(sampled.ranks, full.ranks);
    EXPECT_DOUBLE_EQ(sampled.metrics.mrr, full.metrics.mrr);
  }
}

TEST(TemporalProtocolTest, AdaptiveConvergesOnTimeSlicedQueries) {
  const Dataset dataset = TemporalSynthDataset(/*num_timestamps=*/5);
  const TemporalFilterIndex filter(dataset);
  const TemporalFilteredProtocol protocol(dataset, &filter);
  Rng rng(31);
  const SampledCandidates pools = DrawCandidates(
      SamplingStrategy::kRandom, nullptr, dataset.num_entities(),
      /*n_s=*/60, NeededSlots(dataset, Split::kTest),
      2 * dataset.num_relations(), &rng);
  ModelOptions model_options = SmallOptions();
  model_options.num_timestamps = dataset.num_timestamps();
  auto model = CreateModel(ModelType::kTComplEx, dataset.num_entities(),
                           dataset.num_relations(), model_options)
                   .ValueOrDie();
  AdaptiveEvalOptions options;
  options.target_half_width = 0.05;
  options.min_queries = 128;
  options.batch_queries = 128;
  const AdaptiveEvalResult adaptive = EvaluateAdaptive(
      *model, dataset, protocol, Split::kTest, pools, options);
  EXPECT_TRUE(adaptive.converged);
  EXPECT_LE(adaptive.ci.mrr, options.target_half_width);
  EXPECT_GE(adaptive.evaluated_queries, options.min_queries);
  // Every rank the adaptive pass produced is bit-identical to the one the
  // sampled pass computes for the same query on the same pools.
  const SampledEvalResult sampled =
      EvaluateSampled(*model, dataset, protocol, Split::kTest, pools);
  ASSERT_EQ(adaptive.ranks.size(), sampled.ranks.size());
  int64_t evaluated = 0;
  for (size_t i = 0; i < adaptive.ranks.size(); ++i) {
    if (adaptive.ranks[i] == 0.0) continue;  // Never scored by the pass.
    EXPECT_EQ(adaptive.ranks[i], sampled.ranks[i]) << "query " << i;
    ++evaluated;
  }
  EXPECT_EQ(evaluated, adaptive.evaluated_queries);
}

TEST(TemporalProtocolTest, DegeneratesToStaticOnUntimestampedDataset) {
  // On a static dataset the temporal index has one time slice holding
  // exactly the static answer sets, so the two protocols rank identically.
  const Dataset dataset = SynthDataset();
  ASSERT_FALSE(dataset.has_timestamps());
  const FilterIndex static_filter(dataset);
  const TemporalFilterIndex temporal_filter(dataset);
  const TemporalFilteredProtocol protocol(dataset, &temporal_filter);
  EXPECT_EQ(protocol.num_timestamps(), 1);
  EXPECT_EQ(protocol.num_groups(), dataset.num_relations());
  Rng rng(37);
  const SampledCandidates pools = DrawCandidates(
      SamplingStrategy::kRandom, nullptr, dataset.num_entities(),
      /*n_s=*/60, NeededSlots(dataset, Split::kTest),
      2 * dataset.num_relations(), &rng);
  auto model = CreateModel(ModelType::kComplEx, dataset.num_entities(),
                           dataset.num_relations(), SmallOptions())
                   .ValueOrDie();
  const SampledEvalResult temporal =
      EvaluateSampled(*model, dataset, protocol, Split::kTest, pools);
  const SampledEvalResult statics =
      EvaluateSampled(*model, dataset, static_filter, Split::kTest, pools);
  EXPECT_EQ(temporal.ranks, statics.ranks);
  EXPECT_DOUBLE_EQ(temporal.metrics.mrr, statics.metrics.mrr);
}

}  // namespace
}  // namespace kgeval

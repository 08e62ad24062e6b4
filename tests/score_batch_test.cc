#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/framework.h"
#include "core/sampled_evaluator.h"
#include "core/samplers.h"
#include "eval/full_evaluator.h"
#include "models/kge_model.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "util/rng.h"

namespace kgeval {
namespace {

ModelOptions SmallOptions() {
  ModelOptions options;
  options.dim = 16;
  options.seed = 7;
  return options;
}

class ScoreBlockTest : public ::testing::TestWithParam<ModelType> {
 protected:
  std::unique_ptr<KgeModel> Make() {
    return CreateModel(GetParam(), /*num_entities=*/40, /*num_relations=*/6,
                       SmallOptions())
        .ValueOrDie();
  }
};

TEST_P(ScoreBlockTest, MatchesPerQueryScoreCandidates) {
  auto model = Make();
  // Unsorted candidates with a duplicate: a prepared block makes no
  // ordering assumptions about the pool.
  const std::vector<int32_t> candidates = {11, 3, 27, 3, 0, 39, 18};
  const std::vector<int32_t> anchors = {0, 5, 5, 17, 39, 2, 8, 21, 30};
  const size_t n = candidates.size();
  const size_t q = anchors.size();
  CandidateBlock block;
  model->PrepareCandidates(candidates.data(), n, &block);
  std::vector<float> pool_scores(q * n), scalar(n);
  for (int32_t relation : {0, 5}) {
    for (QueryDirection dir :
         {QueryDirection::kTail, QueryDirection::kHead}) {
      model->ScoreBlock(anchors.data(), nullptr, q, relation, dir, block,
                        pool_scores.data(), nullptr);
      for (size_t i = 0; i < q; ++i) {
        model->ScoreCandidates(anchors[i], relation, dir, candidates.data(),
                               n, scalar.data());
        for (size_t c = 0; c < n; ++c) {
          EXPECT_EQ(pool_scores[i * n + c], scalar[c])
              << ModelTypeName(GetParam()) << " query " << i << " candidate "
              << c;
        }
      }
    }
  }
}

TEST_P(ScoreBlockTest, ScorePairsMatchesSingleCandidateCalls) {
  auto model = Make();
  const std::vector<int32_t> anchors = {1, 4, 4, 19, 33, 0};
  const std::vector<int32_t> candidates = {7, 7, 2, 38, 0, 12};
  std::vector<float> batched(anchors.size());
  for (int32_t relation : {2, 4}) {
    for (QueryDirection dir :
         {QueryDirection::kTail, QueryDirection::kHead}) {
      model->ScorePairs(anchors.data(), candidates.data(), anchors.size(),
                        /*candidates_per_query=*/1, relation, dir,
                        batched.data());
      for (size_t i = 0; i < anchors.size(); ++i) {
        float scalar = 0.0f;
        model->ScoreCandidates(anchors[i], relation, dir, &candidates[i], 1,
                               &scalar);
        EXPECT_NEAR(batched[i], scalar, 1e-5)
            << ModelTypeName(GetParam()) << " pair " << i;
      }
    }
  }
}

TEST_P(ScoreBlockTest, ScorePairsMultiCandidateMatchesExactly) {
  auto model = Make();
  const std::vector<int32_t> anchors = {1, 4, 19, 0};
  // Three candidates per query, with repeats within and across queries.
  const std::vector<int32_t> candidates = {7, 7, 2,  38, 0, 12,
                                           3, 9, 39, 7,  1, 1};
  constexpr size_t kPer = 3;
  std::vector<float> fused(anchors.size() * kPer);
  std::vector<float> scalar(kPer);
  for (int32_t relation : {0, 3}) {
    for (QueryDirection dir :
         {QueryDirection::kTail, QueryDirection::kHead}) {
      model->ScorePairs(anchors.data(), candidates.data(), anchors.size(),
                        kPer, relation, dir, fused.data());
      for (size_t i = 0; i < anchors.size(); ++i) {
        model->ScoreCandidates(anchors[i], relation, dir,
                               candidates.data() + i * kPer, kPer,
                               scalar.data());
        for (size_t j = 0; j < kPer; ++j) {
          EXPECT_EQ(fused[i * kPer + j], scalar[j])
              << ModelTypeName(GetParam()) << " query " << i << " candidate "
              << j;
        }
      }
    }
  }
}

TEST_P(ScoreBlockTest, PreparedScoreBlockMatchesScalarExactly) {
  auto model = Make();
  // Unsorted pool with duplicate candidates: PrepareCandidates must record
  // the unsortedness and ScoreBlock must keep duplicate columns identical.
  const std::vector<int32_t> candidates = {11, 3, 27, 3, 0, 39, 18, 3};
  const std::vector<int32_t> anchors = {0, 5, 5, 17, 39, 2};
  const std::vector<int32_t> truths = {2, 9, 9, 0, 39, 24};
  const size_t n = candidates.size();
  const size_t q = anchors.size();
  CandidateBlock block;
  model->PrepareCandidates(candidates.data(), n, &block);
  EXPECT_EQ(block.ids, candidates);
  EXPECT_FALSE(block.sorted);
  std::vector<float> pool_scores(q * n), truth_scores(q);
  std::vector<float> scalar(n), pair(1);
  for (int32_t relation : {0, 5}) {
    for (QueryDirection dir :
         {QueryDirection::kTail, QueryDirection::kHead}) {
      model->ScoreBlock(anchors.data(), truths.data(), q, relation, dir,
                        block, pool_scores.data(), truth_scores.data());
      for (size_t i = 0; i < q; ++i) {
        model->ScoreCandidates(anchors[i], relation, dir, candidates.data(),
                               n, scalar.data());
        for (size_t c = 0; c < n; ++c) {
          // Bit-identical, not approximately equal: the prepared kernels
          // accumulate in exactly the scalar order.
          EXPECT_EQ(pool_scores[i * n + c], scalar[c])
              << ModelTypeName(GetParam()) << " query " << i << " candidate "
              << c;
        }
        model->ScoreCandidates(anchors[i], relation, dir, &truths[i], 1,
                               pair.data());
        EXPECT_EQ(truth_scores[i], pair[0])
            << ModelTypeName(GetParam()) << " truth " << i;
      }
    }
  }
}

TEST_P(ScoreBlockTest, TruthsShareRowsByIndex) {
  auto model = Make();
  // Three distinct anchors; six truths scored from them by row index, as
  // an evaluator scores duplicate queries from one shared row.
  const std::vector<int32_t> candidates = {11, 3, 27, 0, 39, 18};
  const std::vector<int32_t> anchors = {4, 17, 30};
  const std::vector<int32_t> truths = {2, 9, 4, 0, 39, 24};
  const std::vector<int32_t> truth_rows = {0, 0, 1, 2, 2, 2};
  const size_t n = candidates.size();
  CandidateBlock block;
  model->PrepareCandidates(candidates.data(), n, &block);
  std::vector<float> pool_scores(anchors.size() * n);
  std::vector<float> truth_scores(truths.size());
  std::vector<float> scalar(n), pair(1);
  for (QueryDirection dir : {QueryDirection::kTail, QueryDirection::kHead}) {
    model->ScoreBlock(anchors.data(), truths.data(), anchors.size(), 5, dir,
                      block, pool_scores.data(), truth_scores.data(),
                      truth_rows.data(), truths.size());
    for (size_t r = 0; r < anchors.size(); ++r) {
      model->ScoreCandidates(anchors[r], 5, dir, candidates.data(), n,
                             scalar.data());
      for (size_t c = 0; c < n; ++c) {
        EXPECT_EQ(pool_scores[r * n + c], scalar[c])
            << ModelTypeName(GetParam()) << " row " << r;
      }
    }
    for (size_t t = 0; t < truths.size(); ++t) {
      model->ScoreCandidates(anchors[truth_rows[t]], 5, dir, &truths[t], 1,
                             pair.data());
      EXPECT_EQ(truth_scores[t], pair[0])
          << ModelTypeName(GetParam()) << " truth " << t;
    }
  }
}

TEST_P(ScoreBlockTest, PreparedScoreBlockSkipsNullOutputs) {
  auto model = Make();
  const std::vector<int32_t> candidates = {0, 5, 39};
  const std::vector<int32_t> anchors = {3, 12};
  const std::vector<int32_t> truths = {8, 0};
  CandidateBlock block;
  model->PrepareCandidates(candidates.data(), candidates.size(), &block);
  EXPECT_TRUE(block.sorted);
  // Pool-only and truth-only calls must match the fused call's outputs.
  std::vector<float> fused_pool(anchors.size() * candidates.size());
  std::vector<float> fused_truth(anchors.size());
  model->ScoreBlock(anchors.data(), truths.data(), anchors.size(), 1,
                    QueryDirection::kTail, block, fused_pool.data(),
                    fused_truth.data());
  std::vector<float> only_pool(fused_pool.size());
  model->ScoreBlock(anchors.data(), nullptr, anchors.size(), 1,
                    QueryDirection::kTail, block, only_pool.data(), nullptr);
  std::vector<float> only_truth(fused_truth.size());
  model->ScoreBlock(anchors.data(), truths.data(), anchors.size(), 1,
                    QueryDirection::kTail, block, nullptr, only_truth.data());
  EXPECT_EQ(fused_pool, only_pool);
  EXPECT_EQ(fused_truth, only_truth);
}

TEST_P(ScoreBlockTest, EmptyBatchAndEmptyPoolAreNoops) {
  auto model = Make();
  const int32_t candidate = 3;
  const int32_t anchor = 1;
  const int32_t truth = 7;
  constexpr float kSentinel = 42.0f;
  CandidateBlock one;
  model->PrepareCandidates(&candidate, 1, &one);
  CandidateBlock empty;
  model->PrepareCandidates(nullptr, 0, &empty);
  EXPECT_EQ(empty.size(), 0u);
  // No queries: neither output is touched.
  std::vector<float> pool(1, kSentinel), truths(1, kSentinel);
  model->ScoreBlock(nullptr, &truth, 0, 0, QueryDirection::kTail, one,
                    pool.data(), truths.data());
  EXPECT_EQ(pool[0], kSentinel);
  EXPECT_EQ(truths[0], kSentinel);
  // No candidates: the pool output is not touched; the truth still scores.
  model->ScoreBlock(&anchor, &truth, 1, 0, QueryDirection::kTail, empty,
                    pool.data(), truths.data());
  EXPECT_EQ(pool[0], kSentinel);
  float want = 0.0f;
  model->ScoreCandidates(anchor, 0, QueryDirection::kTail, &truth, 1, &want);
  EXPECT_EQ(truths[0], want);
}

TEST_P(ScoreBlockTest, PreparedPoolLargerThanOneEntityTile) {
  // A pool wider than the full evaluator's default 32768-entity tile,
  // scored through one prepared block: exercises the gather/transpose and
  // kernels well past the usual tile width.
  auto model = Make();
  constexpr size_t kPool = 40000;
  std::vector<int32_t> candidates(kPool);
  for (size_t c = 0; c < kPool; ++c) {
    candidates[c] = static_cast<int32_t>((c * 7) % 40);  // Many duplicates.
  }
  const std::vector<int32_t> anchors = {4, 31};
  const std::vector<int32_t> truths = {9, 0};
  CandidateBlock block;
  model->PrepareCandidates(candidates.data(), kPool, &block);
  EXPECT_FALSE(block.sorted);
  std::vector<float> pool_scores(anchors.size() * kPool);
  std::vector<float> truth_scores(anchors.size());
  model->ScoreBlock(anchors.data(), truths.data(), anchors.size(), 2,
                    QueryDirection::kTail, block, pool_scores.data(),
                    truth_scores.data());
  std::vector<float> scalar(kPool);
  for (size_t i = 0; i < anchors.size(); ++i) {
    model->ScoreCandidates(anchors[i], 2, QueryDirection::kTail,
                           candidates.data(), kPool, scalar.data());
    for (size_t c = 0; c < kPool; ++c) {
      ASSERT_EQ(pool_scores[i * kPool + c], scalar[c])
          << ModelTypeName(GetParam()) << " query " << i << " candidate "
          << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ScoreBlockTest,
                         ::testing::ValuesIn(kAllModelTypes),
                         [](const ::testing::TestParamInfo<ModelType>& info) {
                           return ModelTypeName(info.param);
                         });

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

TEST(SlotMajorEvaluatorTest, RanksIdenticalToScalarTripleMajorOrder) {
  const Dataset dataset = SynthDataset();
  const FilterIndex filter(dataset);
  Rng rng(13);
  const SampledCandidates pools = DrawCandidates(
      SamplingStrategy::kRandom, nullptr, dataset.num_entities(),
      /*n_s=*/60, NeededSlots(dataset, Split::kTest),
      2 * dataset.num_relations(), &rng);
  for (ModelType type : kAllModelTypes) {
    auto model = CreateModel(type, dataset.num_entities(),
                             dataset.num_relations(), SmallOptions())
                     .ValueOrDie();
    // Pools prepared once + fused ScoreBlock.
    const EstimateResult prepared =
        EvaluateSampled(*model, dataset, filter, Split::kTest, pools);
    const EstimateResult scalar =
        EvaluateSampledScalar(*model, dataset, filter, Split::kTest, pools);
    ASSERT_EQ(prepared.ranks.size(), scalar.ranks.size());
    for (size_t i = 0; i < prepared.ranks.size(); ++i) {
      EXPECT_EQ(prepared.ranks[i], scalar.ranks[i])
          << ModelTypeName(type) << " query " << i;
    }
    EXPECT_EQ(prepared.scored_candidates, scalar.scored_candidates);
    EXPECT_DOUBLE_EQ(prepared.metrics.mrr, scalar.metrics.mrr);
  }
}

TEST(SlotMajorEvaluatorTest, MaxTriplesPrefixMatchesScalar) {
  const Dataset dataset = SynthDataset();
  const FilterIndex filter(dataset);
  Rng rng(29);
  const SampledCandidates pools = DrawCandidates(
      SamplingStrategy::kRandom, nullptr, dataset.num_entities(),
      /*n_s=*/40, NeededSlots(dataset, Split::kTest),
      2 * dataset.num_relations(), &rng);
  auto model = CreateModel(ModelType::kDistMult, dataset.num_entities(),
                           dataset.num_relations(), SmallOptions())
                   .ValueOrDie();
  EstimateRequest request;
  request.max_triples = 57;
  const EstimateResult batched = EvaluateSampled(
      *model, dataset, filter, Split::kTest, pools, request);
  const EstimateResult scalar = EvaluateSampledScalar(
      *model, dataset, filter, Split::kTest, pools, request);
  EXPECT_EQ(batched.ranks, scalar.ranks);
  EXPECT_EQ(batched.ranks.size(), 2u * 57u);
}

TEST(SlotMajorEvaluatorTest, FullRankingUsesBatchedTilingConsistently) {
  // The tiled slot-major full evaluator must agree with a direct ScoreAll
  // walk for every kernel family: DistMult (dot), TransE (neg_l1), RESCAL
  // (dot through a relation matrix) and RotatE (complex distance). The
  // 100-entity tile is a width no kernel strip divides, and splits the 500
  // entities into five tiles, so the answer take-back at each tile's
  // offset is exercised.
  const Dataset dataset = SynthDataset();
  const FilterIndex filter(dataset);
  for (ModelType type : {ModelType::kDistMult, ModelType::kTransE,
                         ModelType::kRescal, ModelType::kRotatE}) {
    auto model = CreateModel(type, dataset.num_entities(),
                             dataset.num_relations(), SmallOptions())
                     .ValueOrDie();
    for (size_t entity_tile : {FullEvalOptions().entity_tile, size_t{100}}) {
      FullEvalOptions options;
      options.max_triples = 40;
      options.entity_tile = entity_tile;
      const FullEvalResult result =
          EvaluateFullRanking(*model, dataset, filter, Split::kTest, options);
      std::vector<float> scores(dataset.num_entities());
      for (int64_t i = 0; i < options.max_triples; ++i) {
        const Triple& triple = dataset.test()[i];
        for (QueryDirection dir :
             {QueryDirection::kTail, QueryDirection::kHead}) {
          const bool tail_dir = dir == QueryDirection::kTail;
          const int32_t anchor = tail_dir ? triple.head : triple.tail;
          const int32_t truth = tail_dir ? triple.tail : triple.head;
          model->ScoreAll(anchor, triple.relation, dir, scores.data());
          const std::vector<int32_t>* answers =
              filter.Answers(triple, dir);
          ASSERT_NE(answers, nullptr);
          int64_t higher = 0, tied = 0;
          size_t cursor = 0;
          for (int32_t e = 0; e < dataset.num_entities(); ++e) {
            while (cursor < answers->size() && (*answers)[cursor] < e) {
              ++cursor;
            }
            if (cursor < answers->size() && (*answers)[cursor] == e) continue;
            if (scores[e] > scores[truth]) {
              ++higher;
            } else if (scores[e] == scores[truth]) {
              ++tied;
            }
          }
          EXPECT_EQ(result.ranks[i * 2 + (tail_dir ? 0 : 1)],
                    RankFromCounts(higher, tied, options.tie))
              << ModelTypeName(type) << " entity_tile " << entity_tile
              << " triple " << i;
        }
      }
    }
  }
}

TEST(SlotMajorEvaluatorTest, SmallEntityTilesMatchDefaultTile) {
  // Forcing many small prepared tiles must not change a single rank: the
  // per-tile kernels are bit-identical and the filtered counting walk is
  // tile-order independent.
  const Dataset dataset = SynthDataset();
  const FilterIndex filter(dataset);
  for (ModelType type : {ModelType::kDistMult, ModelType::kConvE}) {
    auto model = CreateModel(type, dataset.num_entities(),
                             dataset.num_relations(), SmallOptions())
                     .ValueOrDie();
    FullEvalOptions defaults;
    defaults.max_triples = 30;
    const FullEvalResult one_tile =
        EvaluateFullRanking(*model, dataset, filter, Split::kTest, defaults);
    FullEvalOptions tiny = defaults;
    tiny.entity_tile = 64;  // 500 entities -> 8 tiles.
    const FullEvalResult many_tiles =
        EvaluateFullRanking(*model, dataset, filter, Split::kTest, tiny);
    EXPECT_EQ(one_tile.ranks, many_tiles.ranks) << ModelTypeName(type);
  }
}

TEST(SlotMajorEvaluatorTest, PoolsWiderThanOneTileMatchScalar) {
  // Sampled pools wider than kPoolTile are ranked in several tiles, and
  // gaps in the pools make a candidate's pool position differ from its
  // entity id, so the take-back must map answers to positions through the
  // pool index and check them against each tile's offset. Filtered answers
  // sit in both tiles and in the gaps; some truths are not pooled at all.
  constexpr int32_t kEntities = 40000;
  constexpr int32_t kRelations = 3;
  // Ids ending in 007 are left out of every pool.
  const auto pooled = [](int32_t e, int32_t period) {
    return e % period != 3 && e % 1000 != 7;
  };
  Rng rng(11);
  std::vector<Triple> train, test;
  for (int i = 0; i < 40; ++i) {
    const auto draw = [&] {
      return static_cast<int32_t>(rng.NextBounded(kEntities));
    };
    const int32_t h = i % 5 == 0 ? draw() / 1000 * 1000 + 7 : draw();
    const int32_t r = static_cast<int32_t>(rng.NextBounded(kRelations));
    const int32_t t = i % 5 == 1 ? draw() / 1000 * 1000 + 7 : draw();
    test.push_back({h, r, t});
    for (int32_t shift : {1, 97, 20000, 33000}) {
      train.push_back({h, r, (t + shift) % kEntities});
      train.push_back({(h + shift) % kEntities, r, t});
    }
  }
  test.push_back(test.front());  // A repeated query shares its score row.
  const Dataset dataset("wide", kEntities, kRelations, std::move(train), {},
                        std::move(test), TypeStore());
  const FilterIndex filter(dataset);
  SampledCandidates pools;
  pools.pools.resize(2 * kRelations);
  for (size_t slot = 0; slot < pools.pools.size(); ++slot) {
    const int32_t period = 89 + 2 * static_cast<int32_t>(slot);
    for (int32_t e = 0; e < kEntities; ++e) {
      if (pooled(e, period)) pools.pools[slot].push_back(e);
    }
    ASSERT_GT(pools.pools[slot].size(), kPoolTile);
  }
  ModelOptions options;
  options.dim = 8;
  options.seed = 5;
  for (ModelType type : {ModelType::kDistMult, ModelType::kRotatE}) {
    auto model = CreateModel(type, kEntities, kRelations, options)
                     .ValueOrDie();
    const EstimateResult batched =
        EvaluateSampled(*model, dataset, filter, Split::kTest, pools);
    const EstimateResult scalar =
        EvaluateSampledScalar(*model, dataset, filter, Split::kTest, pools);
    EXPECT_EQ(batched.ranks, scalar.ranks) << ModelTypeName(type);
    EXPECT_EQ(batched.scored_candidates, scalar.scored_candidates);
  }
}

TEST(ScoreTriplesTest, MatchesScoreTriple) {
  const Dataset dataset = SynthDataset();
  auto model = CreateModel(ModelType::kComplEx, dataset.num_entities(),
                           dataset.num_relations(), SmallOptions())
                   .ValueOrDie();
  const size_t n = 100;
  std::vector<float> batched(n);
  ScoreTriples(*model, dataset.test().data(), n, batched.data());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(batched[i], model->ScoreTriple(dataset.test()[i]), 1e-5)
        << "triple " << i;
  }
}

TEST(ScoreTriplesTest, WithNegativesMatchesIndependentPasses) {
  const Dataset dataset = SynthDataset();
  const size_t n = 60;
  constexpr size_t kNeg = 2;
  for (ModelType type : kAllModelTypes) {
    auto model = CreateModel(type, dataset.num_entities(),
                             dataset.num_relations(), SmallOptions())
                     .ValueOrDie();
    // Deterministic tail corruptions sharing each positive's head/relation.
    std::vector<Triple> negatives;
    negatives.reserve(n * kNeg);
    for (size_t i = 0; i < n; ++i) {
      const Triple& t = dataset.test()[i];
      for (size_t j = 0; j < kNeg; ++j) {
        const int32_t corrupt = static_cast<int32_t>(
            (t.tail + 1 + static_cast<int32_t>(i + j)) %
            dataset.num_entities());
        negatives.push_back({t.head, t.relation, corrupt});
      }
    }
    std::vector<float> pos(n), neg(n * kNeg);
    ScoreTriplesWithNegatives(*model, dataset.test().data(), n,
                              negatives.data(), kNeg, pos.data(), neg.data());
    std::vector<float> want_pos(n), want_neg(n * kNeg);
    ScoreTriples(*model, dataset.test().data(), n, want_pos.data());
    ScoreTriples(*model, negatives.data(), negatives.size(),
                 want_neg.data());
    EXPECT_EQ(pos, want_pos) << ModelTypeName(type);
    EXPECT_EQ(neg, want_neg) << ModelTypeName(type);
  }
}

}  // namespace
}  // namespace kgeval

#include <gtest/gtest.h>

#include <numeric>

#include "core/candidate_sets.h"
#include "core/framework.h"
#include "core/sampled_evaluator.h"
#include "core/samplers.h"
#include "eval/full_evaluator.h"
#include "models/trainer.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "tests/gate_data.h"

namespace kgeval {
namespace {

Dataset SynthDataset(uint64_t seed = 42) {
  SynthConfig config;
  config.num_entities = 600;
  config.num_relations = 16;
  config.num_types = 12;
  config.num_train = 8000;
  config.num_valid = 600;
  config.num_test = 600;
  config.seed = seed;
  return GenerateDataset(config).ValueOrDie().dataset;
}

RecommenderScores LwdScores(const Dataset& dataset) {
  return CreateRecommender(RecommenderType::kLwd)->Fit(dataset).ValueOrDie();
}

// --- Candidate sets -----------------------------------------------------------

TEST(StaticSetsTest, SetsAreSortedSubsets) {
  const Dataset d = SynthDataset();
  const CandidateSets sets = BuildStaticSets(LwdScores(d), d);
  ASSERT_EQ(sets.num_slots(), 2 * d.num_relations());
  for (const auto& set : sets.sets) {
    EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
    if (!set.empty()) {
      EXPECT_GE(set.front(), 0);
      EXPECT_LT(set.back(), d.num_entities());
    }
  }
}

TEST(StaticSetsTest, IncludeSeenCoversTrain) {
  const Dataset d = SynthDataset();
  const CandidateSets sets = BuildStaticSets(LwdScores(d), d);
  const int32_t num_r = d.num_relations();
  for (size_t i = 0; i < std::min<size_t>(d.train().size(), 300); ++i) {
    const Triple& t = d.train()[i];
    EXPECT_TRUE(std::binary_search(sets.sets[t.relation].begin(),
                                   sets.sets[t.relation].end(), t.head));
    EXPECT_TRUE(std::binary_search(sets.sets[t.relation + num_r].begin(),
                                   sets.sets[t.relation + num_r].end(),
                                   t.tail));
  }
}

TEST(StaticSetsTest, ReductionRatePositive) {
  const Dataset d = SynthDataset();
  const CandidateSets sets = BuildStaticSets(LwdScores(d), d);
  // Thresholding must cut the space meaningfully on typed data.
  EXPECT_GT(sets.MacroReductionRate(), 0.3);
}

TEST(ProbabilisticSetsTest, WeightsAlignedAndPositive) {
  const Dataset d = SynthDataset();
  const CandidateSets sets = BuildProbabilisticSets(LwdScores(d), d);
  for (int32_t slot = 0; slot < sets.num_slots(); ++slot) {
    ASSERT_EQ(sets.sets[slot].size(), sets.weights[slot].size());
    for (float w : sets.weights[slot]) EXPECT_GT(w, 0.0f);
    EXPECT_TRUE(std::is_sorted(sets.sets[slot].begin(),
                               sets.sets[slot].end()));
  }
}

TEST(ProbabilisticSetsTest, SeenEntitiesAlwaysPresent) {
  const Dataset d = SynthDataset();
  const CandidateSets sets = BuildProbabilisticSets(LwdScores(d), d);
  const CsrMatrix seen = ObservedSlots(d, {Split::kTrain});
  for (int32_t slot = 0; slot < sets.num_slots(); ++slot) {
    for (int64_t k = seen.RowBegin(slot); k < seen.RowEnd(slot); ++k) {
      const int32_t e = seen.col_idx()[k];
      EXPECT_TRUE(std::binary_search(sets.sets[slot].begin(),
                                     sets.sets[slot].end(), e))
          << "slot " << slot << " entity " << e;
    }
  }
}

TEST(SetQualityTest, PerfectSetsScorePerfectly) {
  const Dataset d = SynthDataset();
  CandidateSets all;
  all.num_entities = d.num_entities();
  all.sets.resize(2 * d.num_relations());
  std::vector<int32_t> everyone(d.num_entities());
  std::iota(everyone.begin(), everyone.end(), 0);
  for (auto& set : all.sets) set = everyone;
  const SetQuality q = EvaluateSetQuality(all, d);
  EXPECT_DOUBLE_EQ(q.cr_test, 1.0);
  EXPECT_DOUBLE_EQ(q.rr, 0.0);  // No reduction.
}

TEST(SetQualityTest, EmptySetsScoreZeroRecall) {
  const Dataset d = SynthDataset();
  CandidateSets none;
  none.num_entities = d.num_entities();
  none.sets.resize(2 * d.num_relations());
  const SetQuality q = EvaluateSetQuality(none, d);
  EXPECT_DOUBLE_EQ(q.cr_test, 0.0);
  EXPECT_DOUBLE_EQ(q.rr, 1.0);
}

TEST(SetQualityTest, CrTestAtLeastCrUnseen) {
  // Seen pairs are always covered when include_seen is on, so the overall
  // recall dominates the unseen recall.
  const Dataset d = SynthDataset();
  const CandidateSets sets = BuildStaticSets(LwdScores(d), d);
  const SetQuality q = EvaluateSetQuality(sets, d);
  EXPECT_GE(q.cr_test, q.cr_unseen);
  EXPECT_GT(q.cr_test, 0.5);
}

// --- Samplers -----------------------------------------------------------------

TEST(NeededSlotsTest, BothDirectionsPerRelation) {
  std::vector<Triple> train = {{0, 0, 1}, {1, 1, 2}, {2, 2, 0}};
  std::vector<Triple> test = {{0, 1, 2}};
  Dataset d("slots", 3, 3, std::move(train), {}, std::move(test),
            TypeStore());
  const std::vector<int32_t> slots = NeededSlots(d, Split::kTest);
  // Relation 1 in test -> slots 1 (domain) and 4 (range, offset |R|=3).
  EXPECT_EQ(slots, (std::vector<int32_t>{1, 4}));
}

TEST(DrawCandidatesTest, RandomPoolsHaveRequestedSize) {
  Rng rng(1);
  const SampledCandidates pools = DrawCandidates(
      SamplingStrategy::kRandom, nullptr, 1000, 50, {0, 3}, 6, &rng);
  EXPECT_EQ(pools.pools[0].size(), 50u);
  EXPECT_EQ(pools.pools[3].size(), 50u);
  EXPECT_TRUE(pools.pools[1].empty());  // Not requested.
}

TEST(DrawCandidatesTest, StaticCapsAtSetSize) {
  CandidateSets sets;
  sets.num_entities = 100;
  sets.sets = {{1, 2, 3}, {4, 5, 6, 7}};
  Rng rng(2);
  const SampledCandidates pools = DrawCandidates(
      SamplingStrategy::kStatic, &sets, 100, 10, {0, 1}, 2, &rng);
  // Theorem 1 restriction: the whole set when n_s exceeds it.
  EXPECT_EQ(pools.pools[0], (std::vector<int32_t>{1, 2, 3}));
  EXPECT_EQ(pools.pools[1], (std::vector<int32_t>{4, 5, 6, 7}));
}

TEST(DrawCandidatesTest, StaticSubsamplesLargeSets) {
  CandidateSets sets;
  sets.num_entities = 100;
  sets.sets.push_back(std::vector<int32_t>(60));
  std::iota(sets.sets[0].begin(), sets.sets[0].end(), 0);
  Rng rng(3);
  const SampledCandidates pools = DrawCandidates(
      SamplingStrategy::kStatic, &sets, 100, 20, {0}, 1, &rng);
  EXPECT_EQ(pools.pools[0].size(), 20u);
  for (int32_t e : pools.pools[0]) EXPECT_LT(e, 60);
}

TEST(DrawCandidatesTest, ProbabilisticRespectsSupport) {
  CandidateSets sets;
  sets.num_entities = 100;
  sets.sets = {{10, 20, 30, 40}};
  sets.weights = {{1.0f, 2.0f, 0.0f, 4.0f}};
  Rng rng(4);
  const SampledCandidates pools = DrawCandidates(
      SamplingStrategy::kProbabilistic, &sets, 100, 10, {0}, 1, &rng);
  // Weight-0 entity 30 can never be drawn; the others all fit in n_s.
  EXPECT_EQ(pools.pools[0], (std::vector<int32_t>{10, 20, 40}));
}

/// FNV-1a over the pools of two consecutive DrawPools calls: every pool's
/// size and ids, as little-endian 64-bit words.
uint64_t PoolsDigest(const SampledCandidates& first,
                     const SampledCandidates& second) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  const auto add = [&hash](uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xFF;
      hash *= 0x100000001B3ULL;
    }
  };
  for (const SampledCandidates* draw : {&first, &second}) {
    add(draw->pools.size());
    for (const auto& pool : draw->pools) {
      add(pool.size());
      for (int32_t id : pool) add(static_cast<uint32_t>(id));
    }
  }
  return hash;
}

// Test-split pools on scaled codex-s from the framework's L-WD sets, seeds
// 1-3 per strategy. Each digest covers two consecutive DrawPools calls, so
// the RNG state the first draw leaves behind is pinned too. Pools are part
// of the determinism contract: they must not depend on the thread count
// (the core_test_one_thread ctest reruns this on one worker).
TEST(DrawCandidatesTest, GoldenPoolDigests) {
  const Dataset dataset = CodexS();
  struct Golden {
    SamplingStrategy strategy;
    uint64_t digests[3];
  };
  constexpr Golden kGolden[] = {
      {SamplingStrategy::kRandom,
       {0x8E3071C4C2F82C3FULL, 0xF16E36BEB5D3E161ULL, 0x9C912C7D58527F3BULL}},
      {SamplingStrategy::kStatic,
       {0xD35DDE54EB269399ULL, 0x1522FCB31A134D9CULL, 0x06A234B37A42CB8EULL}},
      {SamplingStrategy::kProbabilistic,
       {0x621E534724F9644BULL, 0x462FA729726E3433ULL, 0x4E494CEB62798CAAULL}},
  };
  for (const Golden& golden : kGolden) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      FrameworkOptions options;
      options.strategy = golden.strategy;
      options.seed = seed;
      auto framework =
          EvaluationFramework::Build(&dataset, options).ValueOrDie();
      const SampledCandidates first = framework->DrawPools(Split::kTest);
      const SampledCandidates second = framework->DrawPools(Split::kTest);
      const uint64_t digest = PoolsDigest(first, second);
      EXPECT_EQ(digest, golden.digests[seed - 1])
          << SamplingStrategyName(golden.strategy) << " seed " << seed
          << std::hex << std::uppercase << ": 0x" << digest;
    }
  }
}

TEST(SamplingStrategyTest, Names) {
  EXPECT_STREQ(SamplingStrategyName(SamplingStrategy::kRandom), "Random");
  EXPECT_STREQ(SamplingStrategyName(SamplingStrategy::kStatic), "Static");
  EXPECT_STREQ(SamplingStrategyName(SamplingStrategy::kProbabilistic),
               "Probabilistic");
}

// --- Sampled evaluator ---------------------------------------------------------

class TrainedFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(SynthDataset());
    filter_ = new FilterIndex(*dataset_);
    ModelOptions options;
    options.dim = 24;
    options.adam.learning_rate = 3e-3f;
    auto model = CreateModel(ModelType::kComplEx, dataset_->num_entities(),
                             dataset_->num_relations(), options)
                     .ValueOrDie();
    TrainerOptions trainer_options;
    trainer_options.epochs = 8;
    Trainer trainer(dataset_, trainer_options);
    ASSERT_TRUE(trainer.Train(model.get()).ok());
    model_ = model.release();
  }
  static void TearDownTestSuite() {
    delete model_;
    delete filter_;
    delete dataset_;
  }

  static Dataset* dataset_;
  static FilterIndex* filter_;
  static KgeModel* model_;
};

Dataset* TrainedFixture::dataset_ = nullptr;
FilterIndex* TrainedFixture::filter_ = nullptr;
KgeModel* TrainedFixture::model_ = nullptr;

TEST_F(TrainedFixture, FullPoolRecoversExactMetrics) {
  // Sampling *all* entities must reproduce the full filtered ranking
  // exactly — the key equivalence property of the sampled evaluator.
  SampledCandidates pools;
  pools.pools.resize(2 * dataset_->num_relations());
  std::vector<int32_t> everyone(dataset_->num_entities());
  std::iota(everyone.begin(), everyone.end(), 0);
  for (int32_t slot : NeededSlots(*dataset_, Split::kTest)) {
    pools.pools[slot] = everyone;
  }
  const EstimateResult sampled =
      EvaluateSampled(*model_, *dataset_, *filter_, Split::kTest, pools);
  const FullEvalResult full =
      EvaluateFullRanking(*model_, *dataset_, *filter_, Split::kTest);
  ASSERT_EQ(sampled.ranks.size(), full.ranks.size());
  for (size_t i = 0; i < full.ranks.size(); ++i) {
    EXPECT_DOUBLE_EQ(sampled.ranks[i], full.ranks[i]) << "query " << i;
  }
  EXPECT_DOUBLE_EQ(sampled.metrics.mrr, full.metrics.mrr);
}

TEST_F(TrainedFixture, SampledRanksNeverExceedFullRanks) {
  // A subsample can only remove potential higher-ranked competitors, so the
  // estimated rank is optimistic per query (the heart of Section 4).
  FrameworkOptions options;
  options.strategy = SamplingStrategy::kRandom;
  options.sample_fraction = 0.1;
  auto framework =
      EvaluationFramework::Build(dataset_, options).ValueOrDie();
  const EstimateResult sampled =
      framework->Estimate(*model_, *filter_, Split::kTest);
  const FullEvalResult full =
      EvaluateFullRanking(*model_, *dataset_, *filter_, Split::kTest);
  ASSERT_EQ(sampled.ranks.size(), full.ranks.size());
  for (size_t i = 0; i < full.ranks.size(); ++i) {
    EXPECT_LE(sampled.ranks[i], full.ranks[i] + 1e-9) << "query " << i;
  }
}

TEST_F(TrainedFixture, RandomOverestimatesMoreThanGuided) {
  const FullEvalResult full =
      EvaluateFullRanking(*model_, *dataset_, *filter_, Split::kTest);
  auto estimate_mrr = [&](SamplingStrategy strategy) {
    FrameworkOptions options;
    options.strategy = strategy;
    options.recommender = RecommenderType::kLwd;
    options.sample_fraction = 0.1;
    auto framework =
        EvaluationFramework::Build(dataset_, options).ValueOrDie();
    return framework->Estimate(*model_, *filter_, Split::kTest).metrics.mrr;
  };
  const double random_err =
      std::abs(estimate_mrr(SamplingStrategy::kRandom) - full.metrics.mrr);
  const double static_err =
      std::abs(estimate_mrr(SamplingStrategy::kStatic) - full.metrics.mrr);
  const double prob_err = std::abs(
      estimate_mrr(SamplingStrategy::kProbabilistic) - full.metrics.mrr);
  // The paper's headline finding.
  EXPECT_GT(random_err, static_err);
  EXPECT_GT(random_err, prob_err);
}

TEST_F(TrainedFixture, LargerSamplesImproveRandomEstimates) {
  const FullEvalResult full =
      EvaluateFullRanking(*model_, *dataset_, *filter_, Split::kTest);
  double previous_error = 1e9;
  for (double fraction : {0.02, 0.2, 0.9}) {
    FrameworkOptions options;
    options.strategy = SamplingStrategy::kRandom;
    options.sample_fraction = fraction;
    options.seed = 7;
    auto framework =
        EvaluationFramework::Build(dataset_, options).ValueOrDie();
    const double err = std::abs(
        framework->Estimate(*model_, *filter_, Split::kTest).metrics.mrr -
        full.metrics.mrr);
    EXPECT_LT(err, previous_error + 0.02);
    previous_error = err;
  }
}

TEST_F(TrainedFixture, EstimatesAreReproducibleGivenSeed) {
  FrameworkOptions options;
  options.strategy = SamplingStrategy::kProbabilistic;
  options.sample_fraction = 0.05;
  options.seed = 123;
  auto fw1 = EvaluationFramework::Build(dataset_, options).ValueOrDie();
  auto fw2 = EvaluationFramework::Build(dataset_, options).ValueOrDie();
  EXPECT_DOUBLE_EQ(fw1->Estimate(*model_, *filter_, Split::kTest).metrics.mrr,
                   fw2->Estimate(*model_, *filter_, Split::kTest).metrics.mrr);
}

// --- Framework construction -----------------------------------------------------

TEST(FrameworkTest, RejectsNullDataset) {
  EXPECT_FALSE(EvaluationFramework::Build(nullptr, FrameworkOptions()).ok());
}

TEST(FrameworkTest, RejectsBadSampleSize) {
  const Dataset d = SynthDataset();
  FrameworkOptions options;
  options.sample_fraction = 0.0;
  EXPECT_FALSE(EvaluationFramework::Build(&d, options).ok());
}

TEST(FrameworkTest, FractionResolvesAgainstEntities) {
  const Dataset d = SynthDataset();
  FrameworkOptions options;
  options.sample_fraction = 0.1;
  auto framework = EvaluationFramework::Build(&d, options).ValueOrDie();
  EXPECT_EQ(framework->SampleSize(), 60);  // 600 entities * 0.1.
}

TEST(FrameworkTest, RandomStrategySkipsRecommenderFit) {
  const Dataset d = SynthDataset();
  FrameworkOptions options;
  options.strategy = SamplingStrategy::kRandom;
  auto framework = EvaluationFramework::Build(&d, options).ValueOrDie();
  EXPECT_EQ(framework->sets().num_slots(), 0);
}

}  // namespace
}  // namespace kgeval

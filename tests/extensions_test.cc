#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/guided_negatives.h"
#include "core/triple_classifier.h"
#include "models/trainer.h"
#include "recommenders/recommender.h"
#include "synth/config.h"
#include "synth/generator.h"

namespace kgeval {
namespace {

SynthOutput SmallSynth(uint64_t seed = 51) {
  SynthConfig config;
  config.num_entities = 400;
  config.num_relations = 10;
  config.num_types = 10;
  config.num_train = 5000;
  config.num_valid = 300;
  config.num_test = 300;
  config.seed = seed;
  return GenerateDataset(config).ValueOrDie();
}

// --- Guided negative sampling --------------------------------------------------

class GuidedNegativesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synth_ = SmallSynth();
    scores_ = CreateRecommender(RecommenderType::kLwd)
                  ->Fit(synth_.dataset)
                  .ValueOrDie();
    sets_ = BuildProbabilisticSets(scores_, synth_.dataset);
  }
  SynthOutput synth_;
  RecommenderScores scores_;
  CandidateSets sets_;
};

TEST_F(GuidedNegativesTest, FullGuidanceDrawsFromSets) {
  NegativeSamplerFn sampler = MakeGuidedNegativeSampler(&sets_, 1.0);
  Rng rng(1);
  for (int i = 0; i < 300; ++i) {
    const int32_t relation = static_cast<int32_t>(rng.NextBounded(10));
    for (QueryDirection dir :
         {QueryDirection::kTail, QueryDirection::kHead}) {
      const int32_t neg = sampler(relation, dir, &rng);
      const int32_t slot = DomainRangeIndex(relation, dir, 10);
      if (sets_.sets[slot].empty()) {
        EXPECT_EQ(neg, -1);
      } else {
        ASSERT_GE(neg, 0);
        EXPECT_TRUE(std::binary_search(sets_.sets[slot].begin(),
                                       sets_.sets[slot].end(), neg));
      }
    }
  }
}

TEST_F(GuidedNegativesTest, ZeroGuidanceAlwaysFallsBack) {
  NegativeSamplerFn sampler = MakeGuidedNegativeSampler(&sets_, 0.0);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sampler(3, QueryDirection::kTail, &rng), -1);
  }
}

TEST_F(GuidedNegativesTest, PartialGuidanceMixes) {
  NegativeSamplerFn sampler = MakeGuidedNegativeSampler(&sets_, 0.5);
  Rng rng(3);
  int guided = 0, fallback = 0;
  for (int i = 0; i < 1000; ++i) {
    if (sampler(1, QueryDirection::kTail, &rng) >= 0) {
      ++guided;
    } else {
      ++fallback;
    }
  }
  EXPECT_GT(guided, 300);
  EXPECT_GT(fallback, 300);
}

TEST_F(GuidedNegativesTest, TournamentPrefersHighWeights) {
  // With weights, the two-way tournament draw must skew towards
  // higher-scored members relative to a uniform draw.
  NegativeSamplerFn sampler = MakeGuidedNegativeSampler(&sets_, 1.0);
  Rng rng(4);
  const int32_t slot_relation = 0;
  const int32_t slot =
      DomainRangeIndex(slot_relation, QueryDirection::kTail, 10);
  const auto& members = sets_.sets[slot];
  const auto& weights = sets_.weights[slot];
  if (members.size() < 10) GTEST_SKIP();
  // Median weight of drawn entities should exceed the set's median weight.
  double drawn_total = 0.0;
  const int draws = 2000;
  for (int i = 0; i < draws; ++i) {
    const int32_t neg = sampler(slot_relation, QueryDirection::kTail, &rng);
    const auto it = std::lower_bound(members.begin(), members.end(), neg);
    drawn_total += weights[static_cast<size_t>(it - members.begin())];
  }
  double uniform_total = 0.0;
  for (float w : weights) uniform_total += w;
  EXPECT_GT(drawn_total / draws,
            uniform_total / static_cast<double>(weights.size()));
}

TEST_F(GuidedNegativesTest, TrainerAcceptsGuidedSampler) {
  const Dataset& dataset = synth_.dataset;
  ModelOptions model_options;
  model_options.dim = 16;
  auto model = CreateModel(ModelType::kDistMult, dataset.num_entities(),
                           dataset.num_relations(), model_options)
                   .ValueOrDie();
  TrainerOptions options;
  options.negative_sampler = MakeGuidedNegativeSampler(&sets_, 0.7);
  Trainer trainer(&dataset, options);
  const double first = trainer.TrainEpoch(model.get(), 0);
  double last = first;
  for (int epoch = 1; epoch < 4; ++epoch) {
    last = trainer.TrainEpoch(model.get(), epoch);
  }
  EXPECT_LT(last, first);
  EXPECT_TRUE(std::isfinite(last));
}

// --- Triple classifier ----------------------------------------------------------

class TripleClassifierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synth_ = SmallSynth(77);
    scores_ = CreateRecommender(RecommenderType::kLwd)
                  ->Fit(synth_.dataset)
                  .ValueOrDie();
  }
  SynthOutput synth_;
  RecommenderScores scores_;
};

TEST_F(TripleClassifierTest, TrainTriplesArePlausible) {
  TripleClassifier classifier(&scores_);
  for (size_t i = 0; i < std::min<size_t>(synth_.dataset.train().size(), 500);
       ++i) {
    EXPECT_TRUE(classifier.IsPlausible(synth_.dataset.train()[i]));
  }
}

TEST_F(TripleClassifierTest, MarginPositiveIffPlausible) {
  TripleClassifier classifier(&scores_);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    Triple t{static_cast<int32_t>(rng.NextBounded(400)),
             static_cast<int32_t>(rng.NextBounded(10)),
             static_cast<int32_t>(rng.NextBounded(400))};
    if (classifier.IsPlausible(t)) {
      EXPECT_GT(classifier.Margin(t), 0.0f);
    } else {
      EXPECT_EQ(classifier.Margin(t), 0.0f);
    }
  }
}

TEST_F(TripleClassifierTest, VerdictNamesStable) {
  EXPECT_STREQ(TripleVerdictName(TripleVerdict::kPlausible), "plausible");
  EXPECT_STREQ(TripleVerdictName(TripleVerdict::kBothImplausible),
               "both-implausible");
}

TEST_F(TripleClassifierTest, RandomCorruptionsOftenFlagged) {
  // Uniform corruptions are mostly easy negatives (the paper's premise), so
  // a meaningful share must be flagged.
  TripleClassifier classifier(&scores_);
  Rng rng(6);
  int flagged = 0;
  const int trials = 1000;
  for (int i = 0; i < trials; ++i) {
    Triple t = synth_.dataset.train()[rng.NextBounded(
        synth_.dataset.train().size())];
    t.tail = static_cast<int32_t>(rng.NextBounded(400));
    if (!classifier.IsPlausible(t)) ++flagged;
  }
  // The zero-score fraction grows with dataset scale (Table 2: 5-58% at the
  // paper's sizes); this unit-test KG is tiny, so a low bar suffices.
  EXPECT_GT(flagged, trials / 50);
}

TEST_F(TripleClassifierTest, DetectsVerdictSides) {
  // Construct a triple whose head is fine (seen in train for that slot) but
  // whose tail has zero range score, and check the verdict side.
  TripleClassifier classifier(&scores_);
  const int32_t num_r = synth_.dataset.num_relations();
  bool found = false;
  for (const Triple& base : synth_.dataset.train()) {
    for (int32_t tail = 0; tail < 400 && !found; ++tail) {
      if (scores_.scores.At(tail, base.relation + num_r) == 0.0f) {
        const Triple corrupted{base.head, base.relation, tail};
        EXPECT_EQ(classifier.Classify(corrupted),
                  TripleVerdict::kTailImplausible);
        found = true;
      }
    }
    if (found) break;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace kgeval

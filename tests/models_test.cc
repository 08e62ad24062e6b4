#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "models/checkpoint.h"
#include "models/kge_model.h"
#include "models/trainer.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "tests/temp_dir.h"

namespace kgeval {
namespace {

constexpr ModelType kAllModels[] = {
    ModelType::kTransE, ModelType::kDistMult, ModelType::kComplEx,
    ModelType::kRescal, ModelType::kRotatE,   ModelType::kTuckEr,
    ModelType::kConvE,  ModelType::kTComplEx};

ModelOptions SmallOptions(uint64_t seed = 7) {
  ModelOptions options;
  options.dim = 16;
  options.seed = seed;
  return options;
}

class ModelTest : public ::testing::TestWithParam<ModelType> {
 protected:
  std::unique_ptr<KgeModel> Make(uint64_t seed = 7) {
    return CreateModel(GetParam(), /*num_entities=*/20, /*num_relations=*/5,
                       SmallOptions(seed))
        .ValueOrDie();
  }
};

TEST_P(ModelTest, CreateSucceeds) {
  auto model = Make();
  EXPECT_EQ(model->type(), GetParam());
  EXPECT_EQ(model->num_entities(), 20);
  EXPECT_EQ(model->num_relations(), 5);
}

TEST_P(ModelTest, ScoresAreFinite) {
  auto model = Make();
  for (int32_t h = 0; h < 5; ++h) {
    for (int32_t r = 0; r < 5; ++r) {
      for (int32_t t = 0; t < 5; ++t) {
        if (h == t) continue;
        const float s = model->ScoreTriple({h, r, t});
        EXPECT_TRUE(std::isfinite(s)) << h << " " << r << " " << t;
      }
    }
  }
}

TEST_P(ModelTest, ScoreTripleMatchesTailCandidates) {
  auto model = Make();
  const int32_t candidates[3] = {2, 7, 11};
  float scores[3];
  model->ScoreCandidates(1, 3, QueryDirection::kTail, candidates, 3, scores);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(scores[i], model->ScoreTriple({1, 3, candidates[i]}));
  }
}

TEST_P(ModelTest, HeadDirectionConsistent) {
  // For every model except ConvE (which uses reciprocal relations for head
  // queries), scoring h as a head-candidate of (?, r, t) must equal the
  // plain triple score.
  if (GetParam() == ModelType::kConvE) GTEST_SKIP();
  auto model = Make();
  const int32_t heads[2] = {4, 9};
  float scores[2];
  model->ScoreCandidates(12, 2, QueryDirection::kHead, heads, 2, scores);
  for (int i = 0; i < 2; ++i) {
    EXPECT_NEAR(scores[i], model->ScoreTriple({heads[i], 2, 12}), 1e-4);
  }
}

TEST_P(ModelTest, ScoreAllMatchesPerCandidate) {
  auto model = Make();
  std::vector<float> all(20);
  model->ScoreAll(3, 1, QueryDirection::kTail, all.data());
  for (int32_t t = 0; t < 20; ++t) {
    EXPECT_FLOAT_EQ(all[t], model->ScoreTriple({3, 1, t}));
  }
}

TEST_P(ModelTest, DeterministicInit) {
  auto a = Make(42);
  auto b = Make(42);
  EXPECT_FLOAT_EQ(a->ScoreTriple({1, 2, 3}), b->ScoreTriple({1, 2, 3}));
}

TEST_P(ModelTest, DifferentSeedsDiffer) {
  auto a = Make(1);
  auto b = Make(2);
  EXPECT_NE(a->ScoreTriple({1, 2, 3}), b->ScoreTriple({1, 2, 3}));
}

TEST_P(ModelTest, NegativeDscoreRaisesScore) {
  // UpdateTriple with dscore < 0 (a positive example in BCE terms) must push
  // the triple's score up — the black-box gradient-direction check that
  // catches sign errors in every model's backward pass.
  auto model = Make();
  const Triple triple{2, 1, 9};
  const float before = model->ScoreTriple(triple);
  for (int step = 0; step < 30; ++step) {
    model->UpdateTriple(triple.head, triple.relation, triple.tail,
                        QueryDirection::kTail, -1.0f);
  }
  EXPECT_GT(model->ScoreTriple(triple), before);
}

TEST_P(ModelTest, PositiveDscoreLowersScore) {
  auto model = Make();
  const Triple triple{5, 0, 14};
  const float before = model->ScoreTriple(triple);
  for (int step = 0; step < 30; ++step) {
    model->UpdateTriple(triple.head, triple.relation, triple.tail,
                        QueryDirection::kTail, 1.0f);
  }
  EXPECT_LT(model->ScoreTriple(triple), before);
}

TEST_P(ModelTest, HeadDirectionUpdateRaisesHeadScore) {
  // The head-direction update must improve the head-query score (this
  // exercises ConvE's reciprocal-relation path).
  auto model = Make();
  const Triple triple{6, 2, 17};
  float before = 0.0f, after = 0.0f;
  model->ScoreCandidates(triple.tail, triple.relation, QueryDirection::kHead,
                         &triple.head, 1, &before);
  for (int step = 0; step < 30; ++step) {
    model->UpdateTriple(triple.head, triple.relation, triple.tail,
                        QueryDirection::kHead, -1.0f);
  }
  model->ScoreCandidates(triple.tail, triple.relation, QueryDirection::kHead,
                         &triple.head, 1, &after);
  EXPECT_GT(after, before);
}

TEST_P(ModelTest, UpdateLeavesUntouchedEntitiesAlone) {
  // Only meaningful for models whose parameters are all per-entity /
  // per-relation rows; TuckER's shared core tensor, ConvE's shared
  // conv/FC stack, and TComplEx's per-timestamp embedding (shared by
  // every triple at that timestamp) legitimately shift every score.
  if (GetParam() == ModelType::kTuckEr || GetParam() == ModelType::kConvE ||
      GetParam() == ModelType::kTComplEx) {
    GTEST_SKIP();
  }
  auto model = Make();
  // Entity 19 and relation 4 are untouched by updates on (2, 1, 9).
  const float before = model->ScoreTriple({18, 4, 19});
  for (int step = 0; step < 10; ++step) {
    model->UpdateTriple(2, 1, 9, QueryDirection::kTail, -1.0f);
  }
  EXPECT_FLOAT_EQ(model->ScoreTriple({18, 4, 19}), before);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelTest, ::testing::ValuesIn(kAllModels),
                         [](const auto& info) {
                           return std::string(ModelTypeName(info.param));
                         });

TEST(ModelFactoryTest, RejectsOddDimComplex) {
  ModelOptions options;
  options.dim = 15;
  EXPECT_FALSE(CreateModel(ModelType::kComplEx, 10, 2, options).ok());
  EXPECT_FALSE(CreateModel(ModelType::kRotatE, 10, 2, options).ok());
}

TEST(ModelFactoryTest, RejectsBadConvEDim) {
  ModelOptions options;
  options.dim = 10;  // Not divisible by 4.
  EXPECT_FALSE(CreateModel(ModelType::kConvE, 10, 2, options).ok());
}

TEST(ModelFactoryTest, RejectsNonPositiveCounts) {
  EXPECT_FALSE(CreateModel(ModelType::kTransE, 0, 2, ModelOptions()).ok());
  EXPECT_FALSE(CreateModel(ModelType::kTransE, 10, -1, ModelOptions()).ok());
}

TEST(ModelTypeTest, ParseRoundTrips) {
  for (ModelType type : kAllModels) {
    auto parsed = ParseModelType(ModelTypeName(type));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.ValueOrDie(), type);
  }
  EXPECT_FALSE(ParseModelType("GPT").ok());
}

class TrainerModelTest : public ::testing::TestWithParam<ModelType> {
 protected:
  static SynthOutput Data() {
    SynthConfig config;
    config.num_entities = 120;
    config.num_relations = 6;
    config.num_types = 6;
    config.num_train = 1500;
    config.num_valid = 50;
    config.num_test = 50;
    config.seed = 5;
    return GenerateDataset(config).ValueOrDie();
  }
};

TEST_P(TrainerModelTest, LossDecreases) {
  const SynthOutput synth = Data();

  ModelOptions model_options = SmallOptions();
  model_options.adam.learning_rate = 3e-3f;
  auto model = CreateModel(GetParam(), synth.dataset.num_entities(),
                           synth.dataset.num_relations(), model_options)
                   .ValueOrDie();
  TrainerOptions trainer_options;
  trainer_options.negatives_per_positive = 4;
  Trainer trainer(&synth.dataset, trainer_options);
  const double first = trainer.TrainEpoch(model.get(), 0);
  double last = first;
  for (int epoch = 1; epoch < 5; ++epoch) {
    last = trainer.TrainEpoch(model.get(), epoch);
  }
  EXPECT_LT(last, first) << ModelTypeName(GetParam());
}

TEST_P(TrainerModelTest, TrainingIsReproducible) {
  // Two runs with the default options must save the same bytes, dense
  // parameters (ConvE's filters, TuckER's core) included, whatever the
  // worker pool's width.
  const SynthOutput synth = Data();
  TrainerOptions trainer_options;
  trainer_options.epochs = 2;
  TempDir dir;
  std::string bytes[2];
  for (int run = 0; run < 2; ++run) {
    auto model = CreateModel(GetParam(), synth.dataset.num_entities(),
                             synth.dataset.num_relations(), SmallOptions())
                     .ValueOrDie();
    Trainer trainer(&synth.dataset, trainer_options);
    ASSERT_TRUE(trainer.Train(model.get()).ok());
    const std::string path = dir.path() + "/run" + std::to_string(run);
    ASSERT_TRUE(SaveModel(model.get(), path).ok());
    std::ifstream in(path, std::ios::binary);
    bytes[run].assign(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(bytes[0].empty());
  EXPECT_TRUE(bytes[0] == bytes[1]) << ModelTypeName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllModels, TrainerModelTest,
                         ::testing::ValuesIn(kAllModels),
                         [](const auto& info) {
                           return std::string(ModelTypeName(info.param));
                         });

TEST(TrainerTest, NullModelRejected) {
  SynthConfig config;
  config.num_entities = 50;
  config.num_relations = 4;
  config.num_types = 4;
  config.num_train = 300;
  config.num_valid = 10;
  config.num_test = 10;
  const SynthOutput synth = GenerateDataset(config).ValueOrDie();
  Trainer trainer(&synth.dataset, TrainerOptions());
  EXPECT_FALSE(trainer.Train(nullptr).ok());
}

TEST(TrainerTest, CallbackRunsEveryEpoch) {
  SynthConfig config;
  config.num_entities = 50;
  config.num_relations = 4;
  config.num_types = 4;
  config.num_train = 300;
  config.num_valid = 10;
  config.num_test = 10;
  const SynthOutput synth = GenerateDataset(config).ValueOrDie();
  auto model = CreateModel(ModelType::kDistMult, 50, 4, SmallOptions())
                   .ValueOrDie();
  TrainerOptions options;
  options.epochs = 3;
  Trainer trainer(&synth.dataset, options);
  int calls = 0;
  ASSERT_TRUE(trainer
                  .Train(model.get(),
                         [&calls](int32_t epoch, const KgeModel&) {
                           EXPECT_EQ(epoch, calls);
                           ++calls;
                         })
                  .ok());
  EXPECT_EQ(calls, 3);
}

}  // namespace
}  // namespace kgeval

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
  // per-relation rows; TuckER's shared core tensor and ConvE's shared
  // conv/FC stack legitimately shift every score.
  if (GetParam() == ModelType::kTuckEr || GetParam() == ModelType::kConvE) {
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

TEST_P(ModelTest, ParameterElementCountMatchesTheTables) {
  // Checkpoint loading bounds a file's claimed tables with this count, so
  // it must be exactly the CollectParameters total: with default widths and
  // with TuckER's relation width set (the other models ignore it).
  ModelOptions widths = SmallOptions();
  widths.relation_dim = 8;
  for (const ModelOptions& options : {SmallOptions(), widths}) {
    auto model = CreateModel(GetParam(), 20, 5, options).ValueOrDie();
    std::vector<KgeModel::NamedParameter> params;
    model->CollectParameters(&params);
    int64_t total = 0;
    for (const auto& param : params) {
      total += static_cast<int64_t>(param.matrix->size());
    }
    EXPECT_EQ(ParameterElementCount(GetParam(), 20, 5, options), total);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelTest,
                         ::testing::ValuesIn(kAllModelTypes),
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
  for (size_t i = 0; i < std::size(kAllModelTypes); ++i) {
    const ModelType type = kAllModelTypes[i];
    // Enum order: checkpoint headers bound the type by the array's size.
    EXPECT_EQ(static_cast<size_t>(type), i);
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

std::string SavedBytes(KgeModel* model) {
  TempDir dir;
  const std::string path = dir.path() + "/model.ckpt";
  EXPECT_TRUE(SaveModel(model, path).ok());
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// The SaveModel bytes of a freshly created model after `epochs` epochs of
/// default-option training.
std::string TrainedBytes(ModelType type, const Dataset& dataset,
                         int32_t epochs) {
  auto model = CreateModel(type, dataset.num_entities(),
                           dataset.num_relations(), SmallOptions())
                   .ValueOrDie();
  TrainerOptions trainer_options;
  trainer_options.epochs = epochs;
  Trainer trainer(&dataset, trainer_options);
  EXPECT_TRUE(trainer.Train(model.get()).ok());
  return SavedBytes(model.get());
}

TEST_P(TrainerModelTest, TrainingIsReproducible) {
  // Two runs with the default options must save the same bytes, dense
  // parameters (ConvE's filters, TuckER's core) included.
  const SynthOutput synth = Data();
  const std::string first = TrainedBytes(GetParam(), synth.dataset, 2);
  ASSERT_FALSE(first.empty());
  EXPECT_TRUE(first == TrainedBytes(GetParam(), synth.dataset, 2))
      << ModelTypeName(GetParam());
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

// FNV-1a digests of the TrainingIsReproducible bytes, indexed by ModelType.
// Training output is part of the determinism contract: the seeded init, the
// Adam moments and the update order all feed these bytes, so a change to
// any of them shows up here, not only as a mismatch between two runs in one
// process. The build pins -ffp-contract=off, so the bytes do not depend on
// the target ISA.
constexpr uint64_t kGoldenDigests[] = {
    0xE86A2C7EC71A4F07ULL,  // TransE
    0xCC0E93677ED7944BULL,  // DistMult
    0xFC46A949578705E8ULL,  // ComplEx
    0x632A48FE43864437ULL,  // RESCAL
    0x72A45E9ED0757190ULL,  // RotatE
    0x19FF42CA47303FA2ULL,  // TuckER
    0xD476BDC3E3E0BAC3ULL,  // ConvE
};
static_assert(std::size(kGoldenDigests) == std::size(kAllModelTypes),
              "one golden digest per model type");

TEST_P(TrainerModelTest, GoldenDigests) {
  const SynthOutput synth = Data();
  const uint64_t digest = Fnv1a(TrainedBytes(GetParam(), synth.dataset, 2));
  EXPECT_EQ(digest, kGoldenDigests[static_cast<int>(GetParam())])
      << ModelTypeName(GetParam()) << " digest 0x" << std::hex
      << std::uppercase << digest;
}

TEST_P(TrainerModelTest, TrainingALoadedCopyMatchesTheOriginal) {
  // A loaded model holds no optimizer state, like a created one: one epoch
  // on the created model and one on its loaded copy must save the same
  // bytes.
  const SynthOutput synth = Data();
  auto model = CreateModel(GetParam(), synth.dataset.num_entities(),
                           synth.dataset.num_relations(), SmallOptions())
                   .ValueOrDie();
  TempDir dir;
  const std::string path = dir.path() + "/init.ckpt";
  ASSERT_TRUE(SaveModel(model.get(), path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  TrainerOptions trainer_options;
  trainer_options.epochs = 1;
  for (KgeModel* m : {model.get(), loaded.ValueOrDie().get()}) {
    Trainer trainer(&synth.dataset, trainer_options);
    ASSERT_TRUE(trainer.Train(m).ok());
  }
  EXPECT_TRUE(SavedBytes(model.get()) == SavedBytes(loaded.ValueOrDie().get()))
      << ModelTypeName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllModels, TrainerModelTest,
                         ::testing::ValuesIn(kAllModelTypes),
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

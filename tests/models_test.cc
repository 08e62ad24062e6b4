#include <gtest/gtest.h>

#include <algorithm>
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
  const int32_t tails[5] = {0, 1, 2, 3, 4};
  float scores[5];
  for (int32_t h = 0; h < 5; ++h) {
    for (int32_t r = 0; r < 5; ++r) {
      model->ScoreCandidates(h, r, QueryDirection::kTail, tails, 5, scores);
      for (int t = 0; t < 5; ++t) {
        EXPECT_TRUE(std::isfinite(scores[t])) << h << " " << r << " " << t;
      }
    }
  }
}

TEST_P(ModelTest, ScoreCandidatesMatchesOneAtATime) {
  auto model = Make();
  const int32_t candidates[3] = {2, 7, 11};
  float scores[3];
  model->ScoreCandidates(1, 3, QueryDirection::kTail, candidates, 3, scores);
  for (int i = 0; i < 3; ++i) {
    float one = 0.0f;
    model->ScoreCandidates(1, 3, QueryDirection::kTail, &candidates[i], 1,
                           &one);
    EXPECT_FLOAT_EQ(scores[i], one);
  }
}

TEST_P(ModelTest, HeadDirectionConsistent) {
  // For every model except ConvE (which uses reciprocal relations for head
  // queries), scoring h as a head-candidate of (?, r, t) must equal scoring
  // t as a tail-candidate of (h, r, ?).
  if (GetParam() == ModelType::kConvE) GTEST_SKIP();
  auto model = Make();
  const int32_t heads[2] = {4, 9};
  const int32_t tail = 12;
  float scores[2];
  model->ScoreCandidates(tail, 2, QueryDirection::kHead, heads, 2, scores);
  for (int i = 0; i < 2; ++i) {
    float forward = 0.0f;
    model->ScoreCandidates(heads[i], 2, QueryDirection::kTail, &tail, 1,
                           &forward);
    EXPECT_NEAR(scores[i], forward, 1e-4);
  }
}

TEST_P(ModelTest, DeterministicInit) {
  auto a = Make(42);
  auto b = Make(42);
  const int32_t tail = 3;
  float score_a = 0.0f, score_b = 0.0f;
  a->ScoreCandidates(1, 2, QueryDirection::kTail, &tail, 1, &score_a);
  b->ScoreCandidates(1, 2, QueryDirection::kTail, &tail, 1, &score_b);
  EXPECT_FLOAT_EQ(score_a, score_b);
}

TEST_P(ModelTest, DifferentSeedsDiffer) {
  auto a = Make(1);
  auto b = Make(2);
  const int32_t tail = 3;
  float score_a = 0.0f, score_b = 0.0f;
  a->ScoreCandidates(1, 2, QueryDirection::kTail, &tail, 1, &score_a);
  b->ScoreCandidates(1, 2, QueryDirection::kTail, &tail, 1, &score_b);
  EXPECT_NE(score_a, score_b);
}

TEST_P(ModelTest, NegativeDscoreRaisesScore) {
  // UpdateTriple with dscore < 0 (a positive example in BCE terms) must push
  // the triple's score up — the black-box gradient-direction check that
  // catches sign errors in every model's backward pass.
  auto model = Make();
  const Triple triple{2, 1, 9};
  float before = 0.0f, after = 0.0f;
  model->ScoreCandidates(triple.head, triple.relation, QueryDirection::kTail,
                         &triple.tail, 1, &before);
  for (int step = 0; step < 30; ++step) {
    model->UpdateTriple(triple.head, triple.relation, triple.tail,
                        QueryDirection::kTail, -1.0f);
  }
  model->ScoreCandidates(triple.head, triple.relation, QueryDirection::kTail,
                         &triple.tail, 1, &after);
  EXPECT_GT(after, before);
}

TEST_P(ModelTest, PositiveDscoreLowersScore) {
  auto model = Make();
  const Triple triple{5, 0, 14};
  float before = 0.0f, after = 0.0f;
  model->ScoreCandidates(triple.head, triple.relation, QueryDirection::kTail,
                         &triple.tail, 1, &before);
  for (int step = 0; step < 30; ++step) {
    model->UpdateTriple(triple.head, triple.relation, triple.tail,
                        QueryDirection::kTail, 1.0f);
  }
  model->ScoreCandidates(triple.head, triple.relation, QueryDirection::kTail,
                         &triple.tail, 1, &after);
  EXPECT_LT(after, before);
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
  // per-relation rows; ConvE's shared conv/FC stack legitimately shifts
  // every score.
  if (GetParam() == ModelType::kConvE) GTEST_SKIP();
  auto model = Make();
  // Entity 19 and relation 4 are untouched by updates on (2, 1, 9).
  const int32_t tail = 19;
  float before = 0.0f, after = 0.0f;
  model->ScoreCandidates(18, 4, QueryDirection::kTail, &tail, 1, &before);
  for (int step = 0; step < 10; ++step) {
    model->UpdateTriple(2, 1, 9, QueryDirection::kTail, -1.0f);
  }
  model->ScoreCandidates(18, 4, QueryDirection::kTail, &tail, 1, &after);
  EXPECT_FLOAT_EQ(after, before);
}

TEST_P(ModelTest, ParameterElementCountMatchesTheTables) {
  // Checkpoint loading bounds a file's claimed tables with this count, so
  // it must be exactly the CollectParameters total.
  auto model = CreateModel(GetParam(), 20, 5, SmallOptions()).ValueOrDie();
  std::vector<KgeModel::NamedParameter> params;
  model->CollectParameters(&params);
  int64_t total = 0;
  for (const auto& param : params) {
    total += static_cast<int64_t>(param.matrix->size());
  }
  EXPECT_EQ(ParameterElementCount(GetParam(), 20, 5, SmallOptions()), total);
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
  // Checkpoint headers store these values, so they are pinned; 5 is a
  // retired model's and stays unused.
  constexpr int kPinned[] = {0, 1, 2, 3, 4, 6};
  ASSERT_EQ(std::size(kAllModelTypes), std::size(kPinned));
  for (size_t i = 0; i < std::size(kAllModelTypes); ++i) {
    const ModelType type = kAllModelTypes[i];
    EXPECT_EQ(static_cast<int>(type), kPinned[i]);
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
  // parameters (ConvE's filters) included.
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

// FNV-1a digests of the TrainingIsReproducible bytes, in kAllModelTypes
// order.
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
    0xD476BDC3E3E0BAC3ULL,  // ConvE
};
static_assert(std::size(kGoldenDigests) == std::size(kAllModelTypes),
              "one golden digest per model type");

TEST_P(TrainerModelTest, GoldenDigests) {
  const SynthOutput synth = Data();
  const uint64_t digest = Fnv1a(TrainedBytes(GetParam(), synth.dataset, 2));
  const size_t index =
      std::find(std::begin(kAllModelTypes), std::end(kAllModelTypes),
                GetParam()) -
      std::begin(kAllModelTypes);
  EXPECT_EQ(digest, kGoldenDigests[index])
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

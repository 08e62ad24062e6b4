#include <gtest/gtest.h>

#include <cmath>
#include <iterator>

#include "core/framework.h"
#include "kp/kp_metric.h"
#include "kp/persistence.h"
#include "models/trainer.h"
#include "synth/config.h"
#include "synth/generator.h"

namespace kgeval {
namespace {

TEST(PersistenceTest, EmptyGraph) {
  const PersistenceDiagram d = ComputeZeroDimPersistence(5, {});
  EXPECT_TRUE(d.points.empty());
}

TEST(PersistenceTest, SingleEdgeHasOneEssentialClass) {
  // Two vertices joined at weight 1: one component born at 1, never dies;
  // closed at max weight 1 -> zero persistence, dropped.
  const PersistenceDiagram d =
      ComputeZeroDimPersistence(2, {{0, 1, 1.0f}});
  EXPECT_TRUE(d.points.empty());
}

TEST(PersistenceTest, ChainMergesProduceFinitePairs) {
  // Path 0-1 (w=1), 2-3 (w=2), 1-2 (w=5): components {0,1} born 1 and
  // {2,3} born 2 merge at 5 -> the younger (birth 2) dies: point (2, 5).
  const PersistenceDiagram d = ComputeZeroDimPersistence(
      4, {{0, 1, 1.0f}, {2, 3, 2.0f}, {1, 2, 5.0f}});
  ASSERT_EQ(d.points.size(), 2u);
  // One finite merge pair (2,5) and one essential class (1, max=5).
  EXPECT_FLOAT_EQ(d.points[0].first, 2.0f);
  EXPECT_FLOAT_EQ(d.points[0].second, 5.0f);
  EXPECT_FLOAT_EQ(d.points[1].first, 1.0f);
  EXPECT_FLOAT_EQ(d.points[1].second, 5.0f);
}

TEST(PersistenceTest, RedundantEdgesCreateNoPoints) {
  // A triangle: vertex 2 is born at w=2 and merges at w=2 (zero
  // persistence, dropped); the third edge closes a cycle (no 0-dim event).
  // Only the essential component (born 1, closed at max weight 3) remains.
  const PersistenceDiagram d = ComputeZeroDimPersistence(
      3, {{0, 1, 1.0f}, {1, 2, 2.0f}, {0, 2, 3.0f}});
  ASSERT_EQ(d.points.size(), 1u);
  EXPECT_FLOAT_EQ(d.points[0].first, 1.0f);
  EXPECT_FLOAT_EQ(d.points[0].second, 3.0f);
}

TEST(PersistenceTest, DisconnectedComponentsAllClosed) {
  const PersistenceDiagram d = ComputeZeroDimPersistence(
      6, {{0, 1, 1.0f}, {2, 3, 2.0f}, {4, 5, 3.0f}});
  // Three essential components born at 1, 2, 3, closed at 3; the born-at-3
  // one has zero persistence and is dropped.
  ASSERT_EQ(d.points.size(), 2u);
}

TEST(PersistenceTest, IsolatedVerticesIgnored) {
  const PersistenceDiagram with_isolated =
      ComputeZeroDimPersistence(10, {{0, 1, 1.0f}, {1, 2, 4.0f}});
  const PersistenceDiagram compact =
      ComputeZeroDimPersistence(3, {{0, 1, 1.0f}, {1, 2, 4.0f}});
  EXPECT_EQ(with_isolated.points.size(), compact.points.size());
}

TEST(SlicedWassersteinTest, IdenticalDiagramsZero) {
  PersistenceDiagram d;
  d.points = {{0.1f, 0.5f}, {0.2f, 0.9f}};
  EXPECT_NEAR(SlicedWassersteinDistance(d, d), 0.0, 1e-9);
}

TEST(SlicedWassersteinTest, Symmetric) {
  PersistenceDiagram a, b;
  a.points = {{0.0f, 1.0f}};
  b.points = {{0.2f, 0.4f}, {0.5f, 0.8f}};
  EXPECT_NEAR(SlicedWassersteinDistance(a, b),
              SlicedWassersteinDistance(b, a), 1e-9);
}

TEST(SlicedWassersteinTest, PositiveForDifferentDiagrams) {
  PersistenceDiagram a, b;
  a.points = {{0.0f, 1.0f}};
  b.points = {{0.0f, 0.1f}};
  EXPECT_GT(SlicedWassersteinDistance(a, b), 0.0);
}

TEST(SlicedWassersteinTest, GrowsWithSeparation) {
  PersistenceDiagram base, near, far;
  base.points = {{0.0f, 0.2f}};
  near.points = {{0.0f, 0.3f}};
  far.points = {{0.0f, 2.0f}};
  EXPECT_LT(SlicedWassersteinDistance(base, near),
            SlicedWassersteinDistance(base, far));
}

TEST(SlicedWassersteinTest, EmptyVsEmptyIsZero) {
  PersistenceDiagram a, b;
  EXPECT_EQ(SlicedWassersteinDistance(a, b), 0.0);
}

class KpFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthConfig config;
    config.num_entities = 500;
    config.num_relations = 12;
    config.num_types = 10;
    config.num_train = 6000;
    config.num_valid = 500;
    config.num_test = 500;
    config.seed = 71;
    dataset_ = new Dataset(GenerateDataset(config).ValueOrDie().dataset);
    ModelOptions options;
    options.dim = 24;
    auto model = CreateModel(ModelType::kDistMult, dataset_->num_entities(),
                             dataset_->num_relations(), options)
                     .ValueOrDie();
    TrainerOptions trainer_options;
    trainer_options.epochs = 6;
    Trainer trainer(dataset_, trainer_options);
    ASSERT_TRUE(trainer.Train(model.get()).ok());
    model_ = model.release();
  }
  static void TearDownTestSuite() {
    delete model_;
    delete dataset_;
  }
  /// One seeded Probabilistic draw of every test slot's pool (KP-P).
  static SampledCandidates ProbabilisticPools() {
    FrameworkOptions fw_options;
    fw_options.strategy = SamplingStrategy::kProbabilistic;
    fw_options.sample_fraction = 0.2;
    auto framework =
        EvaluationFramework::Build(dataset_, fw_options).ValueOrDie();
    Rng rng(5);
    return DrawCandidates(SamplingStrategy::kProbabilistic, &framework->sets(),
                          dataset_->num_entities(), framework->SampleSize(),
                          NeededSlots(*dataset_, Split::kTest),
                          2 * dataset_->num_relations(), &rng);
  }
  static Dataset* dataset_;
  static KgeModel* model_;
};

Dataset* KpFixture::dataset_ = nullptr;
KgeModel* KpFixture::model_ = nullptr;

TEST_F(KpFixture, ScoreIsFiniteAndTimed) {
  KpOptions options;
  options.num_samples = 300;
  const KpResult result =
      ComputeKp(*model_, *dataset_, Split::kTest, options);
  EXPECT_TRUE(std::isfinite(result.score));
  EXPECT_GE(result.score, 0.0);
  EXPECT_GT(result.positive_edges, 0);
  EXPECT_EQ(result.positive_edges, result.negative_edges);
  EXPECT_GE(result.seconds, 0.0);
}

TEST_F(KpFixture, DeterministicGivenSeed) {
  KpOptions options;
  options.num_samples = 200;
  options.seed = 9;
  const KpResult a = ComputeKp(*model_, *dataset_, Split::kTest, options);
  const KpResult b = ComputeKp(*model_, *dataset_, Split::kTest, options);
  EXPECT_DOUBLE_EQ(a.score, b.score);
}

TEST_F(KpFixture, GuidedPoolsChangeTheScore) {
  KpOptions options;
  options.num_samples = 300;
  const KpResult uniform =
      ComputeKp(*model_, *dataset_, Split::kTest, options);

  const SampledCandidates pools = ProbabilisticPools();
  const KpResult guided =
      ComputeKp(*model_, *dataset_, Split::kTest, options, &pools);
  EXPECT_TRUE(std::isfinite(guided.score));
  // Harder negatives make the negative graph closer to the positive one.
  EXPECT_NE(guided.score, uniform.score);
}

TEST_F(KpFixture, TrainedModelSeparatesMoreThanRandomModel) {
  ModelOptions options;
  options.dim = 24;
  options.seed = 1234;
  auto untrained =
      CreateModel(ModelType::kDistMult, dataset_->num_entities(),
                  dataset_->num_relations(), options)
          .ValueOrDie();
  KpOptions kp_options;
  kp_options.num_samples = 500;
  const double trained_score =
      ComputeKp(*model_, *dataset_, Split::kTest, kp_options).score;
  const double untrained_score =
      ComputeKp(*untrained, *dataset_, Split::kTest, kp_options).score;
  // A trained model assigns systematically different weights to true vs
  // corrupted edges, so its KP+/KP- diagrams are farther apart.
  EXPECT_GT(trained_score, untrained_score);
}

/// ComputeKp's exact score for an untrained model of every type (dim 24,
/// seed 7), under KP-R (uniform corruptions) and KP-P (one seeded
/// Probabilistic draw). KP draws its triples and corruptions from its own
/// seeded RNG and weighs each edge by one model score, so a change to how
/// KP scores its triples must keep every bit of these.
struct KpGolden {
  double uniform;
  double guided;
};
constexpr KpGolden kKpGolden[] = {
    {0x1.15c7fc84d4dfep-3, 0x1.a8fe940438c16p-4},  // TransE
    {0x1.0e6f050fa6d67p-1, 0x1.4b4aec687e832p-2},  // DistMult
    {0x1.4d8250e96bbb6p-2, 0x1.33fca3ea4857ep-2},  // ComplEx
    {0x1.0e5b617a227acp+1, 0x1.21fd13c9bc94ep+0},  // RESCAL
    {0x1.4a0760cee6dd9p-2, 0x1.5e8a669eefd31p-2},  // RotatE
    {0x1.07ad47721b33dp+0, 0x1.08951dafc4157p+0},  // ConvE
};
static_assert(std::size(kKpGolden) == std::size(kAllModelTypes),
              "one golden KP pair per model type");

TEST_F(KpFixture, GoldenScoresForEveryModel) {
  const SampledCandidates pools = ProbabilisticPools();
  KpOptions kp_options;
  kp_options.num_samples = 300;
  ModelOptions options;
  options.dim = 24;
  for (size_t i = 0; i < std::size(kAllModelTypes); ++i) {
    const ModelType type = kAllModelTypes[i];
    auto model = CreateModel(type, dataset_->num_entities(),
                             dataset_->num_relations(), options)
                     .ValueOrDie();
    const double uniform =
        ComputeKp(*model, *dataset_, Split::kTest, kp_options).score;
    const double guided =
        ComputeKp(*model, *dataset_, Split::kTest, kp_options, &pools).score;
    EXPECT_EQ(uniform, kKpGolden[i].uniform)
        << ModelTypeName(type) << " KP-R " << std::hexfloat << uniform;
    EXPECT_EQ(guided, kKpGolden[i].guided)
        << ModelTypeName(type) << " KP-P " << std::hexfloat << guided;
  }
}

}  // namespace
}  // namespace kgeval

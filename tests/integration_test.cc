// End-to-end pipeline tests: generate -> fit recommender -> train model ->
// estimate vs exact ranking, across presets and the full recommender x
// strategy matrix. These are the tests that pin the paper's headline
// findings as invariants of the codebase.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/framework.h"
#include "eval/full_evaluator.h"
#include "models/trainer.h"
#include "stats/correlation.h"
#include "synth/config.h"
#include "synth/generator.h"

namespace kgeval {
namespace {

struct Pipeline {
  SynthOutput synth;
  std::unique_ptr<FilterIndex> filter;
  std::unique_ptr<KgeModel> model;
  FullEvalResult full;
};

/// One trained pipeline shared by all tests in this file (training is the
/// expensive part).
Pipeline* g_pipeline = nullptr;

class PipelineEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    SynthConfig config;
    config.num_entities = 800;
    config.num_relations = 20;
    config.num_types = 16;
    config.num_train = 12000;
    config.num_valid = 800;
    config.num_test = 800;
    config.seed = 2024;
    auto* pipeline = new Pipeline{GenerateDataset(config).ValueOrDie(),
                                  nullptr, nullptr, FullEvalResult{}};
    pipeline->filter = std::make_unique<FilterIndex>(pipeline->synth.dataset);
    ModelOptions model_options;
    model_options.dim = 32;
    model_options.adam.learning_rate = 3e-3f;
    pipeline->model =
        CreateModel(ModelType::kComplEx, config.num_entities,
                    config.num_relations, model_options)
            .ValueOrDie();
    TrainerOptions trainer_options;
    trainer_options.epochs = 10;
    trainer_options.negatives_per_positive = 8;
    Trainer trainer(&pipeline->synth.dataset, trainer_options);
    ASSERT_TRUE(trainer.Train(pipeline->model.get()).ok());
    pipeline->full =
        EvaluateFullRanking(*pipeline->model, pipeline->synth.dataset,
                            *pipeline->filter, Split::kTest);
    g_pipeline = pipeline;
  }
  void TearDown() override {
    delete g_pipeline;
    g_pipeline = nullptr;
  }
};

const auto* const g_env =
    ::testing::AddGlobalTestEnvironment(new PipelineEnvironment());

TEST(PipelineTest, ModelLearnedSomething) {
  // A trained model must far exceed the random-guess MRR (~2 * H(n)/n).
  EXPECT_GT(g_pipeline->full.metrics.mrr, 0.05);
  EXPECT_GT(g_pipeline->full.metrics.hits10, 0.1);
}

struct MatrixCase {
  RecommenderType recommender;
  SamplingStrategy strategy;
};

class EstimatorMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(EstimatorMatrixTest, EstimateIsFiniteOptimisticAndBounded) {
  const MatrixCase& c = GetParam();
  FrameworkOptions options;
  options.recommender = c.recommender;
  options.strategy = c.strategy;
  options.sample_fraction = 0.15;
  options.seed = 5;
  auto framework =
      EvaluationFramework::Build(&g_pipeline->synth.dataset, options)
          .ValueOrDie();
  const EstimateResult estimate = framework->Estimate(
      *g_pipeline->model, *g_pipeline->filter, Split::kTest);
  EXPECT_TRUE(std::isfinite(estimate.metrics.mrr));
  EXPECT_GE(estimate.metrics.mrr, 0.0);
  EXPECT_LE(estimate.metrics.mrr, 1.0);
  // Subsampling can only remove competitors: per-query estimated ranks are
  // never worse than the full ranks, hence the estimate is optimistic.
  EXPECT_GE(estimate.metrics.mrr, g_pipeline->full.metrics.mrr - 1e-9);
  ASSERT_EQ(estimate.ranks.size(), g_pipeline->full.ranks.size());
  for (size_t i = 0; i < estimate.ranks.size(); ++i) {
    EXPECT_LE(estimate.ranks[i], g_pipeline->full.ranks[i] + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RecommenderByStrategy, EstimatorMatrixTest,
    ::testing::Values(
        MatrixCase{RecommenderType::kPt, SamplingStrategy::kStatic},
        MatrixCase{RecommenderType::kPt, SamplingStrategy::kProbabilistic},
        MatrixCase{RecommenderType::kDbh, SamplingStrategy::kStatic},
        MatrixCase{RecommenderType::kDbh, SamplingStrategy::kProbabilistic},
        MatrixCase{RecommenderType::kDbhT, SamplingStrategy::kStatic},
        MatrixCase{RecommenderType::kDbhT,
                   SamplingStrategy::kProbabilistic},
        MatrixCase{RecommenderType::kOntoSim, SamplingStrategy::kStatic},
        MatrixCase{RecommenderType::kOntoSim,
                   SamplingStrategy::kProbabilistic},
        MatrixCase{RecommenderType::kLwd, SamplingStrategy::kStatic},
        MatrixCase{RecommenderType::kLwd, SamplingStrategy::kProbabilistic},
        MatrixCase{RecommenderType::kLwdT, SamplingStrategy::kStatic},
        MatrixCase{RecommenderType::kLwdT,
                   SamplingStrategy::kProbabilistic},
        MatrixCase{RecommenderType::kPie, SamplingStrategy::kStatic},
        MatrixCase{RecommenderType::kPie,
                   SamplingStrategy::kProbabilistic}),
    [](const auto& info) {
      std::string name = RecommenderTypeName(info.param.recommender);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_" + SamplingStrategyName(info.param.strategy);
    });

TEST(PipelineTest, GuidedBeatsRandomAtEveryFraction) {
  for (double fraction : {0.05, 0.1, 0.2}) {
    std::map<SamplingStrategy, double> error;
    for (SamplingStrategy strategy :
         {SamplingStrategy::kRandom, SamplingStrategy::kStatic,
          SamplingStrategy::kProbabilistic}) {
      FrameworkOptions options;
      options.strategy = strategy;
      options.recommender = RecommenderType::kLwd;
      options.sample_fraction = fraction;
      options.seed = 11;
      auto framework =
          EvaluationFramework::Build(&g_pipeline->synth.dataset, options)
              .ValueOrDie();
      const double estimate =
          framework
              ->Estimate(*g_pipeline->model, *g_pipeline->filter,
                         Split::kTest)
              .metrics.mrr;
      error[strategy] = std::abs(estimate - g_pipeline->full.metrics.mrr);
    }
    EXPECT_GT(error[SamplingStrategy::kRandom],
              error[SamplingStrategy::kStatic])
        << "fraction " << fraction;
    EXPECT_GT(error[SamplingStrategy::kRandom],
              error[SamplingStrategy::kProbabilistic])
        << "fraction " << fraction;
  }
}

TEST(PipelineTest, HitsAtKOrderingPreserved) {
  // Hits@1 <= Hits@3 <= Hits@10 for truth and every estimator.
  auto check = [](const RankingMetrics& m) {
    EXPECT_LE(m.hits1, m.hits3 + 1e-12);
    EXPECT_LE(m.hits3, m.hits10 + 1e-12);
  };
  check(g_pipeline->full.metrics);
  for (SamplingStrategy strategy :
       {SamplingStrategy::kRandom, SamplingStrategy::kStatic,
        SamplingStrategy::kProbabilistic}) {
    FrameworkOptions options;
    options.strategy = strategy;
    options.sample_fraction = 0.1;
    auto framework =
        EvaluationFramework::Build(&g_pipeline->synth.dataset, options)
            .ValueOrDie();
    check(framework
              ->Estimate(*g_pipeline->model, *g_pipeline->filter,
                         Split::kTest)
              .metrics);
  }
}

TEST(PipelineTest, EstimateTracksTrainingProgress) {
  // Fresh model: estimates must correlate with the truth across epochs
  // (the Table 7 behaviour, in miniature).
  const Dataset& dataset = g_pipeline->synth.dataset;
  ModelOptions model_options;
  model_options.dim = 16;
  model_options.adam.learning_rate = 3e-3f;
  auto model = CreateModel(ModelType::kDistMult, dataset.num_entities(),
                           dataset.num_relations(), model_options)
                   .ValueOrDie();
  FrameworkOptions fw_options;
  fw_options.strategy = SamplingStrategy::kStatic;
  fw_options.sample_fraction = 0.1;
  auto framework =
      EvaluationFramework::Build(&dataset, fw_options).ValueOrDie();
  TrainerOptions trainer_options;
  trainer_options.epochs = 6;
  Trainer trainer(&dataset, trainer_options);
  std::vector<double> truth, estimate;
  ASSERT_TRUE(trainer
                  .Train(model.get(),
                         [&](int32_t, const KgeModel& m) {
                           truth.push_back(
                               EvaluateFullRanking(m, dataset,
                                                   *g_pipeline->filter,
                                                   Split::kValid)
                                   .metrics.mrr);
                           estimate.push_back(
                               framework
                                   ->Estimate(m, *g_pipeline->filter,
                                              Split::kValid)
                                   .metrics.mrr);
                         })
                  .ok());
  EXPECT_GT(PearsonCorrelation(estimate, truth), 0.8);
}

TEST(PipelineTest, PaperScalePresetsAreWellFormedConfigs) {
  // Generating at paper scale is too slow for a unit test, but the configs
  // must at least be internally consistent.
  for (const std::string& name : PresetNames()) {
    const SynthConfig config =
        GetPreset(name, PresetScale::kPaper).ValueOrDie();
    EXPECT_TRUE(config.Validate().ok()) << name;
    EXPECT_GT(config.num_train, config.num_valid) << name;
  }
}

}  // namespace
}  // namespace kgeval

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/eval_session.h"
#include "core/sampled_evaluator.h"
#include "models/checkpoint.h"
#include "models/kge_model.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "tests/gate_data.h"
#include "tests/temp_dir.h"
#include "util/logging.h"
#include "util/thread_pool.h"

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

/// Deterministically-seeded (untrained) models: random init is all the
/// rank-determinism tests need, and it keeps the fixture fast.
std::unique_ptr<KgeModel> SeededModel(const Dataset& d, uint64_t seed) {
  ModelOptions options;
  options.dim = 16;
  options.seed = seed;
  return CreateModel(ModelType::kComplEx, d.num_entities(),
                     d.num_relations(), options)
      .ValueOrDie();
}

FrameworkOptions SessionOptions() {
  FrameworkOptions options;
  options.strategy = SamplingStrategy::kProbabilistic;
  options.recommender = RecommenderType::kLwd;
  options.sample_fraction = 0.1;
  return options;
}

class EvalSessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(SynthDataset());
    filter_ = new FilterIndex(*dataset_);
  }
  static void TearDownTestSuite() {
    delete filter_;
    delete dataset_;
    filter_ = nullptr;
    dataset_ = nullptr;
  }
  static Dataset* dataset_;
  static FilterIndex* filter_;
};

Dataset* EvalSessionTest::dataset_ = nullptr;
FilterIndex* EvalSessionTest::filter_ = nullptr;

TEST_F(EvalSessionTest, PinnedPoolsMakeRepeatedEstimatesIdentical) {
  auto session =
      EvalSession::Create(dataset_, filter_, SessionOptions(), Split::kTest)
          .ValueOrDie();
  auto model = SeededModel(*dataset_, 7);
  const SampledEvalResult first = session->Estimate(*model);
  const SampledEvalResult second = session->Estimate(*model);
  // Same pinned pools -> bit-identical everything.
  EXPECT_EQ(first.ranks, second.ranks);
  EXPECT_EQ(first.metrics.mrr, second.metrics.mrr);
  EXPECT_EQ(first.scored_candidates, second.scored_candidates);

  // The raw framework redraws per call: on 600 entities with n_s = 60 per
  // slot, two draws collide with probability ~0 — the ranks must move.
  auto framework =
      EvaluationFramework::Build(dataset_, SessionOptions()).ValueOrDie();
  const SampledEvalResult draw1 =
      framework->Estimate(*model, *filter_, Split::kTest);
  const SampledEvalResult draw2 =
      framework->Estimate(*model, *filter_, Split::kTest);
  EXPECT_NE(draw1.ranks, draw2.ranks);
}

TEST_F(EvalSessionTest, EstimateMatchesDirectEvaluateSampledOnPinnedPools) {
  auto session =
      EvalSession::Create(dataset_, filter_, SessionOptions(), Split::kTest)
          .ValueOrDie();
  auto model = SeededModel(*dataset_, 11);
  const SampledEvalResult via_session = session->Estimate(*model);
  const SampledEvalResult direct = EvaluateSampled(
      *model, *dataset_, *filter_, Split::kTest, session->pools());
  EXPECT_EQ(via_session.ranks, direct.ranks);
  EXPECT_EQ(via_session.metrics.mrr, direct.metrics.mrr);
}

TEST_F(EvalSessionTest, EstimateManyMatchesSequentialRankForRank) {
  // The acceptance bar of the concurrent scheduler: N models evaluated
  // concurrently on the pinned draw must be bit-identical to N sequential
  // Estimate() calls on that draw — whatever interleaving the shared
  // workers produced.
  auto session =
      EvalSession::Create(dataset_, filter_, SessionOptions(), Split::kTest)
          .ValueOrDie();
  std::vector<std::unique_ptr<KgeModel>> owned;
  std::vector<const KgeModel*> models;
  for (uint64_t seed : {3u, 17u, 29u, 71u}) {
    owned.push_back(SeededModel(*dataset_, seed));
    models.push_back(owned.back().get());
  }
  const std::vector<SampledEvalResult> many = session->EstimateMany(models);
  ASSERT_EQ(many.size(), models.size());
  for (size_t m = 0; m < models.size(); ++m) {
    const SampledEvalResult sequential = session->Estimate(*models[m]);
    EXPECT_EQ(many[m].ranks, sequential.ranks) << "model " << m;
    EXPECT_EQ(many[m].metrics.mrr, sequential.metrics.mrr) << "model " << m;
    EXPECT_EQ(many[m].ci.mrr, sequential.ci.mrr) << "model " << m;
    EXPECT_EQ(many[m].scored_candidates, sequential.scored_candidates)
        << "model " << m;
  }
  // Distinct models must actually rank differently (the concurrency can't
  // have smeared one model's scores into another's buffers).
  EXPECT_NE(many[0].ranks, many[1].ranks);
}

TEST_F(EvalSessionTest, EstimateManyHonorsMaxTriples) {
  auto session =
      EvalSession::Create(dataset_, filter_, SessionOptions(), Split::kTest)
          .ValueOrDie();
  auto model = SeededModel(*dataset_, 5);
  const std::vector<SampledEvalResult> many =
      session->EstimateMany({model.get()}, /*max_triples=*/100);
  ASSERT_EQ(many.size(), 1u);
  EXPECT_EQ(many[0].ranks.size(), 200u);  // 2 queries per triple.
  const SampledEvalResult sequential =
      session->Estimate(*model, /*max_triples=*/100);
  EXPECT_EQ(many[0].ranks, sequential.ranks);
}

TEST_F(EvalSessionTest, EstimateAdaptiveManyMatchesSequential) {
  auto session =
      EvalSession::Create(dataset_, filter_, SessionOptions(), Split::kTest)
          .ValueOrDie();
  std::vector<std::unique_ptr<KgeModel>> owned;
  std::vector<const KgeModel*> models;
  for (uint64_t seed : {13u, 41u, 97u}) {
    owned.push_back(SeededModel(*dataset_, seed));
    models.push_back(owned.back().get());
  }
  AdaptiveEvalOptions adaptive;
  adaptive.target_half_width = 0.05;
  adaptive.min_queries = 256;
  adaptive.batch_queries = 256;
  const std::vector<AdaptiveEvalResult> many =
      session->EstimateAdaptiveMany(models, adaptive);
  ASSERT_EQ(many.size(), models.size());
  for (size_t m = 0; m < models.size(); ++m) {
    const AdaptiveEvalResult sequential =
        session->EstimateAdaptive(*models[m], adaptive);
    EXPECT_EQ(many[m].ranks, sequential.ranks) << "model " << m;
    EXPECT_EQ(many[m].evaluated_queries, sequential.evaluated_queries)
        << "model " << m;
    EXPECT_EQ(many[m].scored_candidates, sequential.scored_candidates)
        << "model " << m;
    EXPECT_EQ(many[m].metrics.mrr, sequential.metrics.mrr) << "model " << m;
    EXPECT_EQ(many[m].ci.mrr, sequential.ci.mrr) << "model " << m;
    EXPECT_EQ(many[m].rounds, sequential.rounds) << "model " << m;
  }
  // And the concurrent pass itself is deterministic end to end.
  const std::vector<AdaptiveEvalResult> rerun =
      session->EstimateAdaptiveMany(models, adaptive);
  for (size_t m = 0; m < models.size(); ++m) {
    EXPECT_EQ(many[m].ranks, rerun[m].ranks) << "model " << m;
  }
}

TEST_F(EvalSessionTest, RedrawPoolsReplacesThePinnedDraw) {
  auto session =
      EvalSession::Create(dataset_, filter_, SessionOptions(), Split::kTest)
          .ValueOrDie();
  const SampledCandidates before = session->pools();
  session->RedrawPools();
  EXPECT_NE(before.pools, session->pools().pools);
  // The new draw is pinned just like the first one was.
  auto model = SeededModel(*dataset_, 23);
  const SampledEvalResult first = session->Estimate(*model);
  const SampledEvalResult second = session->Estimate(*model);
  EXPECT_EQ(first.ranks, second.ranks);
}

/// Saves `count` distinctly-seeded models as checkpoint files and returns
/// their paths — a stand-in for a training run's epoch snapshots.
std::vector<std::string> SaveCheckpoints(const Dataset& dataset,
                                         const std::string& dir,
                                         size_t count) {
  std::vector<std::string> paths;
  for (size_t i = 0; i < count; ++i) {
    auto model = SeededModel(dataset, 1000 + 17 * i);
    const std::string path = dir + "/ckpt_" + std::to_string(i) + ".ckpt";
    KGEVAL_CHECK(SaveModel(model.get(), path).ok());
    paths.push_back(path);
  }
  return paths;
}

TEST_F(EvalSessionTest, EstimateCheckpointsMatchesSequentialLoadEstimate) {
  // The acceptance bar of the sweep: N checkpoint files swept concurrently
  // on the pinned draw must be rank-for-rank identical to N sequential
  // LoadModel + Estimate calls on that draw.
  auto session =
      EvalSession::Create(dataset_, filter_, SessionOptions(), Split::kTest)
          .ValueOrDie();
  TempDir dir;
  const std::vector<std::string> paths =
      SaveCheckpoints(*dataset_, dir.path(), 6);

  const std::vector<CheckpointEstimate> sweep =
      session->EstimateCheckpoints(paths);
  ASSERT_EQ(sweep.size(), paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    ASSERT_TRUE(sweep[i].status.ok()) << sweep[i].status.ToString();
    auto loaded = LoadModel(paths[i]);
    ASSERT_TRUE(loaded.ok());
    const SampledEvalResult sequential =
        session->Estimate(*loaded.ValueOrDie());
    EXPECT_EQ(sweep[i].result.ranks, sequential.ranks) << "checkpoint " << i;
    EXPECT_EQ(sweep[i].result.metrics.mrr, sequential.metrics.mrr)
        << "checkpoint " << i;
    EXPECT_EQ(sweep[i].result.ci.mrr, sequential.ci.mrr) << "checkpoint " << i;
    EXPECT_EQ(sweep[i].result.scored_candidates,
              sequential.scored_candidates)
        << "checkpoint " << i;
  }
  // Distinct checkpoints must rank differently (no cross-job smearing).
  EXPECT_NE(sweep[0].result.ranks, sweep[1].result.ranks);
}

TEST_F(EvalSessionTest, EstimateCheckpointsBoundsResidentModels) {
  auto session =
      EvalSession::Create(dataset_, filter_, SessionOptions(), Split::kTest)
          .ValueOrDie();
  TempDir dir;
  // Strictly more checkpoints than workers, so the bound (and not sweep
  // size) is what caps residency — sized off the live pool because the
  // default width is the machine's core count.
  const size_t count = GlobalThreadPool()->num_threads() + 4;
  const std::vector<std::string> paths =
      SaveCheckpoints(*dataset_, dir.path(), count);
  CheckpointSweepStats stats;
  const std::vector<CheckpointEstimate> sweep =
      session->EstimateCheckpoints(paths, /*max_triples=*/100, nullptr,
                                   &stats);
  for (const CheckpointEstimate& outcome : sweep) {
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  }
  EXPECT_GE(stats.max_resident_models, 1u);
  EXPECT_LE(stats.max_resident_models, GlobalThreadPool()->num_threads());
  EXPECT_LT(stats.max_resident_models, paths.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.wall_seconds, 0.0);
}

TEST_F(EvalSessionTest, EstimateCheckpointsSurfacesLoadFailuresAsStatus) {
  auto session =
      EvalSession::Create(dataset_, filter_, SessionOptions(), Split::kTest)
          .ValueOrDie();
  TempDir dir;
  std::vector<std::string> paths = SaveCheckpoints(*dataset_, dir.path(), 2);

  const std::string garbage = dir.path() + "/garbage.ckpt";
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "not a checkpoint";
  }
  const std::string truncated = dir.path() + "/truncated.ckpt";
  {
    std::ifstream in(paths[0], std::ios::binary);
    std::string bytes(64, '\0');
    in.read(bytes.data(), 64);
    std::ofstream out(truncated, std::ios::binary);
    out.write(bytes.data(), 64);
  }
  // Interleave good and bad paths: failures must not disturb neighbors.
  paths.insert(paths.begin() + 1, garbage);
  paths.push_back(dir.path() + "/missing.ckpt");
  paths.push_back(truncated);

  CheckpointSweepStats stats;
  const std::vector<CheckpointEstimate> sweep =
      session->EstimateCheckpoints(paths, /*max_triples=*/50, nullptr,
                                   &stats);
  ASSERT_EQ(sweep.size(), 5u);
  EXPECT_TRUE(sweep[0].status.ok());
  EXPECT_EQ(sweep[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(sweep[2].status.ok());
  EXPECT_EQ(sweep[3].status.code(), StatusCode::kIoError);
  EXPECT_FALSE(sweep[4].status.ok());
  EXPECT_EQ(stats.failed, 3u);

  // The surviving estimates still match sequential evaluation.
  auto loaded = LoadModel(paths[2]);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(sweep[2].result.ranks,
            session->Estimate(*loaded.ValueOrDie(), 50).ranks);
}

TEST_F(EvalSessionTest, EstimateCheckpointsStreamsProgress) {
  auto session =
      EvalSession::Create(dataset_, filter_, SessionOptions(), Split::kTest)
          .ValueOrDie();
  TempDir dir;
  const std::vector<std::string> paths =
      SaveCheckpoints(*dataset_, dir.path(), 5);
  std::vector<std::pair<size_t, double>> streamed;
  const std::vector<CheckpointEstimate> sweep = session->EstimateCheckpoints(
      paths, /*max_triples=*/100,
      [&](size_t index, const CheckpointEstimate& outcome) {
        // The callback contract serializes invocations, so plain vector
        // writes are safe here.
        streamed.emplace_back(index, outcome.result.metrics.mrr);
      });
  ASSERT_EQ(streamed.size(), paths.size());
  std::vector<bool> seen(paths.size(), false);
  for (const auto& [index, mrr] : streamed) {
    ASSERT_LT(index, sweep.size());
    EXPECT_FALSE(seen[index]) << "index " << index << " streamed twice";
    seen[index] = true;
    EXPECT_EQ(mrr, sweep[index].result.metrics.mrr);
  }
}

TEST_F(EvalSessionTest, EstimateAdaptiveCheckpointsMatchesSequential) {
  auto session =
      EvalSession::Create(dataset_, filter_, SessionOptions(), Split::kTest)
          .ValueOrDie();
  TempDir dir;
  const std::vector<std::string> paths =
      SaveCheckpoints(*dataset_, dir.path(), 3);
  AdaptiveEvalOptions adaptive;
  adaptive.target_half_width = 0.05;
  adaptive.min_queries = 256;
  adaptive.batch_queries = 256;
  const std::vector<CheckpointAdaptiveEstimate> sweep =
      session->EstimateAdaptiveCheckpoints(paths, adaptive);
  ASSERT_EQ(sweep.size(), paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    ASSERT_TRUE(sweep[i].status.ok()) << sweep[i].status.ToString();
    auto loaded = LoadModel(paths[i]);
    ASSERT_TRUE(loaded.ok());
    const AdaptiveEvalResult sequential =
        session->EstimateAdaptive(*loaded.ValueOrDie(), adaptive);
    EXPECT_EQ(sweep[i].result.ranks, sequential.ranks) << "checkpoint " << i;
    EXPECT_EQ(sweep[i].result.evaluated_queries,
              sequential.evaluated_queries)
        << "checkpoint " << i;
    EXPECT_EQ(sweep[i].result.metrics.mrr, sequential.metrics.mrr)
        << "checkpoint " << i;
  }
}

TEST_F(EvalSessionTest, FrameworkCheckpointOnPoolsMatchesSessionEstimate) {
  // The one-shot framework fusions must agree with loading and estimating
  // as separate steps on the same pinned pools.
  auto session =
      EvalSession::Create(dataset_, filter_, SessionOptions(), Split::kTest)
          .ValueOrDie();
  TempDir dir;
  const std::vector<std::string> paths =
      SaveCheckpoints(*dataset_, dir.path(), 1);
  auto loaded = LoadModel(paths[0]);
  ASSERT_TRUE(loaded.ok());

  auto fused = session->framework().EstimateCheckpointOnPools(
      paths[0], *filter_, Split::kTest, session->pools());
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  const SampledEvalResult direct = session->Estimate(*loaded.ValueOrDie());
  EXPECT_EQ(fused.ValueOrDie().ranks, direct.ranks);
  EXPECT_EQ(fused.ValueOrDie().metrics.mrr, direct.metrics.mrr);

  AdaptiveEvalOptions adaptive;
  adaptive.target_half_width = 0.05;
  adaptive.min_queries = 256;
  adaptive.batch_queries = 256;
  auto fused_adaptive =
      session->framework().EstimateAdaptiveCheckpointOnPools(
          paths[0], *filter_, Split::kTest, session->pools(), adaptive);
  ASSERT_TRUE(fused_adaptive.ok()) << fused_adaptive.status().ToString();
  const AdaptiveEvalResult direct_adaptive =
      session->EstimateAdaptive(*loaded.ValueOrDie(), adaptive);
  EXPECT_EQ(fused_adaptive.ValueOrDie().ranks, direct_adaptive.ranks);

  // Both fusions surface load failures as the Status.
  EXPECT_EQ(session->framework()
                .EstimateCheckpointOnPools(dir.path() + "/missing.ckpt",
                                           *filter_, Split::kTest,
                                           session->pools())
                .status()
                .code(),
            StatusCode::kIoError);
}

TEST_F(EvalSessionTest, EstimateCheckpointsRejectsDatasetMismatch) {
  // A checkpoint for a different graph shape must fail cleanly: its entity
  // ids would index past this dataset's pools.
  auto session =
      EvalSession::Create(dataset_, filter_, SessionOptions(), Split::kTest)
          .ValueOrDie();
  ModelOptions options;
  options.dim = 16;
  auto alien = CreateModel(ModelType::kComplEx, 50, 4, options).ValueOrDie();
  TempDir dir;
  const std::string path = dir.path() + "/alien.ckpt";
  ASSERT_TRUE(SaveModel(alien.get(), path).ok());
  const std::vector<CheckpointEstimate> sweep =
      session->EstimateCheckpoints({path});
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_EQ(sweep[0].status.code(), StatusCode::kInvalidArgument);
}

TEST_F(EvalSessionTest, CreateRejectsNullInputs) {
  EXPECT_FALSE(
      EvalSession::Create(nullptr, filter_, SessionOptions()).ok());
  const auto no_filter =
      EvalSession::Create(dataset_, /*filter=*/nullptr, SessionOptions());
  ASSERT_FALSE(no_filter.ok());
  EXPECT_EQ(no_filter.status().message(), "filter is null");
}

// --- The session gates on trained codex-s models ---------------------------

TEST(EvalSessionGateTest, EstimateManyMatchesSequentialOnTrainedModels) {
  // Four independently seeded one-epoch checkpoints of one architecture,
  // estimated concurrently and one at a time on the session's pinned pools.
  const Dataset dataset = CodexS();
  const FilterIndex filter(dataset);
  std::vector<std::unique_ptr<KgeModel>> owned;
  std::vector<const KgeModel*> models;
  for (uint64_t m = 0; m < 4; ++m) {
    GateTraining recipe;
    recipe.seed = 11 + 101 * m;
    owned.push_back(TrainGateModel(dataset, recipe));
    models.push_back(owned.back().get());
  }
  auto session =
      EvalSession::Create(&dataset, &filter, SessionOptions(), Split::kTest)
          .ValueOrDie();
  const std::vector<SampledEvalResult> many = session->EstimateMany(models);
  ASSERT_EQ(many.size(), models.size());
  for (size_t m = 0; m < models.size(); ++m) {
    const SampledEvalResult sequential = session->Estimate(*models[m]);
    EXPECT_EQ(many[m].ranks, sequential.ranks) << "model " << m;
    EXPECT_EQ(many[m].metrics.mrr, sequential.metrics.mrr) << "model " << m;
    EXPECT_EQ(many[m].scored_candidates, sequential.scored_candidates)
        << "model " << m;
  }
}

TEST(EvalSessionGateTest, CheckpointSweepMatchesSequentialWithinResidentBound) {
  // Three epoch snapshots of one ComplEx training run, swept from disk on
  // the validation split and compared with sequential load + Estimate.
  const Dataset dataset = CodexS();
  const FilterIndex filter(dataset);
  TempDir dir;
  constexpr int32_t kEpochs = 3;
  GateTraining recipe;
  recipe.epochs = kEpochs;
  recipe.checkpoint_dir = dir.path();
  TrainGateModel(dataset, recipe);
  std::vector<std::string> paths;
  for (int32_t epoch = 0; epoch < kEpochs; ++epoch) {
    paths.push_back(CheckpointPath(dir.path(), epoch, kEpochs));
  }
  auto session =
      EvalSession::Create(&dataset, &filter, SessionOptions(), Split::kValid)
          .ValueOrDie();
  std::vector<SampledEvalResult> sequential;
  for (const std::string& path : paths) {
    auto loaded = session->framework().LoadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    sequential.push_back(session->Estimate(*loaded.ValueOrDie()));
  }
  const size_t resident_bound =
      std::max<size_t>(1, GlobalThreadPool()->num_threads());
  // Two sweeps, as the residency high-water mark depends on scheduling.
  for (int rep = 0; rep < 2; ++rep) {
    CheckpointSweepStats stats;
    const std::vector<CheckpointEstimate> sweep = session->EstimateCheckpoints(
        paths, /*max_triples=*/0, nullptr, &stats);
    ASSERT_EQ(sweep.size(), paths.size());
    for (size_t i = 0; i < paths.size(); ++i) {
      ASSERT_TRUE(sweep[i].status.ok()) << sweep[i].status.ToString();
      EXPECT_EQ(sweep[i].result.ranks, sequential[i].ranks) << "epoch " << i;
      EXPECT_EQ(sweep[i].result.metrics.mrr, sequential[i].metrics.mrr)
          << "epoch " << i;
      EXPECT_EQ(sweep[i].result.scored_candidates,
                sequential[i].scored_candidates)
          << "epoch " << i;
    }
    EXPECT_LE(stats.max_resident_models, resident_bound);
  }
}

}  // namespace
}  // namespace kgeval

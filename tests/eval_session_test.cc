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
#include "sched/task_group.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "tests/gate_data.h"
#include "tests/temp_dir.h"
#include "util/cancel.h"
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

/// Estimates every model concurrently on the session's pinned pools, one
/// job per model on the shared workers — how a server shares one session
/// across clients.
std::vector<EstimateResult> EstimateConcurrently(
    const EvalSession& session, const std::vector<const KgeModel*>& models,
    const EstimateRequest& request = {}) {
  std::vector<EstimateResult> results(models.size());
  RunJobsConcurrently(models.size(), [&](size_t i) {
    results[i] = session.Estimate(*models[i], request);
  });
  return results;
}

/// The adaptive request the session tests share. The 1200-query test
/// split fits in one round, so the pass scores all of it; the multi-round
/// concurrent case is adaptive_test's, on a 16 000-query split.
EstimateRequest AdaptiveRequest() {
  EstimateRequest request;
  request.adaptive.emplace();
  request.adaptive->target_half_width = 0.05;
  return request;
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
  const EstimateResult first = session->Estimate(*model);
  const EstimateResult second = session->Estimate(*model);
  // Same pinned pools -> bit-identical everything.
  EXPECT_EQ(first.ranks, second.ranks);
  EXPECT_EQ(first.metrics.mrr, second.metrics.mrr);
  EXPECT_EQ(first.scored_candidates, second.scored_candidates);

  // The raw framework redraws per call: on 600 entities with n_s = 60 per
  // slot, two draws collide with probability ~0 — the ranks must move.
  auto framework =
      EvaluationFramework::Build(dataset_, SessionOptions()).ValueOrDie();
  const EstimateResult draw1 =
      framework->Estimate(*model, *filter_, Split::kTest);
  const EstimateResult draw2 =
      framework->Estimate(*model, *filter_, Split::kTest);
  EXPECT_NE(draw1.ranks, draw2.ranks);
}

TEST_F(EvalSessionTest, EstimateMatchesDirectEvaluateSampledOnPinnedPools) {
  auto session =
      EvalSession::Create(dataset_, filter_, SessionOptions(), Split::kTest)
          .ValueOrDie();
  auto model = SeededModel(*dataset_, 11);
  const EstimateResult via_session = session->Estimate(*model);
  const EstimateResult direct = EvaluateSampled(
      *model, *dataset_, *filter_, Split::kTest, session->pools());
  EXPECT_EQ(via_session.ranks, direct.ranks);
  EXPECT_EQ(via_session.metrics.mrr, direct.metrics.mrr);

  // The former framework signatures forward to the same passes.
  const EvaluationFramework& framework = session->framework();
  EstimateRequest prefix;
  prefix.max_triples = 100;
  EXPECT_EQ(framework
                .EstimateOnPools(*model, *filter_, Split::kTest,
                                 session->pools(), int64_t{100})
                .ranks,
            session->Estimate(*model, prefix).ranks);
  const EstimateRequest adaptive = AdaptiveRequest();
  EXPECT_EQ(framework
                .EstimateAdaptiveOnPools(*model, *filter_, Split::kTest,
                                         session->pools(), *adaptive.adaptive)
                .ranks,
            session->Estimate(*model, adaptive).ranks);
}

TEST_F(EvalSessionTest, ConcurrentEstimatesMatchSequentialRankForRank) {
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
  const std::vector<EstimateResult> many =
      EstimateConcurrently(*session, models);
  ASSERT_EQ(many.size(), models.size());
  for (size_t m = 0; m < models.size(); ++m) {
    const EstimateResult sequential = session->Estimate(*models[m]);
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

TEST_F(EvalSessionTest, ConcurrentEstimatesHonorMaxTriples) {
  auto session =
      EvalSession::Create(dataset_, filter_, SessionOptions(), Split::kTest)
          .ValueOrDie();
  auto model = SeededModel(*dataset_, 5);
  EstimateRequest request;
  request.max_triples = 100;
  const std::vector<EstimateResult> many =
      EstimateConcurrently(*session, {model.get()}, request);
  ASSERT_EQ(many.size(), 1u);
  EXPECT_EQ(many[0].ranks.size(), 200u);  // 2 queries per triple.
  const EstimateResult sequential = session->Estimate(*model, request);
  EXPECT_EQ(many[0].ranks, sequential.ranks);
}

TEST_F(EvalSessionTest, ConcurrentAdaptiveEstimatesMatchSequential) {
  auto session =
      EvalSession::Create(dataset_, filter_, SessionOptions(), Split::kTest)
          .ValueOrDie();
  std::vector<std::unique_ptr<KgeModel>> owned;
  std::vector<const KgeModel*> models;
  for (uint64_t seed : {13u, 41u, 97u}) {
    owned.push_back(SeededModel(*dataset_, seed));
    models.push_back(owned.back().get());
  }
  const EstimateRequest adaptive = AdaptiveRequest();
  const std::vector<EstimateResult> many =
      EstimateConcurrently(*session, models, adaptive);
  ASSERT_EQ(many.size(), models.size());
  for (size_t m = 0; m < models.size(); ++m) {
    const EstimateResult sequential = session->Estimate(*models[m], adaptive);
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
  const std::vector<EstimateResult> rerun =
      EstimateConcurrently(*session, models, adaptive);
  for (size_t m = 0; m < models.size(); ++m) {
    EXPECT_EQ(many[m].ranks, rerun[m].ranks) << "model " << m;
  }
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
    const EstimateResult sequential =
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
  // The former sweep signature forwards to the same sweep.
  const std::vector<CheckpointEstimate> former =
      session->EstimateCheckpoints(paths, int64_t{0}, nullptr, nullptr);
  ASSERT_EQ(former.size(), paths.size());
  EXPECT_EQ(former[1].result.ranks, sweep[1].result.ranks);
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
  EstimateRequest request;
  request.max_triples = 100;
  const std::vector<CheckpointEstimate> sweep =
      session->EstimateCheckpoints(paths, request, nullptr, &stats);
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
  EstimateRequest request;
  request.max_triples = 50;
  const std::vector<CheckpointEstimate> sweep =
      session->EstimateCheckpoints(paths, request, nullptr, &stats);
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
            session->Estimate(*loaded.ValueOrDie(), request).ranks);
}

TEST_F(EvalSessionTest, EstimateCheckpointsStreamsProgress) {
  auto session =
      EvalSession::Create(dataset_, filter_, SessionOptions(), Split::kTest)
          .ValueOrDie();
  TempDir dir;
  const std::vector<std::string> paths =
      SaveCheckpoints(*dataset_, dir.path(), 5);
  std::vector<std::pair<size_t, double>> streamed;
  EstimateRequest request;
  request.max_triples = 100;
  const std::vector<CheckpointEstimate> sweep = session->EstimateCheckpoints(
      paths, request,
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

TEST_F(EvalSessionTest, EstimateCheckpointsCancelledBeforeStartLoadsNothing) {
  // The sweep's cancel contract: with the token fired before the call,
  // every path records kCancelled without a load — a missing file too,
  // which a load would have reported as kIoError — every outcome counts as
  // failed, and every index still streams through `progress`.
  auto session =
      EvalSession::Create(dataset_, filter_, SessionOptions(), Split::kTest)
          .ValueOrDie();
  TempDir dir;
  std::vector<std::string> paths = SaveCheckpoints(*dataset_, dir.path(), 3);
  paths.insert(paths.begin() + 1, dir.path() + "/missing.ckpt");
  CancelToken cancel;
  cancel.Cancel();
  EstimateRequest request;
  request.cancel = &cancel;
  std::vector<bool> streamed(paths.size(), false);
  CheckpointSweepStats stats;
  const std::vector<CheckpointEstimate> sweep = session->EstimateCheckpoints(
      paths, request,
      [&](size_t index, const CheckpointEstimate& outcome) {
        ASSERT_LT(index, streamed.size());
        EXPECT_FALSE(streamed[index]) << "index " << index << " twice";
        streamed[index] = true;
        EXPECT_EQ(outcome.status.code(), StatusCode::kCancelled)
            << "index " << index;
      },
      &stats);
  ASSERT_EQ(sweep.size(), paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(sweep[i].status.code(), StatusCode::kCancelled)
        << "path " << i << ": " << sweep[i].status.ToString();
    EXPECT_TRUE(streamed[i]) << "index " << i << " never streamed";
  }
  EXPECT_EQ(stats.failed, paths.size());
}

TEST_F(EvalSessionTest, AdaptiveCheckpointSweepMatchesSequential) {
  auto session =
      EvalSession::Create(dataset_, filter_, SessionOptions(), Split::kTest)
          .ValueOrDie();
  TempDir dir;
  const std::vector<std::string> paths =
      SaveCheckpoints(*dataset_, dir.path(), 3);
  const EstimateRequest adaptive = AdaptiveRequest();
  const std::vector<CheckpointEstimate> sweep =
      session->EstimateCheckpoints(paths, adaptive);
  ASSERT_EQ(sweep.size(), paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    ASSERT_TRUE(sweep[i].status.ok()) << sweep[i].status.ToString();
    auto loaded = LoadModel(paths[i]);
    ASSERT_TRUE(loaded.ok());
    const EstimateResult sequential =
        session->Estimate(*loaded.ValueOrDie(), adaptive);
    EXPECT_EQ(sweep[i].result.ranks, sequential.ranks) << "checkpoint " << i;
    EXPECT_EQ(sweep[i].result.evaluated_queries,
              sequential.evaluated_queries)
        << "checkpoint " << i;
    EXPECT_EQ(sweep[i].result.metrics.mrr, sequential.metrics.mrr)
        << "checkpoint " << i;
    EXPECT_EQ(sweep[i].result.rounds, sequential.rounds) << "checkpoint " << i;
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
  const EstimateResult direct = session->Estimate(*loaded.ValueOrDie());
  EXPECT_EQ(fused.ValueOrDie().ranks, direct.ranks);
  EXPECT_EQ(fused.ValueOrDie().metrics.mrr, direct.metrics.mrr);

  const EstimateRequest adaptive = AdaptiveRequest();
  auto fused_adaptive = session->framework().EstimateCheckpointOnPools(
      paths[0], *filter_, Split::kTest, session->pools(), adaptive);
  ASSERT_TRUE(fused_adaptive.ok()) << fused_adaptive.status().ToString();
  const EstimateResult direct_adaptive =
      session->Estimate(*loaded.ValueOrDie(), adaptive);
  EXPECT_EQ(fused_adaptive.ValueOrDie().ranks, direct_adaptive.ranks);
  EXPECT_EQ(fused_adaptive.ValueOrDie().rounds, direct_adaptive.rounds);
  // The former adaptive signature forwards to the same call.
  auto former = session->framework().EstimateAdaptiveCheckpointOnPools(
      paths[0], *filter_, Split::kTest, session->pools(), *adaptive.adaptive);
  ASSERT_TRUE(former.ok()) << former.status().ToString();
  EXPECT_EQ(former.ValueOrDie().ranks, direct_adaptive.ranks);

  // Load failures come back as the Status.
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

TEST(EvalSessionGateTest, ConcurrentEstimatesMatchSequentialOnTrainedModels) {
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
  const std::vector<EstimateResult> many =
      EstimateConcurrently(*session, models);
  ASSERT_EQ(many.size(), models.size());
  for (size_t m = 0; m < models.size(); ++m) {
    const EstimateResult sequential = session->Estimate(*models[m]);
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
  std::vector<EstimateResult> sequential;
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
        paths, EstimateRequest(), nullptr, &stats);
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

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "core/eval_session.h"
#include "core/framework.h"
#include "core/sampled_evaluator.h"
#include "eval/slot_blocks.h"
#include "models/trainer.h"
#include "sched/task_group.h"
#include "stats/confidence.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "tests/fake_model.h"
#include "tests/gate_data.h"
#include "util/cancel.h"

namespace kgeval {
namespace {

// --- Confidence helpers -------------------------------------------------------

TEST(ConfidenceTest, NormalQuantileMatchesKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.995), 2.575829, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959964, 1e-5);
  // Tail region of the approximation.
  EXPECT_NEAR(NormalQuantile(0.001), -3.090232, 1e-4);
}

TEST(ConfidenceTest, TwoSidedZ) {
  EXPECT_NEAR(TwoSidedZ(0.95), 1.959964, 1e-5);
  EXPECT_NEAR(TwoSidedZ(0.99), 2.575829, 1e-5);
}

TEST(ConfidenceTest, NormalCiHalfWidth) {
  // sd 2, n 100 -> 1.96 * 2 / 10.
  EXPECT_NEAR(NormalCiHalfWidth(4.0, 100, 1.96), 0.392, 1e-12);
  EXPECT_EQ(NormalCiHalfWidth(4.0, 1, 1.96), 0.0);
  EXPECT_EQ(NormalCiHalfWidth(-1.0, 100, 1.96), 0.0);  // Clamped.
}

TEST(ConfidenceTest, FinitePopulationCorrection) {
  EXPECT_DOUBLE_EQ(FinitePopulationCorrection(1, 101), 1.0);
  EXPECT_DOUBLE_EQ(FinitePopulationCorrection(101, 101), 0.0);
  EXPECT_NEAR(FinitePopulationCorrection(51, 101), std::sqrt(0.5), 1e-12);
  EXPECT_DOUBLE_EQ(FinitePopulationCorrection(5, 1), 1.0);  // Degenerate.
}

// --- RankingAccumulator -------------------------------------------------------

TEST(RankingAccumulatorTest, MatchesFromRanks) {
  const std::vector<double> ranks = {1, 2, 4, 10, 100, 3, 1, 7};
  RankingAccumulator acc;
  for (double r : ranks) acc.Add(r);
  const RankingMetrics direct = RankingMetrics::FromRanks(ranks);
  const RankingMetrics incremental = acc.Metrics();
  EXPECT_EQ(incremental.num_queries, direct.num_queries);
  EXPECT_NEAR(incremental.mrr, direct.mrr, 1e-12);
  EXPECT_NEAR(incremental.hits1, direct.hits1, 1e-12);
  EXPECT_NEAR(incremental.hits3, direct.hits3, 1e-12);
  EXPECT_NEAR(incremental.hits10, direct.hits10, 1e-12);
  EXPECT_NEAR(incremental.mean_rank, direct.mean_rank, 1e-9);
}

TEST(RankingAccumulatorTest, VarianceMatchesTwoPass) {
  const std::vector<double> ranks = {1, 2, 4, 10, 100, 3, 1, 7, 2, 5};
  RankingAccumulator acc;
  std::vector<double> rr;
  for (double r : ranks) {
    acc.Add(r);
    rr.push_back(1.0 / r);
  }
  const double mean =
      std::accumulate(rr.begin(), rr.end(), 0.0) / rr.size();
  double ss = 0.0;
  for (double x : rr) ss += (x - mean) * (x - mean);
  const double expected = ss / (rr.size() - 1);
  EXPECT_NEAR(acc.SampleVariance(MetricKind::kMrr), expected, 1e-12);
}

TEST(RankingAccumulatorTest, CiShrinksWithSampleSize) {
  // Feed a fixed-dispersion stream; the half-width must shrink ~1/sqrt(n)
  // and never grow between batches of identical data.
  RankingAccumulator acc;
  double previous = 1e9;
  for (int batch = 0; batch < 20; ++batch) {
    for (double r : {1.0, 2.0, 5.0, 10.0, 50.0}) acc.Add(r);
    const double hw = acc.CiHalfWidth(MetricKind::kMrr, 1.96);
    EXPECT_GT(hw, 0.0);
    EXPECT_LT(hw, previous);
    previous = hw;
  }
  const RankingCi ci = acc.Ci(1.96);
  EXPECT_DOUBLE_EQ(ci.mrr, acc.CiHalfWidth(MetricKind::kMrr, 1.96));
  EXPECT_EQ(ci.num_queries, 100);
  EXPECT_DOUBLE_EQ(ci.z, 1.96);
}

// --- Slot-block schedules -----------------------------------------------------

TEST(SlotBlocksTest, ShuffledQueryOrderIsAPermutationOfAllQueries) {
  Rng rng(5);
  const std::vector<int64_t> order = ShuffledQueryOrder(100, &rng);
  ASSERT_EQ(order.size(), 200u);
  std::vector<int64_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (int64_t q = 0; q < 200; ++q) EXPECT_EQ(sorted[q], q);
  // Deterministic per seed, different across seeds.
  Rng same(5), other(6);
  EXPECT_EQ(ShuffledQueryOrder(100, &same), order);
  EXPECT_NE(ShuffledQueryOrder(100, &other), order);
}

/// A slot-contiguous schedule with `runs[s]` blocks for pool slot s. The
/// partitioner reads only the blocks' pool slots.
std::vector<SlotBlock> BlocksPerSlot(const std::vector<size_t>& runs) {
  std::vector<SlotBlock> blocks;
  for (size_t s = 0; s < runs.size(); ++s) {
    for (size_t k = 0; k < runs[s]; ++k) {
      blocks.push_back(
          {0, QueryDirection::kTail, static_cast<int32_t>(s), 0, 0, 0, 0});
    }
  }
  return blocks;
}

TEST(SlotBlocksTest, PartitionBoundariesAlignToSlots) {
  // Three relations with 5, 1, and 3 blocks per direction.
  const std::vector<SlotBlock> blocks = BlocksPerSlot({5, 5, 1, 1, 3, 3});
  ASSERT_EQ(blocks.size(), 18u);  // (5 + 1 + 3) * 2 directions.
  for (size_t max_chunks : {1u, 2u, 4u, 7u, 100u}) {
    const auto chunks = PartitionAtSlotBoundaries(blocks, max_chunks);
    // Chunks tile [0, blocks.size()) contiguously.
    ASSERT_FALSE(chunks.empty());
    size_t expected_lo = 0;
    for (const auto& [lo, hi] : chunks) {
      EXPECT_EQ(lo, expected_lo);
      EXPECT_GT(hi, lo);
      expected_lo = hi;
    }
    EXPECT_EQ(expected_lo, blocks.size());
    // No slot run of fewer than 8 blocks (2 * the split floor) may ever be
    // split: every boundary must sit on a slot change here, where the
    // longest run is 5 blocks.
    for (size_t c = 0; c + 1 < chunks.size(); ++c) {
      const size_t edge = chunks[c].second;
      EXPECT_NE(blocks[edge - 1].pool_slot, blocks[edge].pool_slot)
          << "max_chunks=" << max_chunks << " split a slot at " << edge;
    }
  }
}

TEST(SlotBlocksTest, PartitionSplitsOversizedRuns) {
  // One relation with 64 blocks per direction: load balance must win and
  // cut the runs, in pieces of at least the 4-block floor.
  const std::vector<SlotBlock> blocks = BlocksPerSlot({64, 64});
  ASSERT_EQ(blocks.size(), 128u);
  const auto chunks = PartitionAtSlotBoundaries(blocks, 16);
  EXPECT_GT(chunks.size(), 2u);
  size_t expected_lo = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, expected_lo);
    EXPECT_GE(hi - lo, 4u);  // Never below the prepare-amortization floor.
    expected_lo = hi;
  }
  EXPECT_EQ(expected_lo, blocks.size());
}

// --- Fake-model evaluator behavior --------------------------------------------

/// Counts PrepareCandidates calls, to pin the prepare-once-per-slot
/// guarantee of the chunk partitioning.
class CountingFakeModel : public FakeModel {
 public:
  using FakeModel::FakeModel;

  void PrepareCandidates(const int32_t* candidates, size_t n,
                         CandidateBlock* block) const override {
    prepare_calls.fetch_add(1);
    FakeModel::PrepareCandidates(candidates, n, block);
  }

  mutable std::atomic<int> prepare_calls{0};
};

/// 50 entities, 2 relations, 600 test triples per relation: 3 blocks of
/// 256 per (relation, direction) slot, so chunking behavior is observable.
Dataset TwoRelationDataset() {
  std::vector<Triple> train, test;
  for (int32_t i = 0; i < 40; ++i) {
    train.push_back({i % 50, i % 2, (i * 3 + 1) % 50});
  }
  for (int32_t r = 0; r < 2; ++r) {
    for (int32_t i = 0; i < 600; ++i) {
      test.push_back({i % 50, r, (i * 7 + r) % 50});
    }
  }
  return Dataset("two-rel", 50, 2, std::move(train), {}, std::move(test),
                 TypeStore());
}

/// An adaptive request with `options` as its stopping rule.
EstimateRequest Adaptive(const AdaptiveEvalOptions& options = {},
                         int64_t max_triples = 0) {
  EstimateRequest request;
  request.max_triples = max_triples;
  request.adaptive = options;
  return request;
}

SampledCandidates PoolsForAllSlots(const Dataset& d, int64_t n_s,
                                   uint64_t seed) {
  Rng rng(seed);
  return DrawCandidates(SamplingStrategy::kRandom, nullptr,
                        d.num_entities(), n_s, NeededSlots(d, Split::kTest),
                        2 * d.num_relations(), &rng);
}

TEST(SampledEvaluatorTest, PreparesEachSlotPoolOnce) {
  const Dataset d = TwoRelationDataset();
  const FilterIndex filter(d);
  CountingFakeModel model(50, 2, [](int32_t h, int32_t r, int32_t t) {
    return static_cast<float>(h * 31 + r * 7 + t);
  });
  const SampledCandidates pools = PoolsForAllSlots(d, 20, 3);
  const EstimateResult result =
      EvaluateSampled(model, d, filter, Split::kTest, pools);
  EXPECT_EQ(result.ranks.size(), 2400u);
  // 4 queried slots, 3 blocks each, all runs far below the split floor:
  // exactly one PrepareCandidates per slot, however many threads ran.
  EXPECT_EQ(model.prepare_calls.load(), 4);
}

TEST(SampledEvaluatorTest, ResultCarriesCi) {
  const Dataset d = TwoRelationDataset();
  const FilterIndex filter(d);
  FakeModel model(50, 2, [](int32_t h, int32_t r, int32_t t) {
    return static_cast<float>((h * 13 + r * 5 + t * 29) % 101);
  });
  const SampledCandidates pools = PoolsForAllSlots(d, 20, 4);
  const EstimateResult result =
      EvaluateSampled(model, d, filter, Split::kTest, pools);
  EXPECT_EQ(result.ci.num_queries,
            static_cast<int64_t>(result.ranks.size()));
  EXPECT_NEAR(result.ci.z, 1.959964, 1e-5);
  EXPECT_GT(result.ci.mrr, 0.0);
  // The half-width must match the two-pass computation over the ranks.
  RankingAccumulator acc;
  for (double r : result.ranks) acc.Add(r);
  EXPECT_DOUBLE_EQ(result.ci.mrr,
                   acc.CiHalfWidth(MetricKind::kMrr, result.ci.z));
  // The scalar engine reports the same interval.
  const EstimateResult scalar =
      EvaluateSampledScalar(model, d, filter, Split::kTest, pools);
  EXPECT_DOUBLE_EQ(scalar.ci.mrr, result.ci.mrr);
}

TEST(SampledEvaluatorDeathTest, EmptyQueriedPoolDiesLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Dataset d = TwoRelationDataset();
  const FilterIndex filter(d);
  FakeModel model(50, 2, [](int32_t, int32_t, int32_t) { return 1.0f; });
  SampledCandidates pools;
  pools.pools.resize(4);
  pools.pools[0] = {1, 2, 3};  // Head slot of relation 0.
  pools.pools[1] = {1, 2, 3};  // Head slot of relation 1.
  pools.pools[2] = {1, 2, 3};  // Tail slot of relation 0.
  // Tail slot of relation 1 left empty although relation 1 is queried:
  // scoring would silently report rank 1 for all its tail queries.
  EXPECT_DEATH(EvaluateSampled(model, d, filter, Split::kTest, pools),
               "empty candidate pool");
  EXPECT_DEATH(EvaluateSampledScalar(model, d, filter, Split::kTest, pools),
               "empty candidate pool");
  EXPECT_DEATH(
      EvaluateSampled(model, d, filter, Split::kTest, pools, Adaptive()),
      "empty candidate pool");
}

// Pools must be strictly increasing ids in [0, num_entities) (the
// SampledCandidates contract); every pass checks that once, up front.
TEST(SampledEvaluatorDeathTest, MalformedQueriedPoolDiesLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Dataset d = TwoRelationDataset();  // 50 entities.
  const FilterIndex filter(d);
  FakeModel model(50, 2, [](int32_t, int32_t, int32_t) { return 1.0f; });
  const struct {
    std::vector<int32_t> pool;
    const char* message;
  } cases[] = {
      {{1, 3, 2}, "not strictly increasing"},     // Unsorted.
      {{1, 2, 2, 3}, "not strictly increasing"},  // Duplicate id.
      {{1, 2, 50}, "outside \\[0, 50\\)"},        // Past the last entity.
      {{-1, 2, 3}, "outside \\[0, 50\\)"},        // Negative.
  };
  for (const auto& c : cases) {
    SampledCandidates pools;
    pools.pools.assign(4, {1, 2, 3});
    pools.pools[3] = c.pool;  // Tail slot of relation 1 (queried).
    EXPECT_DEATH(EvaluateSampled(model, d, filter, Split::kTest, pools),
                 c.message);
    EXPECT_DEATH(EvaluateSampledScalar(model, d, filter, Split::kTest, pools),
                 c.message);
    EXPECT_DEATH(
        EvaluateSampled(model, d, filter, Split::kTest, pools, Adaptive()),
        c.message);
  }
}

TEST(SampledEvaluatorTest, EmptyUnqueriedPoolIsFine) {
  // Only relation 0 in the test split: relation 1's pools may be empty
  // (they are never ranked against) and must not inflate score buffers or
  // trip the validation.
  std::vector<Triple> train = {{0, 0, 1}, {2, 1, 3}};
  std::vector<Triple> test = {{0, 0, 2}, {1, 0, 3}};
  Dataset d("one-rel", 50, 2, std::move(train), {}, std::move(test),
            TypeStore());
  const FilterIndex filter(d);
  FakeModel model(50, 2, [](int32_t h, int32_t, int32_t t) {
    return static_cast<float>(h + t);
  });
  SampledCandidates pools;
  pools.pools.resize(4);
  pools.pools[0] = {1, 2, 3, 4};   // Head slot, relation 0.
  pools.pools[2] = {5, 6, 7, 8};   // Tail slot, relation 0.
  const EstimateResult result =
      EvaluateSampled(model, d, filter, Split::kTest, pools);
  EXPECT_EQ(result.ranks.size(), 4u);
  for (double rank : result.ranks) EXPECT_GE(rank, 1.0);
}

// --- Adaptive evaluation on a trained model -----------------------------------

/// Shared across the adaptive tests: one trained model on a synthetic
/// dataset whose test split is large enough (16k queries) for a 0.01
/// half-width to be reachable below 50% coverage even at the worst-case
/// reciprocal-rank dispersion (sd 0.5 crosses at ~37.5% of 16k).
class AdaptiveFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthConfig config;
    config.num_entities = 800;
    config.num_relations = 16;
    config.num_types = 12;
    config.num_train = 12000;
    config.num_valid = 400;
    config.num_test = 8000;
    config.seed = 77;
    dataset_ = new Dataset(GenerateDataset(config).ValueOrDie().dataset);
    filter_ = new FilterIndex(*dataset_);
    ModelOptions options;
    options.dim = 24;
    options.adam.learning_rate = 3e-3f;
    auto model = CreateModel(ModelType::kComplEx, dataset_->num_entities(),
                             dataset_->num_relations(), options)
                     .ValueOrDie();
    TrainerOptions trainer_options;
    trainer_options.epochs = 6;
    Trainer trainer(dataset_, trainer_options);
    ASSERT_TRUE(trainer.Train(model.get()).ok());
    model_ = model.release();
    pools_ = new SampledCandidates(PoolsForAllSlots(*dataset_, 80, 9));
  }
  static void TearDownTestSuite() {
    delete pools_;
    delete model_;
    delete filter_;
    delete dataset_;
  }

  static Dataset* dataset_;
  static FilterIndex* filter_;
  static KgeModel* model_;
  static SampledCandidates* pools_;
};

Dataset* AdaptiveFixture::dataset_ = nullptr;
FilterIndex* AdaptiveFixture::filter_ = nullptr;
KgeModel* AdaptiveFixture::model_ = nullptr;
SampledCandidates* AdaptiveFixture::pools_ = nullptr;

TEST_F(AdaptiveFixture, DeterministicUnderFixedSeed) {
  AdaptiveEvalOptions options;
  options.target_half_width = 0.02;
  const EstimateResult a =
      EvaluateSampled(*model_, *dataset_, *filter_, Split::kTest, *pools_,
                      Adaptive(options));
  const EstimateResult b =
      EvaluateSampled(*model_, *dataset_, *filter_, Split::kTest, *pools_,
                      Adaptive(options));
  EXPECT_EQ(a.evaluated_queries, b.evaluated_queries);
  EXPECT_EQ(a.scored_candidates, b.scored_candidates);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.metrics.mrr, b.metrics.mrr);  // Bitwise: same fold order.
  EXPECT_EQ(a.ci.mrr, b.ci.mrr);
  EXPECT_EQ(a.ranks, b.ranks);
  // A different shuffle seed evaluates a different prefix.
  AdaptiveEvalOptions other = options;
  other.shuffle_seed = 12345;
  const EstimateResult c =
      EvaluateSampled(*model_, *dataset_, *filter_, Split::kTest, *pools_,
                      Adaptive(other));
  EXPECT_NE(a.ranks, c.ranks);
}

TEST_F(AdaptiveFixture, HalfWidthShrinksMonotonically) {
  // A budget of k whole rounds scores the first k rounds of the one
  // shuffle, so its interval is the interval after round k of an
  // unbudgeted pass.
  AdaptiveEvalOptions options;
  options.target_half_width = 1e-9;  // Only a budget or coverage stops it.
  const EstimateResult whole =
      EvaluateSampled(*model_, *dataset_, *filter_, Split::kTest, *pools_,
                      Adaptive(options));
  ASSERT_EQ(whole.rounds, 8);  // 16 000 queries in 2 048-query rounds.
  EXPECT_TRUE(whole.converged);
  EXPECT_DOUBLE_EQ(whole.ci.mrr, 0.0);
  std::vector<double> half_widths;
  for (int64_t k = 1; k < whole.rounds; ++k) {
    const int64_t max_triples =
        k * static_cast<int64_t>(kAdaptiveRoundQueries) / 2;
    const EstimateResult budgeted =
        EvaluateSampled(*model_, *dataset_, *filter_, Split::kTest, *pools_,
                        Adaptive(options, max_triples));
    ASSERT_EQ(budgeted.rounds, k);
    ASSERT_EQ(budgeted.evaluated_queries, 2 * max_triples);
    EXPECT_FALSE(budgeted.converged);
    half_widths.push_back(budgeted.ci.mrr);
  }
  // After the variance estimate has support, the interval must tighten
  // round over round (small tolerance for the variance estimate moving).
  for (size_t i = 2; i < half_widths.size(); ++i) {
    EXPECT_LE(half_widths[i], half_widths[i - 1] * 1.05) << "round " << i;
  }
  EXPECT_LT(half_widths.back(), half_widths[2] * 0.5);
}

TEST_F(AdaptiveFixture, EarlyStopWithinCiOfFullPass) {
  // The acceptance scenario: at target half-width 0.01 the adaptive pass
  // must stop at <= 50% of the full sampled pass's scored candidates while
  // its MRR estimate traps the full-pass MRR inside the reported interval.
  const EstimateResult full =
      EvaluateSampled(*model_, *dataset_, *filter_, Split::kTest, *pools_);
  AdaptiveEvalOptions options;
  options.target_half_width = 0.01;
  const EstimateResult adaptive =
      EvaluateSampled(*model_, *dataset_, *filter_, Split::kTest, *pools_,
                      Adaptive(options));
  EXPECT_TRUE(adaptive.converged);
  EXPECT_LE(adaptive.ci.mrr, 0.01);
  EXPECT_LE(adaptive.scored_candidates, full.scored_candidates / 2)
      << "scored " << adaptive.scored_candidates << " of "
      << full.scored_candidates;
  EXPECT_LE(std::fabs(adaptive.metrics.mrr - full.metrics.mrr),
            adaptive.ci.mrr)
      << "adaptive " << adaptive.metrics.mrr << " full " << full.metrics.mrr
      << " +/- " << adaptive.ci.mrr;
  // Every rank the adaptive pass did score is bit-identical to the full
  // pass's rank for that query.
  ASSERT_EQ(adaptive.ranks.size(), full.ranks.size());
  int64_t evaluated = 0;
  for (size_t i = 0; i < adaptive.ranks.size(); ++i) {
    if (adaptive.ranks[i] == 0.0) continue;
    EXPECT_DOUBLE_EQ(adaptive.ranks[i], full.ranks[i]) << "query " << i;
    ++evaluated;
  }
  EXPECT_EQ(evaluated, adaptive.evaluated_queries);
}

TEST_F(AdaptiveFixture, ExhaustiveScheduleMatchesFullPass) {
  // An unreachable target forces full coverage; the estimate then *is* the
  // full sampled pass (same ranks, same metrics up to fold order).
  const EstimateResult full =
      EvaluateSampled(*model_, *dataset_, *filter_, Split::kTest, *pools_);
  AdaptiveEvalOptions options;
  options.target_half_width = 0.0;
  const EstimateResult adaptive =
      EvaluateSampled(*model_, *dataset_, *filter_, Split::kTest, *pools_,
                      Adaptive(options));
  EXPECT_EQ(adaptive.evaluated_queries, adaptive.total_queries);
  EXPECT_EQ(adaptive.scored_candidates, full.scored_candidates);
  EXPECT_EQ(adaptive.ranks, full.ranks);
  EXPECT_NEAR(adaptive.metrics.mrr, full.metrics.mrr, 1e-12);
  EXPECT_NEAR(adaptive.metrics.hits10, full.metrics.hits10, 1e-12);
  // Full coverage: the finite-population-corrected interval collapses.
  EXPECT_DOUBLE_EQ(adaptive.ci.mrr, 0.0);
  EXPECT_TRUE(adaptive.converged);
  // Both passes report the draw cost of the pools they ranked against.
  EXPECT_GT(pools_->sample_seconds, 0.0);
  EXPECT_EQ(adaptive.sample_seconds, pools_->sample_seconds);
  EXPECT_EQ(full.sample_seconds, pools_->sample_seconds);
}

TEST_F(AdaptiveFixture, BudgetsForceUnconvergedStop) {
  AdaptiveEvalOptions options;
  options.target_half_width = 1e-9;
  // 1000 budgeted queries, below kAdaptiveMinQueries (1024): the
  // confidence test never runs, so only the budget can end the pass.
  constexpr int64_t kMaxTriples = 500;
  const EstimateResult result =
      EvaluateSampled(*model_, *dataset_, *filter_, Split::kTest, *pools_,
                      Adaptive(options, kMaxTriples));
  EXPECT_FALSE(result.converged);
  // The query budget is exact: 2 queries per budgeted triple.
  EXPECT_EQ(result.evaluated_queries, 2 * kMaxTriples);
}

TEST_F(AdaptiveFixture, OneRoundScoresTheShuffledQueryPrefix) {
  // A round is a simple random sample of *queries*: with a one-round
  // budget, the scored queries are exactly the first kAdaptiveRoundQueries
  // ids of the shuffled query order. A schedule that shuffled slot blocks
  // instead would score whole same-relation runs — a cluster sample — and
  // fail.
  AdaptiveEvalOptions options;
  options.target_half_width = 1e-9;
  const EstimateResult result = EvaluateSampled(
      *model_, *dataset_, *filter_, Split::kTest, *pools_,
      Adaptive(options, static_cast<int64_t>(kAdaptiveRoundQueries / 2)));
  EXPECT_EQ(result.rounds, 1);
  EXPECT_EQ(result.evaluated_queries,
            static_cast<int64_t>(kAdaptiveRoundQueries));

  Rng rng(options.shuffle_seed);
  const std::vector<int64_t> order = ShuffledQueryOrder(
      static_cast<int64_t>(dataset_->split(Split::kTest).size()), &rng);
  std::vector<int64_t> expected(order.begin(),
                                order.begin() + kAdaptiveRoundQueries);
  std::sort(expected.begin(), expected.end());
  std::vector<int64_t> scored;
  for (size_t q = 0; q < result.ranks.size(); ++q) {
    if (result.ranks[q] != 0.0) scored.push_back(static_cast<int64_t>(q));
  }
  EXPECT_EQ(scored, expected);
}

TEST_F(AdaptiveFixture, ConcurrentMultiRoundPassesMatchSequential) {
  // Several adaptive passes (one per shuffle seed) running at once on the
  // shared workers stop after the same rounds, with the same ranks and
  // intervals, as each pass run alone.
  std::vector<EstimateRequest> requests;
  for (uint64_t seed : {29u, 31u, 37u, 41u}) {
    AdaptiveEvalOptions options;
    options.shuffle_seed = seed;
    requests.push_back(Adaptive(options));
  }
  std::vector<EstimateResult> concurrent(requests.size());
  RunJobsConcurrently(requests.size(), [&](size_t i) {
    concurrent[i] = EvaluateSampled(*model_, *dataset_, *filter_,
                                    Split::kTest, *pools_, requests[i]);
  });
  for (size_t i = 0; i < requests.size(); ++i) {
    const EstimateResult sequential =
        EvaluateSampled(*model_, *dataset_, *filter_, Split::kTest, *pools_,
                        requests[i]);
    EXPECT_GT(sequential.rounds, 1) << "request " << i;
    EXPECT_LT(sequential.evaluated_queries, sequential.total_queries)
        << "request " << i;
    EXPECT_TRUE(sequential.converged) << "request " << i;
    EXPECT_EQ(concurrent[i].rounds, sequential.rounds) << "request " << i;
    EXPECT_EQ(concurrent[i].evaluated_queries, sequential.evaluated_queries)
        << "request " << i;
    EXPECT_EQ(concurrent[i].ranks, sequential.ranks) << "request " << i;
    EXPECT_EQ(concurrent[i].metrics.mrr, sequential.metrics.mrr)
        << "request " << i;
    EXPECT_EQ(concurrent[i].ci.mrr, sequential.ci.mrr) << "request " << i;
  }
  EXPECT_NE(concurrent[0].ranks, concurrent[1].ranks);
}

TEST_F(AdaptiveFixture, FrameworkEstimateRunsAdaptiveRequests) {
  FrameworkOptions options;
  options.strategy = SamplingStrategy::kProbabilistic;
  options.recommender = RecommenderType::kLwd;
  options.sample_fraction = 0.1;
  auto framework =
      EvaluationFramework::Build(dataset_, options).ValueOrDie();
  AdaptiveEvalOptions adaptive_options;
  adaptive_options.target_half_width = 0.02;
  const EstimateResult result = framework->Estimate(
      *model_, *filter_, Split::kTest, Adaptive(adaptive_options));
  EXPECT_GT(result.evaluated_queries, 0);
  EXPECT_GT(result.metrics.mrr, 0.0);
  EXPECT_GT(result.ci.num_queries, 0);
  if (result.converged) {
    EXPECT_LE(result.ci.mrr, 0.02);
  }
}

TEST(AdaptiveSmallSplitTest, ScoringTheWholeSplitConverges) {
  // A split of fewer than kAdaptiveMinQueries queries never reaches the
  // confidence test, yet a pass that scores all of it is the full pass:
  // its corrected interval is zero and it reports converged. A budget
  // short of the split, or a cancel, still reports unconverged.
  std::vector<Triple> train = {{0, 0, 1}, {2, 0, 3}};
  std::vector<Triple> test;
  for (int32_t i = 0; i < 300; ++i) {
    test.push_back({i % 50, 0, (i * 7 + 3) % 50});
  }
  const Dataset d("small", 50, 1, std::move(train), {}, std::move(test),
                  TypeStore());
  const FilterIndex filter(d);
  FakeModel model(50, 1, [](int32_t h, int32_t, int32_t t) {
    return static_cast<float>((h * 13 + t * 5) % 17);
  });
  const SampledCandidates pools = PoolsForAllSlots(d, 20, 4);
  AdaptiveEvalOptions options;
  options.target_half_width = 0.01;

  const EstimateResult whole =
      EvaluateSampled(model, d, filter, Split::kTest, pools, Adaptive(options));
  EXPECT_EQ(whole.total_queries, 600);
  EXPECT_EQ(whole.evaluated_queries, 600);
  EXPECT_EQ(whole.rounds, 1);
  EXPECT_DOUBLE_EQ(whole.ci.mrr, 0.0);
  EXPECT_TRUE(whole.converged);

  const EstimateResult budgeted = EvaluateSampled(
      model, d, filter, Split::kTest, pools, Adaptive(options, 100));
  EXPECT_EQ(budgeted.evaluated_queries, 200);
  EXPECT_FALSE(budgeted.converged);

  CancelToken cancel;
  cancel.Cancel();
  EstimateRequest cancelled = Adaptive(options);
  cancelled.cancel = &cancel;
  const EstimateResult stopped =
      EvaluateSampled(model, d, filter, Split::kTest, pools, cancelled);
  EXPECT_TRUE(stopped.cancelled);
  EXPECT_FALSE(stopped.converged);
}

TEST(AdaptiveSessionTest, RerunIsDeterministicForEveryStrategy) {
  // The adaptive determinism gate: trained codex-s, one EvalSession per
  // sampling strategy (LWD, 10% sample), target half-width 0.01. A rerun
  // on the session's pinned pools must repeat the pass exactly.
  const Dataset dataset = CodexS();
  const FilterIndex filter(dataset);
  auto model = TrainGateModel(dataset, GateTraining());
  for (SamplingStrategy strategy :
       {SamplingStrategy::kProbabilistic, SamplingStrategy::kStatic,
        SamplingStrategy::kRandom}) {
    SCOPED_TRACE(SamplingStrategyName(strategy));
    FrameworkOptions options;
    options.strategy = strategy;
    options.recommender = RecommenderType::kLwd;
    options.sample_fraction = 0.1;
    auto session =
        EvalSession::Create(&dataset, &filter, options, Split::kTest)
            .ValueOrDie();
    AdaptiveEvalOptions adaptive_options;
    adaptive_options.target_half_width = 0.01;
    const EstimateResult first =
        session->Estimate(*model, Adaptive(adaptive_options));
    const EstimateResult rerun =
        session->Estimate(*model, Adaptive(adaptive_options));
    EXPECT_GT(first.evaluated_queries, 0);
    EXPECT_EQ(first.evaluated_queries, rerun.evaluated_queries);
    EXPECT_EQ(first.scored_candidates, rerun.scored_candidates);
    EXPECT_EQ(first.metrics.mrr, rerun.metrics.mrr);
    EXPECT_EQ(first.ci.mrr, rerun.ci.mrr);
    EXPECT_EQ(first.ranks, rerun.ranks);
  }
}

}  // namespace
}  // namespace kgeval

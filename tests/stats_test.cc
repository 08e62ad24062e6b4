#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "stats/correlation.h"
#include "stats/sampling.h"
#include "util/rng.h"

namespace kgeval {
namespace {

// --- Correlations -----------------------------------------------------------

TEST(PearsonTest, PerfectPositive) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
}

TEST(PearsonTest, PerfectNegative) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {3, 2, 1}), -1.0, 1e-12);
}

TEST(PearsonTest, ConstantSeriesGivesZero) {
  EXPECT_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(PearsonTest, InvariantToAffineTransform) {
  const std::vector<double> x = {0.3, 1.7, 2.2, 5.0, 3.3};
  const std::vector<double> y = {1.0, 0.7, 2.5, 4.0, 2.9};
  std::vector<double> y_scaled;
  for (double v : y) y_scaled.push_back(3.0 * v - 7.0);
  EXPECT_NEAR(PearsonCorrelation(x, y), PearsonCorrelation(x, y_scaled),
              1e-12);
}

TEST(KendallTauTest, PerfectAgreement) {
  EXPECT_NEAR(KendallTau({1, 2, 3, 4}, {10, 20, 30, 40}), 1.0, 1e-12);
}

TEST(KendallTauTest, PerfectDisagreement) {
  EXPECT_NEAR(KendallTau({1, 2, 3, 4}, {4, 3, 2, 1}), -1.0, 1e-12);
}

TEST(KendallTauTest, SingleSwap) {
  // One discordant pair among 6: tau = (5 - 1) / 6.
  EXPECT_NEAR(KendallTau({1, 2, 3, 4}, {2, 1, 3, 4}), 4.0 / 6.0, 1e-12);
}

TEST(KendallTauTest, HandlesTies) {
  const double tau = KendallTau({1, 1, 2, 3}, {1, 2, 3, 4});
  EXPECT_GT(tau, 0.0);
  EXPECT_LE(tau, 1.0);
}

TEST(KendallTauTest, AllTiedGivesZero) {
  EXPECT_EQ(KendallTau({5, 5, 5}, {1, 2, 3}), 0.0);
}

TEST(ErrorMetricsTest, MaeBasic) {
  EXPECT_DOUBLE_EQ(MeanAbsoluteError({1, 2, 3}, {1, 1, 5}), (0 + 1 + 2) / 3.0);
}

TEST(DescriptiveTest, MeanAndStd) {
  EXPECT_DOUBLE_EQ(Mean({2, 4, 6}), 4.0);
  EXPECT_NEAR(StdDev({2, 4, 6}), 2.0, 1e-12);
  EXPECT_EQ(StdDev({5}), 0.0);
}

TEST(DescriptiveTest, Ci95ShrinksWithN) {
  std::vector<double> small = {1, 2, 3, 4};
  std::vector<double> large;
  for (int i = 0; i < 16; ++i) large.insert(large.end(), small.begin(),
                                            small.end());
  EXPECT_GT(NormalCi95HalfWidth(small), NormalCi95HalfWidth(large));
}

// --- Uniform sampling without replacement ------------------------------------

TEST(FloydSamplingTest, DistinctAndInRange) {
  Rng rng(3);
  const auto sample = SampleWithoutReplacement(1000, 100, &rng);
  EXPECT_EQ(sample.size(), 100u);
  std::set<int32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 100u);
  for (int32_t v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 1000);
  }
}

TEST(FloydSamplingTest, KGreaterThanNReturnsAll) {
  Rng rng(4);
  const auto sample = SampleWithoutReplacement(10, 50, &rng);
  EXPECT_EQ(sample.size(), 10u);
}

TEST(FloydSamplingTest, ApproximatelyUniform) {
  Rng rng(5);
  std::vector<int> counts(20, 0);
  for (int trial = 0; trial < 4000; ++trial) {
    for (int32_t v : SampleWithoutReplacement(20, 5, &rng)) ++counts[v];
  }
  // Each element expected 4000 * 5/20 = 1000 times.
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(SampleFromTest, DrawsFromPopulation) {
  Rng rng(6);
  const std::vector<int32_t> population = {5, 9, 12, 40, 77};
  const auto sample = SampleFrom(population, 3, &rng);
  EXPECT_EQ(sample.size(), 3u);
  for (int32_t v : sample) {
    EXPECT_TRUE(std::find(population.begin(), population.end(), v) !=
                population.end());
  }
}

TEST(SampleFromTest, WholePopulationWhenKTooLarge) {
  Rng rng(7);
  const std::vector<int32_t> population = {1, 2, 3};
  EXPECT_EQ(SampleFrom(population, 10, &rng), population);
}

// --- Weighted sampling --------------------------------------------------------

TEST(WeightedSamplingTest, ZeroWeightNeverDrawn) {
  Rng rng(8);
  const std::vector<int32_t> items = {0, 1, 2, 3};
  const std::vector<float> weights = {1.0f, 0.0f, 1.0f, 0.0f};
  for (int trial = 0; trial < 200; ++trial) {
    for (int32_t v : WeightedSampleWithoutReplacement(items, weights, 2,
                                                      &rng)) {
      EXPECT_TRUE(v == 0 || v == 2);
    }
  }
}

TEST(WeightedSamplingTest, ReturnsAllPositiveWhenKLarge) {
  Rng rng(9);
  const std::vector<int32_t> items = {10, 11, 12, 13};
  const std::vector<float> weights = {1.0f, 0.5f, 0.0f, 2.0f};
  auto sample = WeightedSampleWithoutReplacement(items, weights, 10, &rng);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(sample, (std::vector<int32_t>{10, 11, 13}));
}

TEST(WeightedSamplingTest, HigherWeightDrawnMoreOften) {
  Rng rng(10);
  const std::vector<int32_t> items = {0, 1};
  const std::vector<float> weights = {10.0f, 1.0f};
  int heavy = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const auto sample =
        WeightedSampleWithoutReplacement(items, weights, 1, &rng);
    if (sample[0] == 0) ++heavy;
  }
  EXPECT_GT(heavy, 1400);
}

TEST(WeightedSamplingTest, NoDuplicates) {
  Rng rng(11);
  std::vector<int32_t> items(50);
  std::vector<float> weights(50, 1.0f);
  for (int i = 0; i < 50; ++i) items[i] = i;
  const auto sample =
      WeightedSampleWithoutReplacement(items, weights, 20, &rng);
  std::set<int32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), sample.size());
}

}  // namespace
}  // namespace kgeval

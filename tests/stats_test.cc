#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
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
  const auto sample = SampleFrom(population.data(), population.size(), 3, &rng);
  EXPECT_EQ(sample.size(), 3u);
  for (int32_t v : sample) {
    EXPECT_TRUE(std::find(population.begin(), population.end(), v) !=
                population.end());
  }
}

TEST(SampleFromTest, WholePopulationWhenKTooLarge) {
  Rng rng(7);
  const std::vector<int32_t> population = {1, 2, 3};
  EXPECT_EQ(
      SampleFrom(population.data(), population.size(), 10, &rng),
      population);
}

// --- Weighted sampling --------------------------------------------------------

TEST(WeightedSamplingTest, ZeroWeightNeverDrawn) {
  Rng rng(8);
  const std::vector<int32_t> items = {0, 1, 2, 3};
  const std::vector<float> weights = {1.0f, 0.0f, 1.0f, 0.0f};
  for (int trial = 0; trial < 200; ++trial) {
    for (int32_t v : WeightedSampleWithoutReplacement(
             items.data(), weights.data(), items.size(), 2, &rng)) {
      EXPECT_TRUE(v == 0 || v == 2);
    }
  }
}

TEST(WeightedSamplingTest, ReturnsAllPositiveWhenKLarge) {
  Rng rng(9);
  const std::vector<int32_t> items = {10, 11, 12, 13};
  const std::vector<float> weights = {1.0f, 0.5f, 0.0f, 2.0f};
  auto sample = WeightedSampleWithoutReplacement(items.data(), weights.data(),
                                                 items.size(), 10, &rng);
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
        WeightedSampleWithoutReplacement(items.data(), weights.data(),
                                         items.size(), 1, &rng);
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
      WeightedSampleWithoutReplacement(items.data(), weights.data(),
                                       items.size(), 20, &rng);
  std::set<int32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), sample.size());
}

/// The A-Res selection as a min-heap of (key, item), the sampler's
/// reference: an item enters while the heap holds fewer than k, or when its
/// key beats the heap's smallest.
std::vector<int32_t> HeapOracle(const std::vector<int32_t>& items,
                                const std::vector<float>& weights, int64_t k,
                                Rng* rng) {
  if (k <= 0) return {};
  using HeapEntry = std::pair<double, int32_t>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap;
  for (size_t i = 0; i < items.size(); ++i) {
    const double w = static_cast<double>(weights[i]);
    if (w <= 0.0) continue;
    double u = rng->NextDouble();
    if (u <= 0.0) u = 1e-300;
    const double key = std::log(u) / w;
    if (static_cast<int64_t>(heap.size()) < k) {
      heap.emplace(key, items[i]);
    } else if (key > heap.top().first) {
      heap.pop();
      heap.emplace(key, items[i]);
    }
  }
  std::vector<int32_t> out;
  while (!heap.empty()) {
    out.push_back(heap.top().second);
    heap.pop();
  }
  return out;
}

/// Checks the sampler against the heap for every k from 0 to one past the
/// number of positive weights, and every seed in [1, seeds]: the same set
/// of items, the same RNG end state, and SkipWeightedSample stepping the
/// RNG to that state too.
void ExpectMatchesHeap(const std::vector<float>& weights, uint64_t seeds) {
  std::vector<int32_t> items(weights.size());
  for (size_t i = 0; i < items.size(); ++i) {
    items[i] = static_cast<int32_t>(3 * i + 1);
  }
  int64_t positive = 0;
  for (float w : weights) positive += w > 0.0f || std::isnan(w);
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    for (int64_t k = 0; k <= positive + 1; ++k) {
      Rng expected_rng(seed), rng(seed), skipped(seed);
      std::vector<int32_t> expected =
          HeapOracle(items, weights, k, &expected_rng);
      std::vector<int32_t> got =
          WeightedSampleWithoutReplacement(items.data(), weights.data(),
                                           items.size(), k, &rng);
      const int64_t keyed =
          SkipWeightedSample(weights.data(), weights.size(), k, &skipped);
      std::sort(expected.begin(), expected.end());
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << "seed " << seed << " k " << k;
      EXPECT_EQ(static_cast<int64_t>(got.size()), std::min(keyed, k));
      const uint64_t end = expected_rng.Next();
      EXPECT_EQ(rng.Next(), end) << "seed " << seed << " k " << k;
      EXPECT_EQ(skipped.Next(), end) << "seed " << seed << " k " << k;
    }
  }
}

constexpr float kInf = std::numeric_limits<float>::infinity();

// An infinite weight keys log(u) / inf = -0.0, so infinite items tie with
// one another wherever the cut falls among them.
TEST(WeightedSamplingTest, AllInfiniteWeightsMatchHeap) {
  ExpectMatchesHeap(std::vector<float>(12, kInf), 3);
}

TEST(WeightedSamplingTest, MixedInfiniteAndFiniteWeightsMatchHeap) {
  ExpectMatchesHeap({1.0f, kInf, 0.5f, 2.0f, kInf, 3.0f, kInf, 0.25f, 1.5f},
                    5);
}

TEST(WeightedSamplingTest, ZeroAndNegativeWeightsDrawNothing) {
  ExpectMatchesHeap({0.0f, 1.0f, -1.0f, 2.0f, -0.0f, 0.5f, 0.0f, kInf,
                     -kInf, 4.0f},
                    5);
  // Nothing keyed: no draw at all, whatever k asks for.
  Rng rng(7), untouched(7);
  const int32_t items[] = {1, 2};
  const float weights[] = {0.0f, -2.0f};
  EXPECT_TRUE(WeightedSampleWithoutReplacement(items, weights, 2, 5, &rng)
                  .empty());
  EXPECT_EQ(rng.Next(), untouched.Next());
}

// NaN weights draw and key NaN, which only the heap may order.
TEST(WeightedSamplingTest, NanWeightsMatchHeap) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  ExpectMatchesHeap({1.0f, nan, 2.0f, 0.5f, nan, 3.0f}, 5);
}

TEST(WeightedSamplingTest, RandomWeightsMatchHeap) {
  Rng gen(12);
  std::vector<float> weights(200);
  // A few weight levels repeat, so keys stay distinct but close.
  for (float& w : weights) {
    w = static_cast<float>(gen.NextBounded(5)) * 0.25f;
  }
  ExpectMatchesHeap(weights, 3);
}

}  // namespace
}  // namespace kgeval

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>

#include "eval/full_evaluator.h"
#include "eval/metrics.h"
#include "graph/dataset.h"
#include "models/kge_model.h"
#include "tests/fake_model.h"

namespace kgeval {
namespace {

TEST(RankFromCountsTest, Conventions) {
  EXPECT_DOUBLE_EQ(RankFromCounts(0, 0, TieBreak::kMean), 1.0);
  EXPECT_DOUBLE_EQ(RankFromCounts(3, 0, TieBreak::kMean), 4.0);
  EXPECT_DOUBLE_EQ(RankFromCounts(3, 2, TieBreak::kMean), 5.0);
  EXPECT_DOUBLE_EQ(RankFromCounts(3, 2, TieBreak::kOptimistic), 4.0);
  EXPECT_DOUBLE_EQ(RankFromCounts(3, 2, TieBreak::kPessimistic), 6.0);
}

TEST(MetricsTest, FromRanksBasics) {
  const RankingMetrics m = RankingMetrics::FromRanks({1, 2, 4, 10, 100});
  EXPECT_EQ(m.num_queries, 5);
  EXPECT_NEAR(m.mrr, (1.0 + 0.5 + 0.25 + 0.1 + 0.01) / 5.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.hits1, 0.2);
  EXPECT_DOUBLE_EQ(m.hits3, 0.4);
  EXPECT_DOUBLE_EQ(m.hits10, 0.8);
  EXPECT_DOUBLE_EQ(m.mean_rank, 23.4);
}

TEST(MetricsTest, EmptyRanks) {
  const RankingMetrics m = RankingMetrics::FromRanks({});
  EXPECT_EQ(m.num_queries, 0);
  EXPECT_EQ(m.mrr, 0.0);
}

TEST(MetricsTest, GetByKind) {
  const RankingMetrics m = RankingMetrics::FromRanks({1, 2});
  EXPECT_DOUBLE_EQ(m.Get(MetricKind::kMrr), m.mrr);
  EXPECT_DOUBLE_EQ(m.Get(MetricKind::kHits1), m.hits1);
  EXPECT_DOUBLE_EQ(m.Get(MetricKind::kHits3), m.hits3);
  EXPECT_DOUBLE_EQ(m.Get(MetricKind::kHits10), m.hits10);
}

TEST(FilteredRankTest, CountsHigherAndFiltered) {
  // Candidates 0..4 with scores; truth is entity 2 (score 5). Entities 0
  // (score 9) and 1 (score 7) outrank it, but 1 is a known answer ->
  // filtered. Rank = 1 + 1 higher = 2.
  const int32_t candidates[5] = {0, 1, 2, 3, 4};
  const float scores[5] = {9, 7, 5, 3, 1};
  const std::vector<int32_t> answers = {1, 2};
  EXPECT_DOUBLE_EQ(FilteredRank(candidates, scores, 5, 2, 5.0f, answers,
                                TieBreak::kMean, /*candidates_sorted=*/true),
                   2.0);
}

TEST(FilteredRankTest, TiesUseConvention) {
  const int32_t candidates[4] = {0, 1, 2, 3};
  const float scores[4] = {5, 5, 5, 1};
  const std::vector<int32_t> answers = {0};
  // Truth = 0 with score 5; candidates 1 and 2 tie with it.
  EXPECT_DOUBLE_EQ(FilteredRank(candidates, scores, 4, 0, 5.0f, answers,
                                TieBreak::kMean, /*candidates_sorted=*/true),
                   2.0);
  EXPECT_DOUBLE_EQ(FilteredRank(candidates, scores, 4, 0, 5.0f, answers,
                                TieBreak::kOptimistic,
                                /*candidates_sorted=*/true),
                   1.0);
  EXPECT_DOUBLE_EQ(FilteredRank(candidates, scores, 4, 0, 5.0f, answers,
                                TieBreak::kPessimistic,
                                /*candidates_sorted=*/true),
                   3.0);
}

TEST(FilteredRankTest, TruthDuplicatesInPoolIgnored) {
  const int32_t candidates[3] = {2, 2, 4};
  const float scores[3] = {5, 5, 9};
  const std::vector<int32_t> answers = {2};
  EXPECT_DOUBLE_EQ(FilteredRank(candidates, scores, 3, 2, 5.0f, answers,
                                TieBreak::kMean, /*candidates_sorted=*/true),
                   2.0);
}

TEST(PoolIndexTest, FindsPositionsAcrossWordBoundaries) {
  const std::vector<int32_t> pool = {0, 1, 63, 64, 127, 128, 1000};
  PoolIndex index;
  index.Build(pool.data(), pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(index.Find(pool[i]), static_cast<int32_t>(i)) << pool[i];
  }
  // Absent: below the first word's members, between members, inside the
  // max's word, past the max, past the last word, and negative.
  for (int32_t e : {2, 62, 65, 126, 129, 999, 1001, 1023, 1024, 5000, -1}) {
    EXPECT_EQ(index.Find(e), -1) << e;
  }
}

TEST(PoolIndexTest, EmptyAndSingletonPools) {
  PoolIndex index;
  index.Build(nullptr, 0);
  EXPECT_EQ(index.Find(0), -1);
  EXPECT_EQ(index.Find(64), -1);
  const int32_t one = 70;
  index.Build(&one, 1);  // Rebuilding replaces the previous pool.
  EXPECT_EQ(index.Find(70), 0);
  EXPECT_EQ(index.Find(69), -1);
  EXPECT_EQ(index.Find(71), -1);
  EXPECT_EQ(index.Find(0), -1);
  const int32_t zero = 0;
  index.Build(&zero, 1);
  EXPECT_EQ(index.Find(0), 0);
  EXPECT_EQ(index.Find(70), -1);
}

TEST(PoolIndexDeathTest, RejectsUnsortedOrDuplicatedIds) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  PoolIndex index;
  const int32_t unsorted[3] = {1, 5, 3};
  EXPECT_DEATH(index.Build(unsorted, 3), "strictly increasing");
  const int32_t duplicate[3] = {1, 3, 3};
  EXPECT_DEATH(index.Build(duplicate, 3), "strictly increasing");
}

// The indexed take-back, summed over the tiles a row is split into, must
// give the same rank as both reference rankers on sorted, deduplicated
// pools: answers outside the pool, above its max and repeated; the truth at
// the pool's ends; tied and signed-zero scores; one tile, one-position
// tiles and tiles that do not divide the pool.
TEST(AddFilteredTileCountsTest, MatchesReferenceRankers) {
  std::mt19937 rng(20240201);
  const TieBreak ties[3] = {TieBreak::kMean, TieBreak::kOptimistic,
                            TieBreak::kPessimistic};
  // Few distinct values so ties are common; -0.0f == 0.0f must count tied.
  const float values[6] = {-1.0f, -0.0f, 0.0f, 0.5f, 1.0f, 2.0f};
  PoolIndex index;
  for (int trial = 0; trial < 3000; ++trial) {
    const int32_t num_entities = 1 + static_cast<int32_t>(rng() % 300);
    std::vector<int32_t> pool;
    const uint32_t keep = 1 + rng() % 100;  // Percent of entities pooled.
    for (int32_t e = 0; e < num_entities; ++e) {
      if (rng() % 100 < keep) pool.push_back(e);
    }
    if (pool.empty()) {
      pool.push_back(static_cast<int32_t>(rng() % num_entities));
    }
    const size_t n = pool.size();
    std::vector<float> scores(n);
    for (float& v : scores) v = values[rng() % 6];

    // The truth is in the pool (first, last or anywhere) or outside it.
    const int32_t truth =
        trial % 4 == 0   ? pool.front()
        : trial % 4 == 1 ? pool.back()
        : trial % 4 == 2 ? pool[rng() % n]
                         : static_cast<int32_t>(rng() % (num_entities + 64));
    const auto it = std::lower_bound(pool.begin(), pool.end(), truth);
    const bool in_pool = it != pool.end() && *it == truth;
    const float truth_score =
        in_pool ? scores[it - pool.begin()] : values[rng() % 6];

    // Answers: the truth, pool members, non-members, ids past the pool's
    // max (and past the entity range), with duplicates; sorted.
    std::vector<int32_t> answers = {truth};
    const size_t extra = rng() % 12;
    for (size_t k = 0; k < extra; ++k) {
      const uint32_t kind = rng() % 4;
      int32_t a;
      if (kind == 0) {
        a = pool[rng() % n];  // In the pool.
      } else if (kind == 1) {
        a = static_cast<int32_t>(rng() % num_entities);  // Anywhere.
      } else if (kind == 2) {
        a = pool.back() + 1 + static_cast<int32_t>(rng() % 200);  // Above.
      } else {
        a = answers[rng() % answers.size()];  // Duplicate.
      }
      answers.push_back(a);
    }
    std::sort(answers.begin(), answers.end());

    index.Build(pool.data(), n);
    for (size_t width : {n, size_t{1}, size_t{3}, 1 + rng() % n}) {
      int64_t higher = 0, tied = 0;
      for (size_t lo = 0; lo < n; lo += width) {
        AddFilteredTileCounts(scores.data() + lo, lo, std::min(width, n - lo),
                              truth_score, answers, index, &higher, &tied);
      }
      for (TieBreak tie : ties) {
        const double indexed = RankFromCounts(higher, tied, tie);
        EXPECT_EQ(indexed, FilteredRank(pool.data(), scores.data(), n, truth,
                                        truth_score, answers, tie,
                                        /*candidates_sorted=*/true))
            << "trial " << trial << " tile width " << width;
        EXPECT_EQ(indexed, FilteredRank(pool.data(), scores.data(), n, truth,
                                        truth_score, answers, tie,
                                        /*candidates_sorted=*/false))
            << "trial " << trial << " tile width " << width;
      }
    }
  }
}

uint32_t Bits(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST(FakeModelTest, KernelScoresEqualTheLambda) {
  // The identity candidate table leaves one nonzero term per dot product,
  // so the active kernel table must return the lambda bit for bit:
  // negative, zero, tied and large values alike.
  const std::vector<FakeModel::ScoreFn> fns = {
      [](int32_t h, int32_t r, int32_t t) {
        return -static_cast<float>(h * 7 + r * 3 + t) - 0.25f;
      },
      [](int32_t h, int32_t, int32_t t) {
        return (h + t) % 3 == 0 ? 0.0f : -1.5f;
      },
      [](int32_t h, int32_t, int32_t t) {
        return static_cast<float>((h + t) % 4);
      },
      [](int32_t h, int32_t r, int32_t t) {
        return (h + r + t) % 2 == 0 ? 3.0e38f : -1.0e30f;
      },
  };
  // Unsorted, with a duplicate id.
  const std::vector<int32_t> pool = {11, 3, 27, 3, 0, 39, 18};
  const std::vector<int32_t> anchors = {0, 5, 17, 39};
  const std::vector<int32_t> truths = {3, 39, 0, 18};
  const size_t n = pool.size();
  const size_t q = anchors.size();
  for (size_t f = 0; f < fns.size(); ++f) {
    const FakeModel model(40, 3, fns[f]);
    CandidateBlock block;
    model.PrepareCandidates(pool.data(), n, &block);
    std::vector<float> pool_scores(q * n), truth_scores(q), single(n);
    for (int32_t r : {0, 2}) {
      for (QueryDirection dir :
           {QueryDirection::kTail, QueryDirection::kHead}) {
        const auto want = [&](int32_t anchor, int32_t e) {
          return dir == QueryDirection::kTail ? fns[f](anchor, r, e)
                                              : fns[f](e, r, anchor);
        };
        model.ScoreBlock(anchors.data(), truths.data(), q, r, dir, block,
                         pool_scores.data(), truth_scores.data());
        for (size_t i = 0; i < q; ++i) {
          model.ScoreCandidates(anchors[i], r, dir, pool.data(), n,
                                single.data());
          for (size_t c = 0; c < n; ++c) {
            const uint32_t expected = Bits(want(anchors[i], pool[c]));
            EXPECT_EQ(Bits(pool_scores[i * n + c]), expected)
                << "fn " << f << " query " << i << " candidate " << c;
            EXPECT_EQ(Bits(single[c]), expected)
                << "fn " << f << " query " << i << " candidate " << c;
          }
          EXPECT_EQ(Bits(truth_scores[i]), Bits(want(anchors[i], truths[i])))
              << "fn " << f << " truth " << i;
        }
      }
    }
  }
}

// A 4-entity hand-checkable dataset for full-ranking tests.
Dataset HandDataset() {
  std::vector<Triple> train = {{0, 0, 1}, {2, 0, 1}, {0, 0, 3}};
  std::vector<Triple> test = {{0, 0, 2}};
  return Dataset("hand", 4, 1, std::move(train), {}, std::move(test),
                 TypeStore());
}

TEST(FullEvaluatorTest, HandComputedRanks) {
  Dataset d = HandDataset();
  FilterIndex filter(d);
  // Score(h, r, t) = 10*h + t: strictly increasing in t for fixed head.
  FakeModel model(4, 1, [](int32_t h, int32_t, int32_t t) {
    return static_cast<float>(10 * h + t);
  });
  const FullEvalResult result =
      EvaluateFullRanking(model, d, filter, Split::kTest);
  ASSERT_EQ(result.ranks.size(), 2u);
  // Tail query (0, 0, ?) with truth 2: candidates scores 0,1,2,3; filtered
  // answers {1, 2, 3} leave {0}; higher than 2: none -> rank 1.
  EXPECT_DOUBLE_EQ(result.ranks[0], 1.0);
  // Head query (?, 0, 2) with truth 0: candidate heads score 10h+2, higher
  // heads 1,2,3; filtered heads for (0, 2) = {0} only, so 1,2,3 all count
  // -> rank 4.
  EXPECT_DOUBLE_EQ(result.ranks[1], 4.0);
  EXPECT_DOUBLE_EQ(result.metrics.mrr, (1.0 + 0.25) / 2.0);
}

TEST(FullEvaluatorTest, MaxTriplesCapsWork) {
  std::vector<Triple> train = {{0, 0, 1}, {1, 0, 2}, {2, 0, 3}};
  std::vector<Triple> test = {{0, 0, 2}, {1, 0, 3}, {0, 0, 3}};
  Dataset d("cap", 4, 1, std::move(train), {}, std::move(test), TypeStore());
  FilterIndex filter(d);
  FakeModel model(4, 1,
                  [](int32_t h, int32_t, int32_t t) {
                    return static_cast<float>(h + t);
                  });
  FullEvalOptions options;
  options.max_triples = 2;
  const FullEvalResult result =
      EvaluateFullRanking(model, d, filter, Split::kTest, options);
  EXPECT_EQ(result.ranks.size(), 4u);
  EXPECT_EQ(result.metrics.num_queries, 4);
}

TEST(FullEvaluatorTest, PerfectModelGetsMrrOne) {
  Dataset d = HandDataset();
  FilterIndex filter(d);
  // Give the true test triple (0,0,2) the top score everywhere.
  FakeModel model(4, 1, [](int32_t h, int32_t, int32_t t) {
    if (h == 0 && t == 2) return 100.0f;
    return static_cast<float>(-h - t);
  });
  const FullEvalResult result =
      EvaluateFullRanking(model, d, filter, Split::kTest);
  EXPECT_DOUBLE_EQ(result.metrics.mrr, 1.0);
  EXPECT_DOUBLE_EQ(result.metrics.hits1, 1.0);
}

TEST(FullEvaluatorTest, ConstantModelMeanTieRank) {
  Dataset d = HandDataset();
  FilterIndex filter(d);
  FakeModel model(4, 1, [](int32_t, int32_t, int32_t) { return 1.0f; });
  const FullEvalResult result =
      EvaluateFullRanking(model, d, filter, Split::kTest);
  // Tail query: effective candidates {0, 2}; all tied -> rank 1.5.
  EXPECT_DOUBLE_EQ(result.ranks[0], 1.5);
  // Head query: candidates {0,1,2,3} minus filtered {0} -> 3 ties ->
  // rank 1 + 3/2 = 2.5.
  EXPECT_DOUBLE_EQ(result.ranks[1], 2.5);
}

}  // namespace
}  // namespace kgeval

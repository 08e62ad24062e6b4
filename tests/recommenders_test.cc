#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "recommenders/easy_negatives.h"
#include "recommenders/recommender.h"
#include "synth/config.h"
#include "synth/generator.h"

namespace kgeval {
namespace {

constexpr RecommenderType kAllRecommenders[] = {
    RecommenderType::kPt,      RecommenderType::kDbh,
    RecommenderType::kDbhT,    RecommenderType::kOntoSim,
    RecommenderType::kLwd,     RecommenderType::kLwdT,
    RecommenderType::kPie};

/// A hand-built dataset: two "people" (0, 1), two "cities" (2, 3), and a
/// never-seen person (4). Relation 0 = livesIn (person -> city), relation
/// 1 = knows (person -> person).
Dataset HandDataset() {
  std::vector<Triple> train = {
      {0, 0, 2}, {1, 0, 3}, {0, 1, 1},
  };
  std::vector<Triple> valid = {{1, 1, 0}};
  std::vector<Triple> test = {{4, 0, 2}};
  TypeStore types(5, 2);
  types.Assign(0, 0);  // person
  types.Assign(1, 0);
  types.Assign(4, 0);
  types.Assign(2, 1);  // city
  types.Assign(3, 1);
  types.Seal();
  return Dataset("hand", 5, 2, std::move(train), std::move(valid),
                 std::move(test), std::move(types));
}

Dataset SynthDataset() {
  SynthConfig config;
  config.num_entities = 500;
  config.num_relations = 15;
  config.num_types = 12;
  config.num_train = 6000;
  config.num_valid = 400;
  config.num_test = 400;
  config.seed = 99;
  return GenerateDataset(config).ValueOrDie().dataset;
}

class RecommenderParamTest
    : public ::testing::TestWithParam<RecommenderType> {};

TEST_P(RecommenderParamTest, FitProducesWellFormedScores) {
  const Dataset dataset = SynthDataset();
  auto recommender = CreateRecommender(GetParam());
  ASSERT_NE(recommender, nullptr);
  auto result = recommender->Fit(dataset);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RecommenderScores& scores = result.ValueOrDie();
  EXPECT_EQ(scores.scores.rows(), dataset.num_entities());
  EXPECT_EQ(scores.scores.cols(), 2 * dataset.num_relations());
  EXPECT_EQ(scores.by_set.rows(), 2 * dataset.num_relations());
  EXPECT_GT(scores.scores.nnz(), 0);
  EXPECT_GE(scores.fit_seconds, 0.0);
  // All stored scores non-negative.
  for (float v : scores.scores.values()) EXPECT_GE(v, 0.0f);
}

TEST_P(RecommenderParamTest, CoversTrainObservations) {
  // Every recommender must give a positive score to every (entity, slot)
  // pair actually observed in train.
  const Dataset dataset = SynthDataset();
  auto recommender = CreateRecommender(GetParam());
  const RecommenderScores scores =
      recommender->Fit(dataset).ValueOrDie();
  const int32_t num_r = dataset.num_relations();
  int misses = 0;
  for (size_t i = 0; i < std::min<size_t>(dataset.train().size(), 500);
       ++i) {
    const Triple& t = dataset.train()[i];
    if (scores.scores.At(t.head, t.relation) <= 0.0f) ++misses;
    if (scores.scores.At(t.tail, t.relation + num_r) <= 0.0f) ++misses;
  }
  EXPECT_EQ(misses, 0) << RecommenderTypeName(GetParam());
}

TEST_P(RecommenderParamTest, TransposeConsistent) {
  const Dataset dataset = SynthDataset();
  auto recommender = CreateRecommender(GetParam());
  const RecommenderScores scores = recommender->Fit(dataset).ValueOrDie();
  // Spot-check a handful of entries against the transpose.
  int checked = 0;
  for (int64_t r = 0; r < scores.scores.rows() && checked < 200; ++r) {
    for (int64_t k = scores.scores.RowBegin(r);
         k < scores.scores.RowEnd(r) && checked < 200; ++k) {
      const int32_t c = scores.scores.col_idx()[k];
      EXPECT_FLOAT_EQ(scores.by_set.At(c, r), scores.scores.values()[k]);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllRecommenders, RecommenderParamTest,
    ::testing::ValuesIn(kAllRecommenders), [](const auto& info) {
      std::string name = RecommenderTypeName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(PtTest, ExactlySeenEntities) {
  const Dataset d = HandDataset();
  const RecommenderScores scores =
      CreateRecommender(RecommenderType::kPt)->Fit(d).ValueOrDie();
  // Domain of livesIn (slot 0): entities 0 and 1 only.
  EXPECT_GT(scores.scores.At(0, 0), 0.0f);
  EXPECT_GT(scores.scores.At(1, 0), 0.0f);
  EXPECT_EQ(scores.scores.At(4, 0), 0.0f);  // PT is blind to unseen.
  // Range of livesIn (slot 2): cities 2, 3.
  EXPECT_GT(scores.scores.At(2, 2), 0.0f);
  EXPECT_EQ(scores.scores.At(0, 2), 0.0f);
}

TEST(DbhTest, ScoresAreCounts) {
  std::vector<Triple> train = {{0, 0, 1}, {0, 0, 2}, {3, 0, 1}};
  Dataset d("counts", 4, 1, std::move(train), {}, {}, TypeStore());
  const RecommenderScores scores =
      CreateRecommender(RecommenderType::kDbh)->Fit(d).ValueOrDie();
  EXPECT_FLOAT_EQ(scores.scores.At(0, 0), 2.0f);  // Head of r0 twice.
  EXPECT_FLOAT_EQ(scores.scores.At(3, 0), 1.0f);
  EXPECT_FLOAT_EQ(scores.scores.At(1, 1), 2.0f);  // Tail twice.
}

TEST(DbhTTest, PropagatesThroughTypes) {
  const Dataset d = HandDataset();
  const RecommenderScores scores =
      CreateRecommender(RecommenderType::kDbhT)->Fit(d).ValueOrDie();
  // Entity 4 (person, never seen in train) gets a domain score for livesIn
  // because other people were seen there.
  EXPECT_GT(scores.scores.At(4, 0), 0.0f);
  // Cities never score for the person-typed knows domain (slot 1).
  EXPECT_EQ(scores.scores.At(2, 1), 0.0f);
}

TEST(DbhTTest, RequiresTypes) {
  Dataset untyped("untyped", 4, 1, {{0, 0, 1}}, {}, {}, TypeStore());
  auto result = CreateRecommender(RecommenderType::kDbhT)->Fit(untyped);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(OntoSimTest, BinaryAndBroad) {
  const Dataset d = HandDataset();
  const RecommenderScores scores =
      CreateRecommender(RecommenderType::kOntoSim)->Fit(d).ValueOrDie();
  // All persons belong to the livesIn domain...
  for (int32_t person : {0, 1, 4}) {
    EXPECT_FLOAT_EQ(scores.scores.At(person, 0), 1.0f);
  }
  // ...and all scores are exactly 1 (binary membership).
  for (float v : scores.scores.values()) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(LwdTest, UnseenCandidateViaCooccurrence) {
  // Entity 4 shares no slots in this tiny graph, so L-WD keeps it at 0.
  // Entity 1 (seen as head of livesIn and both slots of knows) should get a
  // nonzero score for slots it was never observed in, via co-occurrence.
  const Dataset d = HandDataset();
  const RecommenderScores scores =
      CreateRecommender(RecommenderType::kLwd)->Fit(d).ValueOrDie();
  // Entity 0: seen as head of livesIn (slot 0) and head of knows (slot 1).
  // Entity 1: seen as head of livesIn and tail of knows (slot 3).
  // Co-occurrence links slot 1 and slot 0 (via entity 0), so entity 1
  // (in slot 0) also picks up weight for slot 1's domain.
  EXPECT_GT(scores.scores.At(1, 1), 0.0f);
  // A city never co-occurs with the person slots.
  EXPECT_EQ(scores.scores.At(2, 0), 0.0f);
}

TEST(LwdTest, ZeroForIsolatedEntities) {
  const Dataset d = HandDataset();
  const RecommenderScores scores =
      CreateRecommender(RecommenderType::kLwd)->Fit(d).ValueOrDie();
  // Entity 4 never occurs in train: its row must be structurally empty.
  EXPECT_EQ(scores.scores.RowBegin(4), scores.scores.RowEnd(4));
}

TEST(LwdTTest, TypesRecoverUnseenEntities) {
  const Dataset d = HandDataset();
  const RecommenderScores scores =
      CreateRecommender(RecommenderType::kLwdT)->Fit(d).ValueOrDie();
  // With type columns in B, entity 4 (typed person) co-occurs with the
  // person type slot and inherits domain scores.
  EXPECT_GT(scores.scores.At(4, 0), 0.0f);
}

TEST(LwdTest, ScoreOrderingFavoursObserved) {
  const Dataset d = SynthDataset();
  const RecommenderScores scores =
      CreateRecommender(RecommenderType::kLwd)->Fit(d).ValueOrDie();
  // Mean score of observed (entity, slot) pairs should exceed the mean of
  // stored-but-unobserved pairs.
  const int32_t num_r = d.num_relations();
  double observed_total = 0.0;
  int64_t observed_count = 0;
  for (const Triple& t : d.train()) {
    observed_total += scores.scores.At(t.head, t.relation);
    observed_total += scores.scores.At(t.tail, t.relation + num_r);
    observed_count += 2;
  }
  const double mean_all =
      std::accumulate(scores.scores.values().begin(),
                      scores.scores.values().end(), 0.0) /
      static_cast<double>(scores.scores.nnz());
  EXPECT_GT(observed_total / observed_count, mean_all);
}

TEST(PieTest, DeterministicGivenSeed) {
  const Dataset d = SynthDataset();
  const RecommenderScores a =
      CreateRecommender(RecommenderType::kPie, 5)->Fit(d).ValueOrDie();
  const RecommenderScores b =
      CreateRecommender(RecommenderType::kPie, 5)->Fit(d).ValueOrDie();
  ASSERT_EQ(a.scores.nnz(), b.scores.nnz());
  for (int64_t k = 0; k < a.scores.nnz(); ++k) {
    EXPECT_FLOAT_EQ(a.scores.values()[k], b.scores.values()[k]);
  }
}

TEST(PieTest, ScoresAreProbabilities) {
  const Dataset d = SynthDataset();
  const RecommenderScores scores =
      CreateRecommender(RecommenderType::kPie)->Fit(d).ValueOrDie();
  for (float v : scores.scores.values()) {
    EXPECT_GT(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(EasyNegativesTest, CountsZeroCells) {
  const Dataset d = HandDataset();
  const RecommenderScores scores =
      CreateRecommender(RecommenderType::kPt)->Fit(d).ValueOrDie();
  const EasyNegativeReport report = MineEasyNegatives(scores, d);
  EXPECT_EQ(report.total_cells, 5 * 4);
  EXPECT_EQ(report.easy_negatives, report.total_cells - scores.scores.nnz());
  EXPECT_NEAR(report.easy_fraction,
              static_cast<double>(report.easy_negatives) / 20.0, 1e-12);
}

TEST(EasyNegativesTest, DetectsFalseEasyNegative) {
  // Test triple (4, 0, 2): PT scores 0 for head 4 in the livesIn domain ->
  // one false easy negative on the head side.
  const Dataset d = HandDataset();
  const RecommenderScores scores =
      CreateRecommender(RecommenderType::kPt)->Fit(d).ValueOrDie();
  const EasyNegativeReport report = MineEasyNegatives(scores, d);
  EXPECT_EQ(report.false_easy, 1);
  ASSERT_EQ(report.examples.size(), 1u);
  EXPECT_EQ(report.examples[0].triple.head, 4);
  EXPECT_EQ(report.examples[0].direction, QueryDirection::kHead);
}

TEST(EasyNegativesTest, MaxExamplesCap) {
  const Dataset d = SynthDataset();
  const RecommenderScores scores =
      CreateRecommender(RecommenderType::kPt)->Fit(d).ValueOrDie();
  const EasyNegativeReport report = MineEasyNegatives(scores, d, 3);
  EXPECT_LE(report.examples.size(), 3u);
}

}  // namespace
}  // namespace kgeval

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>

#include "core/candidate_sets.h"
#include "recommenders/easy_negatives.h"
#include "recommenders/recommender.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "tests/gate_data.h"

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
  EXPECT_EQ(scores.by_set.rows(), 2 * dataset.num_relations());
  EXPECT_EQ(scores.by_set.cols(), dataset.num_entities());
  EXPECT_GT(scores.by_set.nnz(), 0);
  EXPECT_GE(scores.fit_seconds, 0.0);
  // All stored scores non-negative.
  for (float v : scores.by_set.values()) EXPECT_GE(v, 0.0f);
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
    if (scores.by_set.At(t.relation, t.head) <= 0.0f) ++misses;
    if (scores.by_set.At(t.relation + num_r, t.tail) <= 0.0f) ++misses;
  }
  EXPECT_EQ(misses, 0) << RecommenderTypeName(GetParam());
}

TEST_P(RecommenderParamTest, RowsAreSortedAndDistinct) {
  // At() binary-searches a row, so every slot's entity ids must ascend
  // strictly and stay in range.
  const Dataset dataset = SynthDataset();
  auto recommender = CreateRecommender(GetParam());
  const CsrMatrix x = recommender->Fit(dataset).ValueOrDie().by_set;
  for (int64_t slot = 0; slot < x.rows(); ++slot) {
    for (int64_t k = x.RowBegin(slot); k < x.RowEnd(slot); ++k) {
      ASSERT_GE(x.col_idx()[k], 0);
      ASSERT_LT(x.col_idx()[k], dataset.num_entities());
      if (k > x.RowBegin(slot)) {
        ASSERT_LT(x.col_idx()[k - 1], x.col_idx()[k]);
      }
    }
  }
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
  EXPECT_GT(scores.by_set.At(0, 0), 0.0f);
  EXPECT_GT(scores.by_set.At(0, 1), 0.0f);
  EXPECT_EQ(scores.by_set.At(0, 4), 0.0f);  // PT is blind to unseen.
  // Range of livesIn (slot 2): cities 2, 3.
  EXPECT_GT(scores.by_set.At(2, 2), 0.0f);
  EXPECT_EQ(scores.by_set.At(2, 0), 0.0f);
}

TEST(DbhTest, ScoresAreCounts) {
  std::vector<Triple> train = {{0, 0, 1}, {0, 0, 2}, {3, 0, 1}};
  Dataset d("counts", 4, 1, std::move(train), {}, {}, TypeStore());
  const RecommenderScores scores =
      CreateRecommender(RecommenderType::kDbh)->Fit(d).ValueOrDie();
  EXPECT_FLOAT_EQ(scores.by_set.At(0, 0), 2.0f);  // Head of r0 twice.
  EXPECT_FLOAT_EQ(scores.by_set.At(0, 3), 1.0f);
  EXPECT_FLOAT_EQ(scores.by_set.At(1, 1), 2.0f);  // Tail twice.
}

TEST(DbhTTest, PropagatesThroughTypes) {
  const Dataset d = HandDataset();
  const RecommenderScores scores =
      CreateRecommender(RecommenderType::kDbhT)->Fit(d).ValueOrDie();
  // Entity 4 (person, never seen in train) gets a domain score for livesIn
  // because other people were seen there.
  EXPECT_GT(scores.by_set.At(0, 4), 0.0f);
  // Cities never score for the person-typed knows domain (slot 1).
  EXPECT_EQ(scores.by_set.At(1, 2), 0.0f);
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
    EXPECT_FLOAT_EQ(scores.by_set.At(0, person), 1.0f);
  }
  // ...and all scores are exactly 1 (binary membership).
  for (float v : scores.by_set.values()) EXPECT_FLOAT_EQ(v, 1.0f);
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
  EXPECT_GT(scores.by_set.At(1, 1), 0.0f);
  // A city never co-occurs with the person slots.
  EXPECT_EQ(scores.by_set.At(0, 2), 0.0f);
}

TEST(LwdTest, ZeroForIsolatedEntities) {
  const Dataset d = HandDataset();
  const RecommenderScores scores =
      CreateRecommender(RecommenderType::kLwd)->Fit(d).ValueOrDie();
  // Entity 4 never occurs in train: no slot may store it.
  const CsrMatrix& x = scores.by_set;
  EXPECT_EQ(std::count(x.col_idx().begin(), x.col_idx().end(), 4), 0);
}

TEST(LwdTTest, TypesRecoverUnseenEntities) {
  const Dataset d = HandDataset();
  const RecommenderScores scores =
      CreateRecommender(RecommenderType::kLwdT)->Fit(d).ValueOrDie();
  // With type columns in B, entity 4 (typed person) co-occurs with the
  // person type slot and inherits domain scores.
  EXPECT_GT(scores.by_set.At(0, 4), 0.0f);
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
    observed_total += scores.by_set.At(t.relation, t.head);
    observed_total += scores.by_set.At(t.relation + num_r, t.tail);
    observed_count += 2;
  }
  const double mean_all =
      std::accumulate(scores.by_set.values().begin(),
                      scores.by_set.values().end(), 0.0) /
      static_cast<double>(scores.by_set.nnz());
  EXPECT_GT(observed_total / observed_count, mean_all);
}

TEST(PieTest, DeterministicGivenSeed) {
  const Dataset d = SynthDataset();
  const RecommenderScores a =
      CreateRecommender(RecommenderType::kPie, 5)->Fit(d).ValueOrDie();
  const RecommenderScores b =
      CreateRecommender(RecommenderType::kPie, 5)->Fit(d).ValueOrDie();
  ASSERT_EQ(a.by_set.nnz(), b.by_set.nnz());
  for (int64_t k = 0; k < a.by_set.nnz(); ++k) {
    EXPECT_FLOAT_EQ(a.by_set.values()[k], b.by_set.values()[k]);
  }
}

TEST(PieTest, ScoresAreProbabilities) {
  const Dataset d = SynthDataset();
  const RecommenderScores scores =
      CreateRecommender(RecommenderType::kPie)->Fit(d).ValueOrDie();
  for (float v : scores.by_set.values()) {
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
  EXPECT_EQ(report.easy_negatives, report.total_cells - scores.by_set.nnz());
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

uint32_t FloatBits(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// FNV-1a over little-endian 64-bit words: sizes, ids and float bits.
class Fnv1a {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void AddFloat(float value) { Add(FloatBits(value)); }
  void AddInts(const std::vector<int32_t>& values) {
    Add(values.size());
    for (int32_t v : values) Add(static_cast<uint32_t>(v));
  }
  void AddFloats(const std::vector<float>& values) {
    Add(values.size());
    for (float v : values) AddFloat(v);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

uint64_t ScoresDigest(const CsrMatrix& m) {
  Fnv1a fnv;
  fnv.Add(static_cast<uint64_t>(m.rows()));
  fnv.Add(static_cast<uint64_t>(m.cols()));
  for (int64_t r = 0; r < m.rows(); ++r) {
    fnv.Add(static_cast<uint64_t>(m.RowBegin(r)));
  }
  fnv.Add(static_cast<uint64_t>(m.nnz()));
  fnv.AddInts(m.col_idx());
  fnv.AddFloats(m.values());
  return fnv.value();
}

/// Hashes the sets slot by slot in the byte stream the golden digests
/// pin: each row's size and ids, then (Probabilistic sets only) each row's
/// size and weight bits, then the thresholds.
uint64_t SetsDigest(const CandidateSets& sets, bool weighted) {
  const CsrMatrix& m = sets.members;
  Fnv1a fnv;
  fnv.Add(static_cast<uint64_t>(sets.num_entities()));
  fnv.Add(static_cast<uint64_t>(m.rows()));
  for (int64_t slot = 0; slot < m.rows(); ++slot) {
    fnv.Add(static_cast<uint64_t>(m.RowEnd(slot) - m.RowBegin(slot)));
    for (int64_t k = m.RowBegin(slot); k < m.RowEnd(slot); ++k) {
      fnv.Add(static_cast<uint32_t>(m.col_idx()[k]));
    }
  }
  fnv.Add(weighted ? static_cast<uint64_t>(m.rows()) : 0);
  for (int64_t slot = 0; weighted && slot < m.rows(); ++slot) {
    fnv.Add(static_cast<uint64_t>(m.RowEnd(slot) - m.RowBegin(slot)));
    for (int64_t k = m.RowBegin(slot); k < m.RowEnd(slot); ++k) {
      fnv.AddFloat(m.values()[k]);
    }
  }
  fnv.AddFloats(sets.thresholds);
  return fnv.value();
}

struct RecommenderDigests {
  uint64_t by_set;
  uint64_t static_sets;
  uint64_t probabilistic_sets;
};

// FNV-1a digests on scaled codex-s, in kAllRecommenders order: the
// set-major score matrix (shape, row offsets, column ids, value bits), the
// Static sets with their threshold bits and the Probabilistic sets with
// their weight bits. Every recommender, candidate set, weight and threshold
// is part of the determinism contract, so a change to how the score matrix
// or the sets are built has to keep these bytes.
constexpr RecommenderDigests kGoldenDigests[] = {
    {0x9548CC155649D9B6ULL, 0xEAED4CE61FF7291EULL,
     0xD58906E258E8A068ULL},  // PT
    {0xF56F2FBBD61995D7ULL, 0xD0D33F632F846E8FULL,
     0x516E58E2C0D7AA05ULL},  // DBH
    {0xD3A3FF0D3756E0F9ULL, 0xD03814D252846108ULL,
     0x118EBB2407A5F794ULL},  // DBH-T
    {0x727C982ACF7B185FULL, 0x980C9C36C733183CULL,
     0xD780BC28130A5C72ULL},  // OntoSim
    {0x9195B248675C1ECAULL, 0xA7D36F6DB71B4BE3ULL,
     0x019928F194368ACCULL},  // L-WD
    {0x6AA97124EE00714EULL, 0x0F6C80ECFD6108B3ULL,
     0x72EB0AA2055453ADULL},  // L-WD-T
    {0x6A292E188A0E2561ULL, 0x52F3F49F487DCE13ULL,
     0x5F0E22A5FBAA8E2EULL},  // PIE
};
static_assert(std::size(kGoldenDigests) == std::size(kAllRecommenders),
              "one golden digest triple per recommender");

TEST_P(RecommenderParamTest, GoldenDigests) {
  const Dataset d = CodexS();
  const RecommenderScores scores =
      CreateRecommender(GetParam())->Fit(d).ValueOrDie();
  const size_t index =
      std::find(std::begin(kAllRecommenders), std::end(kAllRecommenders),
                GetParam()) -
      std::begin(kAllRecommenders);
  const RecommenderDigests& golden = kGoldenDigests[index];
  const uint64_t by_set = ScoresDigest(scores.by_set);
  const uint64_t static_sets =
      SetsDigest(BuildStaticSets(scores, d), /*weighted=*/false);
  const uint64_t probabilistic_sets =
      SetsDigest(BuildProbabilisticSets(scores, d), /*weighted=*/true);
  EXPECT_EQ(by_set, golden.by_set) << std::hex << std::uppercase
                                   << "by_set 0x" << by_set;
  EXPECT_EQ(static_sets, golden.static_sets)
      << std::hex << std::uppercase << "static 0x" << static_sets;
  EXPECT_EQ(probabilistic_sets, golden.probabilistic_sets)
      << std::hex << std::uppercase << "probabilistic 0x"
      << probabilistic_sets;
}

// The contract BuildProbabilisticSets relies on (see
// RelationRecommender::Fit): every stored score is positive and every
// train-seen (slot, entity) is stored, so the Probabilistic sets are the
// score rows themselves, ids and weight bits.
TEST_P(RecommenderParamTest, ScoresEveryTrainSeenEntityPositively) {
  const Dataset d = CodexS();
  const RecommenderScores scores =
      CreateRecommender(GetParam())->Fit(d).ValueOrDie();
  const CsrMatrix& x = scores.by_set;
  for (float v : x.values()) ASSERT_GT(v, 0.0f);
  const CsrMatrix seen = ObservedSlots(d, {Split::kTrain});
  ASSERT_EQ(seen.rows(), x.rows());
  for (int64_t slot = 0; slot < seen.rows(); ++slot) {
    const auto row_begin = x.col_idx().begin() + x.RowBegin(slot);
    const auto row_end = x.col_idx().begin() + x.RowEnd(slot);
    for (int64_t k = seen.RowBegin(slot); k < seen.RowEnd(slot); ++k) {
      ASSERT_TRUE(std::binary_search(row_begin, row_end, seen.col_idx()[k]))
          << "slot " << slot << " entity " << seen.col_idx()[k];
    }
  }
  const CandidateSets sets = BuildProbabilisticSets(scores, d);
  const CsrMatrix& members = sets.members;
  ASSERT_EQ(members.rows(), x.rows());
  for (int64_t slot = 0; slot < x.rows(); ++slot) {
    ASSERT_EQ(members.RowBegin(slot), x.RowBegin(slot)) << "slot " << slot;
  }
  ASSERT_EQ(members.col_idx(), x.col_idx());
  for (int64_t k = 0; k < x.nnz(); ++k) {
    ASSERT_EQ(FloatBits(members.values()[k]), FloatBits(x.values()[k]))
        << "entry " << k;
  }
}

}  // namespace
}  // namespace kgeval

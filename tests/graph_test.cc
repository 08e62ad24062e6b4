#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "eval/protocol.h"
#include "graph/dataset.h"
#include "graph/stats.h"
#include "graph/triple.h"
#include "graph/type_store.h"
#include "synth/config.h"
#include "synth/generator.h"

namespace kgeval {
namespace {

Dataset TinyDataset() {
  // 6 entities, 2 relations. Train establishes structure; valid/test reuse
  // entities.
  std::vector<Triple> train = {
      {0, 0, 1}, {0, 0, 2}, {3, 0, 1}, {4, 1, 5}, {3, 1, 5}, {1, 1, 2},
  };
  std::vector<Triple> valid = {{0, 0, 3}};
  std::vector<Triple> test = {{4, 1, 2}, {0, 1, 5}};
  TypeStore types(6, 2);
  types.Assign(0, 0);
  types.Assign(1, 0);
  types.Assign(2, 1);
  types.Assign(3, 0);
  types.Assign(4, 1);
  types.Assign(5, 1);
  types.Seal();
  return Dataset("tiny", 6, 2, std::move(train), std::move(valid),
                 std::move(test), std::move(types));
}

TEST(TripleTest, Equality) {
  Triple a{1, 2, 3}, b{1, 2, 3}, c{1, 2, 4};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(TripleTest, HashDistinguishes) {
  TripleHash hash;
  EXPECT_NE(hash({1, 2, 3}), hash({3, 2, 1}));
  EXPECT_EQ(hash({1, 2, 3}), hash({1, 2, 3}));
}

TEST(TripleTest, PackPairUnique) {
  EXPECT_NE(PackPair(1, 2), PackPair(2, 1));
  EXPECT_NE(PackPair(0, 5), PackPair(5, 0));
  EXPECT_EQ(PackPair(7, 9), PackPair(7, 9));
}

TEST(TripleTest, DomainRangeIndexLayout) {
  // Head queries sample the domain column, tail queries the range column.
  EXPECT_EQ(DomainRangeIndex(3, QueryDirection::kHead, 10), 3);
  EXPECT_EQ(DomainRangeIndex(3, QueryDirection::kTail, 10), 13);
}

TEST(TypeStoreTest, AssignAndQuery) {
  TypeStore types(4, 3);
  types.Assign(0, 2);
  types.Assign(0, 1);
  types.Assign(3, 2);
  types.Seal();
  // Seal sorts each entity's types.
  EXPECT_EQ(types.TypesOf(0), (std::vector<int32_t>{1, 2}));
  EXPECT_EQ(types.EntitiesOf(2), (std::vector<int32_t>{0, 3}));
  EXPECT_EQ(types.num_assignments(), 3);
}

TEST(TypeStoreTest, AssignIsIdempotent) {
  TypeStore types(2, 2);
  types.Assign(1, 0);
  types.Assign(1, 0);
  types.Seal();
  EXPECT_EQ(types.num_assignments(), 1);
  EXPECT_EQ(types.EntitiesOf(0).size(), 1u);
}

TEST(TypeStoreTest, EmptyStore) {
  TypeStore types;
  EXPECT_TRUE(types.empty());
}

TEST(DatasetTest, SplitsAccessible) {
  Dataset d = TinyDataset();
  EXPECT_EQ(d.train().size(), 6u);
  EXPECT_EQ(d.valid().size(), 1u);
  EXPECT_EQ(d.test().size(), 2u);
  EXPECT_EQ(d.split(Split::kTest).size(), 2u);
  EXPECT_TRUE(d.has_types());
}

TEST(DatasetTest, DefaultLabels) {
  Dataset d = TinyDataset();
  EXPECT_EQ(d.EntityLabel(3), "E3");
  EXPECT_EQ(d.RelationLabel(1), "R1");
  d.set_entity_labels({"a", "b", "c", "d", "e", "f"});
  EXPECT_EQ(d.EntityLabel(3), "d");
}

TEST(FilterIndexTest, CollectsAllSplits) {
  Dataset d = TinyDataset();
  FilterIndex filter(d);
  // Tails of (0, 0): train has 1 and 2, valid adds 3.
  const auto* tails = filter.TailsFor(0, 0);
  ASSERT_NE(tails, nullptr);
  EXPECT_EQ(*tails, (std::vector<int32_t>{1, 2, 3}));
}

TEST(FilterIndexTest, HeadsForCollectsAcrossSplits) {
  Dataset d = TinyDataset();
  FilterIndex filter(d);
  // Heads of (1, 5): train {4, 3}, test adds 0.
  const auto* heads = filter.HeadsFor(1, 5);
  ASSERT_NE(heads, nullptr);
  EXPECT_EQ(*heads, (std::vector<int32_t>{0, 3, 4}));
}

TEST(FilterIndexTest, MissingPairGivesNull) {
  Dataset d = TinyDataset();
  FilterIndex filter(d);
  EXPECT_EQ(filter.TailsFor(5, 0), nullptr);
}

TEST(FilterIndexTest, AnswersMatchesDirection) {
  Dataset d = TinyDataset();
  FilterIndex filter(d);
  const Triple t{0, 0, 1};
  EXPECT_EQ(filter.Answers(t, QueryDirection::kTail),
            filter.TailsFor(0, 0));
  EXPECT_EQ(filter.Answers(t, QueryDirection::kHead),
            filter.HeadsFor(0, 1));
}

TEST(FilterIndexTest, MoveKeepsAnswers) {
  // Callers keep one index per dataset by value in a vector, which moves
  // them; the answer sets move along.
  Dataset d = TinyDataset();
  FilterIndex original(d);
  const FilterIndex moved(std::move(original));
  const auto* tails = moved.TailsFor(0, 0);
  ASSERT_NE(tails, nullptr);
  EXPECT_EQ(*tails, (std::vector<int32_t>{1, 2, 3}));
}

using Entries = std::vector<std::pair<int32_t, float>>;

/// Row `slot` of an ObservedSlots matrix as (entity, count) pairs.
Entries SlotEntries(const CsrMatrix& m, int64_t slot) {
  Entries out;
  for (int64_t k = m.RowBegin(slot); k < m.RowEnd(slot); ++k) {
    out.emplace_back(m.col_idx()[k], m.values()[k]);
  }
  return out;
}

TEST(ObservedSlotsTest, TrainOnly) {
  Dataset d = TinyDataset();
  const CsrMatrix seen = ObservedSlots(d, {Split::kTrain});
  // Domains occupy rows [0, |R|), ranges [|R|, 2|R|); |R| = 2.
  ASSERT_EQ(seen.rows(), 4);
  EXPECT_EQ(seen.cols(), 6);
  EXPECT_EQ(SlotEntries(seen, 0), (Entries{{0, 2.0f}, {3, 1.0f}}));
  EXPECT_EQ(SlotEntries(seen, 1),
            (Entries{{1, 1.0f}, {3, 1.0f}, {4, 1.0f}}));
  EXPECT_EQ(SlotEntries(seen, 2), (Entries{{1, 2.0f}, {2, 1.0f}}));
  EXPECT_EQ(SlotEntries(seen, 3), (Entries{{2, 1.0f}, {5, 2.0f}}));
  EXPECT_EQ(seen.nnz(), 9);
}

TEST(ObservedSlotsTest, IncludesValidWhenRequested) {
  Dataset d = TinyDataset();
  const CsrMatrix seen = ObservedSlots(d, {Split::kTrain, Split::kValid});
  EXPECT_EQ(SlotEntries(seen, DomainRangeIndex(0, QueryDirection::kTail, 2)),
            (Entries{{1, 2.0f}, {2, 1.0f}, {3, 1.0f}}));
  EXPECT_EQ(SlotEntries(seen, 0), (Entries{{0, 3.0f}, {3, 1.0f}}));
}

TEST(ObservedSlotsTest, MatchesAReferenceCountOnGeneratedData) {
  SynthConfig config;
  config.num_entities = 300;
  config.num_relations = 9;
  config.num_types = 6;
  config.num_train = 4000;
  config.num_valid = 300;
  config.num_test = 300;
  config.seed = 5;
  const Dataset d = GenerateDataset(config).ValueOrDie().dataset;
  const CsrMatrix seen = ObservedSlots(d, {Split::kTrain, Split::kTest});
  std::map<std::pair<int64_t, int32_t>, float> reference;
  for (Split s : {Split::kTrain, Split::kTest}) {
    for (const Triple& t : d.split(s)) {
      reference[{t.relation, t.head}] += 1.0f;
      reference[{t.relation + d.num_relations(), t.tail}] += 1.0f;
    }
  }
  ASSERT_EQ(seen.rows(), 2 * d.num_relations());
  ASSERT_EQ(seen.nnz(), static_cast<int64_t>(reference.size()));
  auto it = reference.begin();
  for (int64_t slot = 0; slot < seen.rows(); ++slot) {
    for (const auto& [entity, count] : SlotEntries(seen, slot)) {
      EXPECT_EQ(it->first, std::make_pair(slot, entity));
      EXPECT_EQ(it->second, count);
      ++it;
    }
  }
}

TEST(DatasetStatsTest, CountsMatchTiny) {
  Dataset d = TinyDataset();
  DatasetStats stats = ComputeDatasetStats(d);
  EXPECT_EQ(stats.num_entities, 6);
  EXPECT_EQ(stats.num_relations, 2);
  EXPECT_EQ(stats.num_types, 2);
  EXPECT_EQ(stats.train_triples, 6);
  EXPECT_EQ(stats.test_triples, 2);
  // Test pairs: (4,1),(0,1) heads; (1,2),(1,5) tails -> 2 + 2 = 4.
  EXPECT_EQ(stats.test_hr_rt_pairs, 4);
  EXPECT_EQ(stats.test_relations, 1);
}

TEST(SamplingComplexityTest, RelationalRecommenderIsCheaper) {
  Dataset d = TinyDataset();
  SamplingComplexity sc = ComputeSamplingComplexity(d, 0.5);
  // Query-based: 4 pairs * 0.5 * 6 = 12 samples; relational: 2 * 1 * 3 = 6.
  EXPECT_EQ(sc.query_samples, 12);
  EXPECT_EQ(sc.relation_samples, 6);
  EXPECT_DOUBLE_EQ(sc.reduction_factor, 2.0);
}

}  // namespace
}  // namespace kgeval

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "eval/protocol.h"
#include "graph/dataset.h"
#include "graph/stats.h"
#include "graph/triple.h"
#include "graph/type_store.h"

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

TEST(FilterIndexTest, MoveKeepsAnswersAndRelationCount) {
  // Callers keep one index per dataset by value in a vector, which moves
  // them; the answer sets and the relation count move along (a schedule
  // holds one run per relation and direction).
  Dataset d = TinyDataset();
  FilterIndex original(d);
  const FilterIndex moved(std::move(original));
  EXPECT_EQ(moved.BuildSchedule(d.test(), 0, 1).runs.size(),
            2 * static_cast<size_t>(d.num_relations()));
  const auto* tails = moved.TailsFor(0, 0);
  ASSERT_NE(tails, nullptr);
  EXPECT_EQ(*tails, (std::vector<int32_t>{1, 2, 3}));
}

TEST(ObservedSetsTest, TrainOnly) {
  Dataset d = TinyDataset();
  ObservedSets seen(d, {Split::kTrain});
  // Domains occupy indexes [0, |R|), ranges [|R|, 2|R|); |R| = 2.
  EXPECT_EQ(seen.Set(0), (std::vector<int32_t>{0, 3}));
  EXPECT_EQ(seen.Set(1), (std::vector<int32_t>{1, 3, 4}));
  EXPECT_EQ(seen.Set(2), (std::vector<int32_t>{1, 2}));
  EXPECT_EQ(seen.Set(3), (std::vector<int32_t>{2, 5}));
  EXPECT_TRUE(seen.InDomain(0, 0));
  EXPECT_FALSE(seen.InDomain(0, 4));
  EXPECT_TRUE(seen.InRange(1, 5));
}

TEST(ObservedSetsTest, IncludesValidWhenRequested) {
  Dataset d = TinyDataset();
  ObservedSets seen(d, {Split::kTrain, Split::kValid});
  EXPECT_EQ(seen.Set(DomainRangeIndex(0, QueryDirection::kTail, 2)),
            (std::vector<int32_t>{1, 2, 3}));
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

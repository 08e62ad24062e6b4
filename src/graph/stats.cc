#include "graph/stats.h"

#include <cmath>
#include <unordered_set>

namespace kgeval {
namespace {

int64_t CountDistinctPairs(const std::vector<Triple>& triples) {
  std::unordered_set<uint64_t, PairHash> hr, rt;
  hr.reserve(triples.size() * 2);
  rt.reserve(triples.size() * 2);
  for (const Triple& t : triples) {
    hr.insert(PackPair(t.head, t.relation));
    rt.insert(PackPair(t.relation, t.tail));
  }
  return static_cast<int64_t>(hr.size()) + static_cast<int64_t>(rt.size());
}

int64_t CountDistinctRelations(const std::vector<Triple>& triples) {
  std::unordered_set<int32_t> rels;
  for (const Triple& t : triples) rels.insert(t.relation);
  return static_cast<int64_t>(rels.size());
}

}  // namespace

DatasetStats ComputeDatasetStats(const Dataset& dataset) {
  DatasetStats stats;
  stats.num_entities = dataset.num_entities();
  stats.num_relations = dataset.num_relations();
  stats.num_types = dataset.types().num_types();
  stats.num_type_assignments = dataset.types().num_assignments();
  stats.train_triples = static_cast<int64_t>(dataset.train().size());
  stats.valid_triples = static_cast<int64_t>(dataset.valid().size());
  stats.test_triples = static_cast<int64_t>(dataset.test().size());
  stats.train_hr_rt_pairs = CountDistinctPairs(dataset.train());
  stats.test_hr_rt_pairs = CountDistinctPairs(dataset.test());
  stats.test_relations = CountDistinctRelations(dataset.test());
  return stats;
}

SamplingComplexity ComputeSamplingComplexity(const Dataset& dataset,
                                             double fraction) {
  SamplingComplexity sc;
  const DatasetStats stats = ComputeDatasetStats(dataset);
  const double per_sampling =
      fraction * static_cast<double>(stats.num_entities);
  sc.query_pairs = stats.test_hr_rt_pairs;
  sc.query_samples = static_cast<int64_t>(
      std::llround(static_cast<double>(sc.query_pairs) * per_sampling));
  sc.relation_instances = stats.test_relations;
  // One head-set and one tail-set sampling per relation in the test split.
  sc.relation_samples = static_cast<int64_t>(
      std::llround(2.0 * static_cast<double>(sc.relation_instances) *
                   per_sampling));
  sc.reduction_factor =
      sc.relation_samples > 0
          ? static_cast<double>(sc.query_samples) /
                static_cast<double>(sc.relation_samples)
          : 0.0;
  return sc;
}

}  // namespace kgeval

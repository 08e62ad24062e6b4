#include "graph/stats.h"

#include <cmath>

namespace kgeval {

DatasetStats ComputeDatasetStats(const Dataset& dataset) {
  DatasetStats stats;
  stats.num_entities = dataset.num_entities();
  stats.num_relations = dataset.num_relations();
  stats.num_types = dataset.types().num_types();
  stats.num_type_assignments = dataset.types().num_assignments();
  stats.train_triples = static_cast<int64_t>(dataset.train().size());
  stats.valid_triples = static_cast<int64_t>(dataset.valid().size());
  stats.test_triples = static_cast<int64_t>(dataset.test().size());
  // A slot's row lists its distinct entities, so nnz() counts the distinct
  // (h,r) pairs (domain rows) plus the distinct (r,t) pairs (range rows).
  stats.train_hr_rt_pairs = ObservedSlots(dataset, {Split::kTrain}).nnz();
  const CsrMatrix test = ObservedSlots(dataset, {Split::kTest});
  stats.test_hr_rt_pairs = test.nnz();
  for (int32_t r = 0; r < dataset.num_relations(); ++r) {
    if (test.RowBegin(r) < test.RowEnd(r)) ++stats.test_relations;
  }
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

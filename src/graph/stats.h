#ifndef KGEVAL_GRAPH_STATS_H_
#define KGEVAL_GRAPH_STATS_H_

#include <cstdint>

#include "graph/dataset.h"

namespace kgeval {

/// The descriptive statistics reported in Table 4 plus the quantities the
/// sampling-complexity analysis of Table 3 needs.
struct DatasetStats {
  int64_t num_entities = 0;
  int64_t num_relations = 0;
  int64_t num_types = 0;
  int64_t num_type_assignments = 0;
  int64_t train_triples = 0;
  int64_t valid_triples = 0;
  int64_t test_triples = 0;
  /// Distinct (h,r) plus distinct (r,t) pairs in the split.
  int64_t train_hr_rt_pairs = 0;
  int64_t test_hr_rt_pairs = 0;
  /// Distinct relations occurring in the test split (Table 3's
  /// "(.,r,.)-instances").
  int64_t test_relations = 0;
};

/// Computes all statistics; the pair and relation counts read ObservedSlots.
DatasetStats ComputeDatasetStats(const Dataset& dataset);

/// Table 3 arithmetic: total negative samples needed during a test-set
/// evaluation at sampling fraction `fraction`.
///
/// A query-dependent candidate generator samples once per distinct (h,r) and
/// (r,t) pair; a relational recommender samples once per relation per
/// direction.
struct SamplingComplexity {
  int64_t query_pairs = 0;          // distinct (h,r)+(r,t) pairs in test
  int64_t query_samples = 0;        // pairs * fraction * |E|
  int64_t relation_instances = 0;   // distinct relations in test
  int64_t relation_samples = 0;     // 2 * relations * fraction * |E|
  double reduction_factor = 0.0;    // query_samples / relation_samples
};

SamplingComplexity ComputeSamplingComplexity(const Dataset& dataset,
                                             double fraction);

}  // namespace kgeval

#endif  // KGEVAL_GRAPH_STATS_H_

#include "recommenders/easy_negatives.h"

namespace kgeval {

EasyNegativeReport MineEasyNegatives(const RecommenderScores& scores,
                                     const Dataset& dataset,
                                     int64_t max_examples) {
  EasyNegativeReport report;
  const CsrMatrix& x = scores.by_set;
  report.total_cells = x.rows() * x.cols();
  // Structurally absent cells score exactly 0; stored zeros (possible in
  // principle) are counted too.
  int64_t stored_zeros = 0;
  for (float v : x.values()) {
    if (v == 0.0f) ++stored_zeros;
  }
  report.easy_negatives = report.total_cells - x.nnz() + stored_zeros;
  report.easy_fraction =
      report.total_cells > 0
          ? static_cast<double>(report.easy_negatives) /
                static_cast<double>(report.total_cells)
          : 0.0;

  const int32_t num_r = dataset.num_relations();
  for (const Triple& t : dataset.test()) {
    // Head in the relation's domain row; tail in its range row.
    for (QueryDirection dir : {QueryDirection::kHead, QueryDirection::kTail}) {
      const int32_t entity = dir == QueryDirection::kHead ? t.head : t.tail;
      if (x.At(DomainRangeIndex(t.relation, dir, num_r), entity) != 0.0f) {
        continue;
      }
      ++report.false_easy;
      if (max_examples == 0 ||
          static_cast<int64_t>(report.examples.size()) < max_examples) {
        report.examples.push_back({t, dir});
      }
    }
  }
  return report;
}

}  // namespace kgeval

#include "core/candidate_sets.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/logging.h"

namespace kgeval {
namespace {

/// Quantile thresholds tried per column by BuildStaticSets.
constexpr int32_t kStaticThresholdGrid = 24;

}  // namespace

double CandidateSets::MacroReductionRate() const {
  if (num_slots() == 0 || num_entities() == 0) return 0.0;
  double acc = 0.0;
  for (int64_t slot = 0; slot < members.rows(); ++slot) {
    acc += 1.0 - static_cast<double>(members.RowEnd(slot) -
                                     members.RowBegin(slot)) /
                     static_cast<double>(num_entities());
  }
  return acc / static_cast<double>(num_slots());
}

CandidateSets BuildStaticSets(const RecommenderScores& scores,
                              const Dataset& dataset) {
  const int32_t num_r = dataset.num_relations();
  const int32_t num_slots = 2 * num_r;
  const int32_t num_e = dataset.num_entities();
  const CsrMatrix& by_set = scores.by_set;
  KGEVAL_CHECK_EQ(by_set.rows(), num_slots);

  const CsrMatrix seen = ObservedSlots(dataset, {Split::kTrain});
  const CsrMatrix valid = ObservedSlots(dataset, {Split::kValid});

  CandidateSets out;
  out.thresholds.assign(num_slots, 0.0f);
  std::vector<int64_t> row_ptr = {0};
  row_ptr.reserve(static_cast<size_t>(num_slots) + 1);
  std::vector<int32_t> ids;

  for (int32_t slot = 0; slot < num_slots; ++slot) {
    const int64_t begin = by_set.RowBegin(slot);
    const int64_t end = by_set.RowEnd(slot);
    const int64_t nnz = end - begin;
    // Collect the column's (score, entity) entries sorted by score desc.
    std::vector<std::pair<float, int32_t>> entries;
    entries.reserve(nnz);
    for (int64_t k = begin; k < end; ++k) {
      if (by_set.values()[k] > 0.0f) {
        entries.emplace_back(by_set.values()[k], by_set.col_idx()[k]);
      }
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });

    const int32_t* seen_begin = seen.col_idx().data() + seen.RowBegin(slot);
    const int32_t* seen_end = seen.col_idx().data() + seen.RowEnd(slot);

    // Candidate thresholds: a quantile grid over the distinct scores.
    std::vector<float> grid;
    if (!entries.empty()) {
      for (int32_t g = 0; g < kStaticThresholdGrid; ++g) {
        const size_t idx = static_cast<size_t>(
            (static_cast<double>(g) / kStaticThresholdGrid) *
            (entries.size() - 1));
        grid.push_back(entries[idx].first);
      }
      grid.push_back(entries.back().first);  // Keep-everything threshold.
      std::sort(grid.begin(), grid.end(), std::greater<float>());
      grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
    } else {
      grid.push_back(0.0f);
    }

    // Precompute how many seen entities sit at each score level so the
    // union size |{score >= tau} ∪ seen| is O(1) per threshold.
    std::vector<float> seen_scores;
    seen_scores.reserve(static_cast<size_t>(seen_end - seen_begin));
    for (const int32_t* e = seen_begin; e != seen_end; ++e) {
      seen_scores.push_back(by_set.At(slot, *e));
    }
    std::sort(seen_scores.begin(), seen_scores.end(),
              std::greater<float>());
    std::vector<float> valid_scores;
    std::vector<bool> valid_seen;
    for (int64_t k = valid.RowBegin(slot); k < valid.RowEnd(slot); ++k) {
      const int32_t e = valid.col_idx()[k];
      valid_scores.push_back(by_set.At(slot, e));
      valid_seen.push_back(std::binary_search(seen_begin, seen_end, e));
    }

    float best_tau = entries.empty() ? 0.0f : entries.back().first;
    double best_dist = std::numeric_limits<double>::infinity();
    for (float tau : grid) {
      // |{score >= tau}| via the sorted entries.
      const auto geq = static_cast<int64_t>(
          std::lower_bound(entries.begin(), entries.end(), tau,
                           [](const auto& entry, float value) {
                             return entry.first >= value;
                           }) -
          entries.begin());
      // Seen entities strictly below the threshold get added back (the
      // ones at or above it are already counted in `geq`).
      const auto seen_below = static_cast<int64_t>(
          seen_scores.end() -
          std::upper_bound(seen_scores.begin(), seen_scores.end(), tau,
                           std::greater<float>()));
      const int64_t set_size = geq + seen_below;
      double covered = 0.0;
      for (size_t i = 0; i < valid_scores.size(); ++i) {
        if (valid_seen[i] || valid_scores[i] >= tau) covered += 1.0;
      }
      const double cr = valid_scores.empty()
                            ? 1.0
                            : covered / static_cast<double>(
                                            valid_scores.size());
      const double rr =
          1.0 - static_cast<double>(set_size) / static_cast<double>(num_e);
      const double dist = (1.0 - cr) * (1.0 - cr) + (1.0 - rr) * (1.0 - rr);
      if (dist < best_dist) {
        best_dist = dist;
        best_tau = tau;
      }
    }

    std::vector<int32_t> members;
    for (const auto& [score, entity] : entries) {
      if (score >= best_tau) members.push_back(entity);
    }
    std::sort(members.begin(), members.end());
    std::set_union(members.begin(), members.end(), seen_begin, seen_end,
                   std::back_inserter(ids));
    row_ptr.push_back(static_cast<int64_t>(ids.size()));
    out.thresholds[slot] = best_tau;
  }
  std::vector<float> ones(ids.size(), 1.0f);
  out.members = CsrMatrix(num_slots, num_e, std::move(row_ptr), std::move(ids),
                          std::move(ones));
  return out;
}

CandidateSets BuildProbabilisticSets(RecommenderScores scores,
                                     const Dataset& dataset,
                                     bool /*include_seen*/) {
  const CsrMatrix& by_set = scores.by_set;
  KGEVAL_CHECK_EQ(by_set.rows(), 2 * dataset.num_relations());
  KGEVAL_CHECK_EQ(by_set.cols(), dataset.num_entities());
  for (float v : by_set.values()) {
    KGEVAL_CHECK(v > 0.0f) << "recommender stored a score of " << v;
  }
  CandidateSets out;
  out.members = std::move(scores.by_set);
  return out;
}

SetQuality EvaluateSetQuality(const CandidateSets& sets,
                              const Dataset& dataset) {
  const CsrMatrix seen =
      ObservedSlots(dataset, {Split::kTrain, Split::kValid});
  const CsrMatrix test = ObservedSlots(dataset, {Split::kTest});

  KGEVAL_CHECK_EQ(sets.num_slots(), test.rows());
  const std::vector<int32_t>& members = sets.members.col_idx();

  SetQuality q;
  double rr_acc = 0.0;
  // Every distinct test (slot, entity) pair once, slot by slot.
  for (int32_t slot = 0; slot < test.rows(); ++slot) {
    const auto set_begin = members.begin() + sets.members.RowBegin(slot);
    const auto set_end = members.begin() + sets.members.RowEnd(slot);
    const double rr = 1.0 - static_cast<double>(set_end - set_begin) /
                                static_cast<double>(sets.num_entities());
    const auto seen_begin = seen.col_idx().begin() + seen.RowBegin(slot);
    const auto seen_end = seen.col_idx().begin() + seen.RowEnd(slot);
    for (int64_t k = test.RowBegin(slot); k < test.RowEnd(slot); ++k) {
      const int32_t entity = test.col_idx()[k];
      const bool covered = std::binary_search(set_begin, set_end, entity);
      ++q.total_pairs;
      if (covered) ++q.covered_pairs;
      if (!std::binary_search(seen_begin, seen_end, entity)) {
        ++q.total_unseen;
        if (covered) ++q.covered_unseen;
      }
      rr_acc += rr;
    }
  }
  q.cr_test = q.total_pairs > 0 ? static_cast<double>(q.covered_pairs) /
                                      static_cast<double>(q.total_pairs)
                                : 0.0;
  q.cr_unseen = q.total_unseen > 0
                    ? static_cast<double>(q.covered_unseen) /
                          static_cast<double>(q.total_unseen)
                    : 0.0;
  q.rr = q.total_pairs > 0 ? rr_acc / static_cast<double>(q.total_pairs)
                           : 0.0;
  return q;
}

}  // namespace kgeval

#include "core/candidate_sets.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sched/task_group.h"
#include "util/logging.h"

namespace kgeval {
namespace {

/// The sorted entity ids of one row of an ObservedSlots matrix.
struct SlotRow {
  const int32_t* first;
  const int32_t* last;
  const int32_t* begin() const { return first; }
  const int32_t* end() const { return last; }
  size_t size() const { return static_cast<size_t>(last - first); }
  bool Contains(int32_t entity) const {
    return std::binary_search(first, last, entity);
  }
};

SlotRow RowOf(const CsrMatrix& m, int64_t slot) {
  const int32_t* ids = m.col_idx().data();
  return {ids + m.RowBegin(slot), ids + m.RowEnd(slot)};
}

/// One Probabilistic set: the positive scores of row `slot` of `by_set`
/// merged in entity order with `seen` (the slot's train-seen entities, or
/// none). Entities only known from train keep at least the smallest
/// positive weight so they can always be drawn.
void MergeSlot(const CsrMatrix& by_set, int64_t slot, SlotRow seen,
               std::vector<int32_t>* members, std::vector<float>* weights) {
  const int64_t begin = by_set.RowBegin(slot);
  const int64_t end = by_set.RowEnd(slot);
  const float* values = by_set.values().data();
  const int32_t* cols = by_set.col_idx().data();
  float min_positive = std::numeric_limits<float>::infinity();
  for (int64_t k = begin; k < end; ++k) {
    if (values[k] > 0.0f) min_positive = std::min(min_positive, values[k]);
  }
  const float floor_weight = std::isfinite(min_positive) ? min_positive : 1.0f;
  const auto add = [&](int32_t entity, float w) {
    members->push_back(entity);
    weights->push_back(w);
  };
  const int32_t* s = seen.begin();
  for (int64_t k = begin; k < end; ++k) {
    if (values[k] <= 0.0f) continue;
    for (; s != seen.end() && *s < cols[k]; ++s) add(*s, floor_weight);
    if (s != seen.end() && *s == cols[k]) {
      add(cols[k], std::max(values[k], floor_weight));
      ++s;
    } else {
      add(cols[k], values[k]);
    }
  }
  for (; s != seen.end(); ++s) add(*s, floor_weight);
}

/// Quantile thresholds tried per column by BuildStaticSets.
constexpr int32_t kStaticThresholdGrid = 24;

}  // namespace

double CandidateSets::MacroReductionRate() const {
  if (sets.empty() || num_entities == 0) return 0.0;
  double acc = 0.0;
  for (const auto& s : sets) {
    acc += 1.0 - static_cast<double>(s.size()) /
                     static_cast<double>(num_entities);
  }
  return acc / static_cast<double>(sets.size());
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
  out.sets.resize(num_slots);
  out.thresholds.assign(num_slots, 0.0f);
  out.num_entities = num_e;

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

    const SlotRow seen_set = RowOf(seen, slot);

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
    seen_scores.reserve(seen_set.size());
    for (int32_t e : seen_set) seen_scores.push_back(by_set.At(slot, e));
    std::sort(seen_scores.begin(), seen_scores.end(),
              std::greater<float>());
    std::vector<float> valid_scores;
    std::vector<bool> valid_seen;
    for (int32_t e : RowOf(valid, slot)) {
      valid_scores.push_back(by_set.At(slot, e));
      valid_seen.push_back(seen_set.Contains(e));
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
    std::set_union(members.begin(), members.end(), seen_set.begin(),
                   seen_set.end(), std::back_inserter(out.sets[slot]));
    out.thresholds[slot] = best_tau;
  }
  return out;
}

CandidateSets BuildProbabilisticSets(const RecommenderScores& scores,
                                     const Dataset& dataset,
                                     bool include_seen) {
  const int32_t num_r = dataset.num_relations();
  const int32_t num_slots = 2 * num_r;
  const CsrMatrix& by_set = scores.by_set;
  KGEVAL_CHECK_EQ(by_set.rows(), num_slots);

  const CsrMatrix seen = ObservedSlots(dataset, {Split::kTrain});

  CandidateSets out;
  out.sets.resize(num_slots);
  out.weights.resize(num_slots);
  out.num_entities = dataset.num_entities();
  // The sets outlive the build, so they are sized here on the calling
  // thread, for the most a slot's merge can emit; the slots then fill them
  // in parallel.
  for (int32_t slot = 0; slot < num_slots; ++slot) {
    const size_t most =
        static_cast<size_t>(by_set.RowEnd(slot) - by_set.RowBegin(slot)) +
        (include_seen ? RowOf(seen, slot).size() : 0);
    out.sets[slot].reserve(most);
    out.weights[slot].reserve(most);
  }
  ParallelFor(
      0, static_cast<size_t>(num_slots),
      [&](size_t lo, size_t hi) {
        for (size_t slot = lo; slot < hi; ++slot) {
          const auto row = static_cast<int64_t>(slot);
          MergeSlot(by_set, row,
                    include_seen ? RowOf(seen, row) : SlotRow{nullptr, nullptr},
                    &out.sets[slot], &out.weights[slot]);
        }
      },
      /*min_chunk=*/1);
  return out;
}

SetQuality EvaluateSetQuality(const CandidateSets& sets,
                              const Dataset& dataset) {
  const CsrMatrix seen =
      ObservedSlots(dataset, {Split::kTrain, Split::kValid});
  const CsrMatrix test = ObservedSlots(dataset, {Split::kTest});

  SetQuality q;
  double rr_acc = 0.0;
  // Every distinct test (slot, entity) pair once, slot by slot.
  for (int32_t slot = 0; slot < test.rows(); ++slot) {
    const auto& members = sets.sets[slot];
    const double rr = 1.0 - static_cast<double>(members.size()) /
                                static_cast<double>(sets.num_entities);
    const SlotRow seen_set = RowOf(seen, slot);
    for (int32_t entity : RowOf(test, slot)) {
      const bool covered =
          std::binary_search(members.begin(), members.end(), entity);
      ++q.total_pairs;
      if (covered) ++q.covered_pairs;
      if (!seen_set.Contains(entity)) {
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

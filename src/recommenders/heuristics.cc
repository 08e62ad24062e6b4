#include "recommenders/heuristics.h"

#include <algorithm>
#include <vector>

#include "util/timer.h"

namespace kgeval {
namespace {

/// Sets every stored value to 1: membership instead of counts.
CsrMatrix Binarized(CsrMatrix m) {
  for (float& v : m.mutable_values()) v = 1.0f;
  return m;
}

/// Type propagation (Section 3.2), shared by DBH-T and OntoSim: adds +1 to
/// a slot's row of `observed` for every entity of every type observed in
/// that slot. A type counts once per slot however many of its members were
/// seen there, matching "is seen as a head" in the paper's description.
CsrMatrix PropagateTypes(const CsrMatrix& observed, const TypeStore& types) {
  std::vector<int64_t> row_ptr(observed.rows() + 1, 0);
  std::vector<int32_t> col_idx;
  std::vector<float> values;
  std::vector<int64_t> type_seen_in(types.num_types(), -1);
  std::vector<float> acc(observed.cols(), 0.0f);
  std::vector<int32_t> touched;
  auto add = [&](int32_t entity, float value) {
    if (acc[entity] == 0.0f) touched.push_back(entity);
    acc[entity] += value;
  };
  for (int64_t slot = 0; slot < observed.rows(); ++slot) {
    for (int64_t k = observed.RowBegin(slot); k < observed.RowEnd(slot);
         ++k) {
      add(observed.col_idx()[k], observed.values()[k]);
    }
    for (int64_t k = observed.RowBegin(slot); k < observed.RowEnd(slot);
         ++k) {
      for (int32_t type : types.TypesOf(observed.col_idx()[k])) {
        if (type_seen_in[type] == slot) continue;
        type_seen_in[type] = slot;
        for (int32_t entity : types.EntitiesOf(type)) add(entity, 1.0f);
      }
    }
    std::sort(touched.begin(), touched.end());
    for (int32_t entity : touched) {
      col_idx.push_back(entity);
      values.push_back(acc[entity]);
      acc[entity] = 0.0f;
    }
    touched.clear();
    row_ptr[slot + 1] = static_cast<int64_t>(col_idx.size());
  }
  return CsrMatrix(observed.rows(), observed.cols(), std::move(row_ptr),
                   std::move(col_idx), std::move(values));
}

}  // namespace

Result<RecommenderScores> PtRecommender::Fit(const Dataset& dataset) {
  WallTimer timer;
  CsrMatrix seen = Binarized(ObservedSlots(dataset, {Split::kTrain}));
  return RecommenderScores{type(), std::move(seen), timer.Seconds()};
}

Result<RecommenderScores> DbhRecommender::Fit(const Dataset& dataset) {
  if (use_types_ && !dataset.has_types()) {
    return Status::FailedPrecondition("DBH-T needs entity types");
  }
  WallTimer timer;
  // DBH core: per-slot occurrence counts; DBH-T adds the type propagation.
  CsrMatrix counts = ObservedSlots(dataset, {Split::kTrain});
  if (use_types_) counts = PropagateTypes(counts, dataset.types());
  return RecommenderScores{type(), std::move(counts), timer.Seconds()};
}

Result<RecommenderScores> OntoSimRecommender::Fit(const Dataset& dataset) {
  if (!dataset.has_types()) {
    return Status::FailedPrecondition("OntoSim needs entity types");
  }
  WallTimer timer;
  // Entities seen in a slot always belong to it, types or not.
  CsrMatrix members = Binarized(PropagateTypes(
      ObservedSlots(dataset, {Split::kTrain}), dataset.types()));
  return RecommenderScores{type(), std::move(members), timer.Seconds()};
}

}  // namespace kgeval

#include "recommenders/lwd.h"

#include "util/timer.h"

namespace kgeval {
namespace {

/// Keeps only columns [0, keep_cols) of `m`. Applied to L-WD-T's W it
/// drops the type columns, so X = B W is always |E| x 2|R|: every column of
/// a product is accumulated on its own, so the kept ones are unchanged.
CsrMatrix SliceColumns(const CsrMatrix& m, int64_t keep_cols) {
  std::vector<int64_t> row_ptr(m.rows() + 1, 0);
  std::vector<int32_t> col_idx;
  std::vector<float> values;
  col_idx.reserve(m.nnz());
  values.reserve(m.nnz());
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t k = m.RowBegin(r); k < m.RowEnd(r); ++k) {
      if (m.col_idx()[k] < keep_cols) {
        col_idx.push_back(m.col_idx()[k]);
        values.push_back(m.values()[k]);
      }
    }
    row_ptr[r + 1] = static_cast<int64_t>(col_idx.size());
  }
  return CsrMatrix(m.rows(), keep_cols, std::move(row_ptr),
                   std::move(col_idx), std::move(values));
}

/// B^T of Algorithm 1: one row per domain/range slot listing the entities
/// observed there in train, then (L-WD-T) one row per type listing its
/// entities. Every stored value is 1.
CsrMatrix MembershipBySlot(const Dataset& dataset, bool use_types) {
  const CsrMatrix seen = ObservedSlots(dataset, {Split::kTrain});
  std::vector<int64_t> row_ptr(1, 0);
  std::vector<int32_t> col_idx = seen.col_idx();
  for (int64_t slot = 0; slot < seen.rows(); ++slot) {
    row_ptr.push_back(seen.RowEnd(slot));
  }
  if (use_types) {
    const TypeStore& types = dataset.types();
    for (int32_t type = 0; type < types.num_types(); ++type) {
      col_idx.insert(col_idx.end(), types.EntitiesOf(type).begin(),
                     types.EntitiesOf(type).end());
      row_ptr.push_back(static_cast<int64_t>(col_idx.size()));
    }
  }
  std::vector<float> values(col_idx.size(), 1.0f);
  const auto rows = static_cast<int64_t>(row_ptr.size()) - 1;
  return CsrMatrix(rows, dataset.num_entities(), std::move(row_ptr),
                   std::move(col_idx), std::move(values));
}

}  // namespace

Result<RecommenderScores> LwdRecommender::Fit(const Dataset& dataset) {
  if (use_types_ && !dataset.has_types()) {
    return Status::FailedPrecondition("L-WD-T needs entity types");
  }
  WallTimer timer;
  const int64_t dr_cols = 2LL * dataset.num_relations();

  // B: binary membership of entities in observed domains/ranges (+ types).
  const CsrMatrix b_t = MembershipBySlot(dataset, use_types_);
  const CsrMatrix b = b_t.Transpose();

  // W = B^T B, row-normalized: co-occurrence confidences between slots.
  CsrMatrix w = SpGemm(b_t, b);
  w.NormalizeRows();
  if (use_types_) w = SliceColumns(w, dr_cols);

  // X = B W: per-entity aggregated confidence of belonging to each slot.
  const CsrMatrix x = SpGemm(b, w);
  return RecommenderScores{type(), x.Transpose(), timer.Seconds()};
}

}  // namespace kgeval

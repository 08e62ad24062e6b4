#include "sparse/csr.h"

#include <algorithm>

#include "sched/task_group.h"

namespace kgeval {

CsrMatrix::CsrMatrix(int64_t rows, int64_t cols, std::vector<int64_t> row_ptr,
                     std::vector<int32_t> col_idx, std::vector<float> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  KGEVAL_CHECK_EQ(row_ptr_.size(), static_cast<size_t>(rows_) + 1);
  KGEVAL_CHECK_EQ(col_idx_.size(), values_.size());
}

float CsrMatrix::At(int64_t r, int64_t c) const {
  KGEVAL_DCHECK(r >= 0 && r < rows_);
  const auto begin = col_idx_.begin() + RowBegin(r);
  const auto end = col_idx_.begin() + RowEnd(r);
  auto it = std::lower_bound(begin, end, static_cast<int32_t>(c));
  if (it == end || *it != c) return 0.0f;
  return values_[static_cast<size_t>(it - col_idx_.begin())];
}

void CsrMatrix::NormalizeRows() {
  for (int64_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (int64_t k = RowBegin(r); k < RowEnd(r); ++k) sum += values_[k];
    if (sum <= 0.0) continue;
    const float inv = static_cast<float>(1.0 / sum);
    for (int64_t k = RowBegin(r); k < RowEnd(r); ++k) values_[k] *= inv;
  }
}

CsrMatrix CsrMatrix::Transpose() const {
  std::vector<int64_t> t_row_ptr(cols_ + 2, 0);
  // Counting sort: histogram of columns, offset by one for the scan trick.
  for (int32_t c : col_idx_) ++t_row_ptr[c + 2];
  for (size_t i = 2; i < t_row_ptr.size(); ++i) t_row_ptr[i] += t_row_ptr[i - 1];
  std::vector<int32_t> t_col_idx(col_idx_.size());
  std::vector<float> t_values(values_.size());
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = RowBegin(r); k < RowEnd(r); ++k) {
      const int64_t pos = t_row_ptr[col_idx_[k] + 1]++;
      t_col_idx[pos] = static_cast<int32_t>(r);
      t_values[pos] = values_[k];
    }
  }
  t_row_ptr.pop_back();
  return CsrMatrix(cols_, rows_, std::move(t_row_ptr), std::move(t_col_idx),
                   std::move(t_values));
}

CsrMatrix SpGemm(const CsrMatrix& a, const CsrMatrix& b) {
  KGEVAL_CHECK_EQ(a.cols(), b.rows());
  const int64_t out_rows = a.rows();
  const int64_t out_cols = b.cols();
  // Per-row results computed independently, then stitched into CSR.
  std::vector<std::vector<int32_t>> row_cols(out_rows);
  std::vector<std::vector<float>> row_vals(out_rows);

  ParallelFor(0, static_cast<size_t>(out_rows), [&](size_t lo, size_t hi) {
    std::vector<float> accumulator(out_cols, 0.0f);
    std::vector<int32_t> touched;
    for (size_t r = lo; r < hi; ++r) {
      touched.clear();
      for (int64_t ka = a.RowBegin(r); ka < a.RowEnd(r); ++ka) {
        const int32_t mid = a.col_idx()[ka];
        const float av = a.values()[ka];
        for (int64_t kb = b.RowBegin(mid); kb < b.RowEnd(mid); ++kb) {
          const int32_t c = b.col_idx()[kb];
          if (accumulator[c] == 0.0f) touched.push_back(c);
          accumulator[c] += av * b.values()[kb];
        }
      }
      std::sort(touched.begin(), touched.end());
      auto& cols_out = row_cols[r];
      auto& vals_out = row_vals[r];
      cols_out.reserve(touched.size());
      vals_out.reserve(touched.size());
      for (int32_t c : touched) {
        // Keep exact zeros out of the structure (cancellation is possible
        // in principle, though not with the non-negative L-WD inputs).
        if (accumulator[c] != 0.0f) {
          cols_out.push_back(c);
          vals_out.push_back(accumulator[c]);
        }
        accumulator[c] = 0.0f;
      }
    }
  });

  std::vector<int64_t> row_ptr(out_rows + 1, 0);
  for (int64_t r = 0; r < out_rows; ++r) {
    row_ptr[r + 1] = row_ptr[r] + static_cast<int64_t>(row_cols[r].size());
  }
  std::vector<int32_t> col_idx(row_ptr[out_rows]);
  std::vector<float> values(row_ptr[out_rows]);
  ParallelFor(0, static_cast<size_t>(out_rows), [&](size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) {
      std::copy(row_cols[r].begin(), row_cols[r].end(),
                col_idx.begin() + row_ptr[r]);
      std::copy(row_vals[r].begin(), row_vals[r].end(),
                values.begin() + row_ptr[r]);
    }
  });
  return CsrMatrix(out_rows, out_cols, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

}  // namespace kgeval

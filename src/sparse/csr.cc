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
  // Computes row r into the dense accumulator `acc`, adding A[r, mid] *
  // B[mid, :] over ascending mid, so each value is one float sum in a fixed
  // order. Then scans `acc`, calls visit(c, value) for its nonzeros in
  // ascending c and zeroes it again. Exact zeros stay out of the structure
  // (cancellation is possible in principle, though not with the
  // non-negative L-WD inputs).
  const auto row_nonzeros = [&](int64_t r, float* acc, const auto& visit) {
    for (int64_t ka = a.RowBegin(r); ka < a.RowEnd(r); ++ka) {
      const int32_t mid = a.col_idx()[ka];
      const float av = a.values()[ka];
      for (int64_t kb = b.RowBegin(mid); kb < b.RowEnd(mid); ++kb) {
        acc[b.col_idx()[kb]] += av * b.values()[kb];
      }
    }
    for (int32_t c = 0; c < out_cols; ++c) {
      if (acc[c] == 0.0f) continue;
      visit(c, acc[c]);
      acc[c] = 0.0f;
    }
  };
  // Rows run twice, once to count their nonzeros and once to write them,
  // so the output is sized on the calling thread.
  std::vector<int64_t> row_ptr(out_rows + 1, 0);
  ParallelFor(
      0, static_cast<size_t>(out_rows),
      [&](size_t lo, size_t hi) {
        std::vector<float> acc(out_cols, 0.0f);
        for (size_t r = lo; r < hi; ++r) {
          int64_t nnz = 0;
          row_nonzeros(static_cast<int64_t>(r), acc.data(),
                       [&](int32_t, float) { ++nnz; });
          row_ptr[r + 1] = nnz;
        }
      },
      /*min_chunk=*/1);
  for (int64_t r = 0; r < out_rows; ++r) row_ptr[r + 1] += row_ptr[r];
  std::vector<int32_t> col_idx(row_ptr[out_rows]);
  std::vector<float> values(row_ptr[out_rows]);
  ParallelFor(
      0, static_cast<size_t>(out_rows),
      [&](size_t lo, size_t hi) {
        std::vector<float> acc(out_cols, 0.0f);
        for (size_t r = lo; r < hi; ++r) {
          int64_t pos = row_ptr[r];
          row_nonzeros(static_cast<int64_t>(r), acc.data(),
                       [&](int32_t c, float value) {
                         col_idx[pos] = c;
                         values[pos] = value;
                         ++pos;
                       });
        }
      },
      /*min_chunk=*/1);
  return CsrMatrix(out_rows, out_cols, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

}  // namespace kgeval

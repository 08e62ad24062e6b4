#ifndef KGEVAL_SPARSE_CSR_H_
#define KGEVAL_SPARSE_CSR_H_

#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace kgeval {

/// Compressed-sparse-row float matrix. This is the substrate for the L-WD
/// relation recommender (Algorithm 1 of the paper), which is nothing but two
/// sparse matrix products and a row normalization.
class CsrMatrix {
 public:
  CsrMatrix() : rows_(0), cols_(0) { row_ptr_.push_back(0); }
  CsrMatrix(int64_t rows, int64_t cols, std::vector<int64_t> row_ptr,
            std::vector<int32_t> col_idx, std::vector<float> values);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(col_idx_.size()); }

  /// Row r occupies [RowBegin(r), RowEnd(r)) in col_idx()/values().
  int64_t RowBegin(int64_t r) const { return row_ptr_[r]; }
  int64_t RowEnd(int64_t r) const { return row_ptr_[r + 1]; }

  const std::vector<int32_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }
  std::vector<float>& mutable_values() { return values_; }

  /// Returns the stored value at (r, c), or 0 if the entry is structurally
  /// absent. O(log nnz(r)) — column indices are sorted within each row.
  float At(int64_t r, int64_t c) const;

  /// Divides each row by its sum (rows summing to 0 are left untouched).
  /// This is the "Normalize W row-wise" step of Algorithm 1.
  void NormalizeRows();

  /// Returns the transpose (counting sort on columns; O(nnz + cols)).
  CsrMatrix Transpose() const;

 private:
  int64_t rows_;
  int64_t cols_;
  std::vector<int64_t> row_ptr_;
  std::vector<int32_t> col_idx_;
  std::vector<float> values_;
};

/// Sparse general matrix multiply C = A * B (Gustavson's algorithm with a
/// dense per-row accumulator; parallelized over rows of A).
CsrMatrix SpGemm(const CsrMatrix& a, const CsrMatrix& b);

}  // namespace kgeval

#endif  // KGEVAL_SPARSE_CSR_H_

#ifndef KGEVAL_LA_MATRIX_H_
#define KGEVAL_LA_MATRIX_H_

#include <cstddef>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace kgeval {

/// Row-major dense float matrix. The embedding tables and all model
/// parameters live in these; rows are the unit of parallel/sparse access.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  float* Row(size_t r) {
    KGEVAL_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }
  const float* Row(size_t r) const {
    KGEVAL_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }

  float& At(size_t r, size_t c) {
    KGEVAL_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float At(size_t r, size_t c) const {
    KGEVAL_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }


  /// Reshapes to rows x cols, reusing the allocation when possible. Contents
  /// are unspecified after a resize that changes the element count.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Xavier/Glorot uniform initialization with the given fan-in/fan-out.
  void InitXavier(Rng* rng, size_t fan_in, size_t fan_out);

  /// Uniform initialization in [lo, hi].
  void InitUniform(Rng* rng, float lo, float hi);

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float> data_;
};

/// Gathers rows `ids[0..n)` of `src` into `out` TRANSPOSED: out is
/// src.cols() x n with out(k, c) = src(ids[c], k). The candidate axis
/// becomes the contiguous one, which turns the batched scoring kernels into
/// independent-lane loops over candidates that the compiler vectorizes
/// without reassociating any per-candidate reduction. Runs the active
/// kernel table's gather_t; every implementation writes the same bits.
void GatherRowsT(const Matrix& src, const int32_t* ids, size_t n,
                 Matrix* out);

/// out[q * n + c] = dot(queries.Row(q), column c of gathered_t), where
/// `gathered_t` is a k x n transposed candidate block from GatherRowsT.
/// Each output cell accumulates over k in exactly Dot()'s sequential order
/// (the vectorized lanes are independent candidates), so every score is
/// bit-identical to the scalar path.
void DotScoreBatch(const Matrix& queries, const Matrix& gathered_t,
                   float* out);

/// out[q * n + c] = -sum_k |queries(q, k) - gathered_t(k, c)| — the pairwise
/// negative L1 distance used by translational scoring. Same transposed
/// layout and bit-exactness guarantee as DotScoreBatch.
void NegL1ScoreBatch(const Matrix& queries, const Matrix& gathered_t,
                     float* out);

/// out[q * n + c] = -sum_j sqrt((q_re - g_re)^2 + (q_im - g_im)^2 + eps)
/// over the m = rows/2 complex coordinates: pairwise negative complex
/// distance over split re/im planes. Rows [0, m) of `gathered_t` are the
/// candidates' real plane and rows [m, 2m) the imaginary plane (the natural
/// split a transposed gather produces for the complex-valued models). Same
/// layout and bit-exactness guarantee as DotScoreBatch.
void NegComplexDistScoreBatch(const Matrix& queries, const Matrix& gathered_t,
                              float eps, float* out);

}  // namespace kgeval

#endif  // KGEVAL_LA_MATRIX_H_

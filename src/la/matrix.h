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

}  // namespace kgeval

#endif  // KGEVAL_LA_MATRIX_H_

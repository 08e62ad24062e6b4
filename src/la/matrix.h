#ifndef KGEVAL_LA_MATRIX_H_
#define KGEVAL_LA_MATRIX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace kgeval {

/// Row-major dense float matrix. The embedding tables and all model
/// parameters live in these; rows are the unit of parallel/sparse access.
///
/// data() starts on a kAlignBytes (cache-line) boundary, so a matrix whose
/// row length is a multiple of 16 floats — a prepared candidate tile —
/// starts every row on one. The storage over-allocates by at most one
/// cache line and offsets into it rather than using an aligned allocator,
/// which keeps small matrices in malloc's ordinary bins. size() counts
/// only the rows x cols elements.
class Matrix {
 public:
  static constexpr size_t kAlignBytes = 64;

  Matrix() = default;
  Matrix(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), storage_(Padded(rows * cols), fill) {
    Align();
  }

  // A copy gets its own buffer, whose alignment offset may differ; a move
  // takes the buffer, offset and all, and leaves an empty matrix behind.
  Matrix(const Matrix& other)
      : rows_(other.rows_),
        cols_(other.cols_),
        storage_(Padded(other.size())) {
    Align();
    std::copy(other.data(), other.data() + other.size(), data());
  }
  Matrix& operator=(const Matrix& other) {
    if (this != &other) *this = Matrix(other);
    return *this;
  }
  Matrix(Matrix&& other) noexcept
      : rows_(std::exchange(other.rows_, 0)),
        cols_(std::exchange(other.cols_, 0)),
        storage_(std::move(other.storage_)),
        offset_(std::exchange(other.offset_, 0)) {}
  Matrix& operator=(Matrix&& other) noexcept {
    rows_ = std::exchange(other.rows_, 0);
    cols_ = std::exchange(other.cols_, 0);
    storage_ = std::move(other.storage_);
    offset_ = std::exchange(other.offset_, 0);
    return *this;
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return rows_ * cols_; }

  float* Row(size_t r) {
    KGEVAL_DCHECK(r < rows_);
    return data() + r * cols_;
  }
  const float* Row(size_t r) const {
    KGEVAL_DCHECK(r < rows_);
    return data() + r * cols_;
  }

  float& At(size_t r, size_t c) {
    KGEVAL_DCHECK(r < rows_ && c < cols_);
    return data()[r * cols_ + c];
  }
  float At(size_t r, size_t c) const {
    KGEVAL_DCHECK(r < rows_ && c < cols_);
    return data()[r * cols_ + c];
  }

  float* data() { return storage_.data() + offset_; }
  const float* data() const { return storage_.data() + offset_; }

  /// Reshapes to rows x cols, reusing the allocation when possible. Contents
  /// are unspecified after a resize that changes the element count.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    if (storage_.size() < Padded(size())) {
      storage_.resize(Padded(size()));
      Align();
    }
  }

  /// Xavier/Glorot uniform initialization with the given fan-in/fan-out.
  void InitXavier(Rng* rng, size_t fan_in, size_t fan_out);

  /// Uniform initialization in [lo, hi].
  void InitUniform(Rng* rng, float lo, float hi);

 private:
  /// Storage floats for `count` elements: room to slide data() up to the
  /// next boundary (malloc aligns to at least sizeof(float)). An empty
  /// matrix allocates nothing.
  static size_t Padded(size_t count) {
    return count == 0 ? 0 : count + kAlignBytes / sizeof(float) - 1;
  }

  void Align() {
    const uintptr_t base = reinterpret_cast<uintptr_t>(storage_.data());
    offset_ = ((kAlignBytes - base % kAlignBytes) % kAlignBytes) /
              sizeof(float);
  }

  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> storage_;
  size_t offset_ = 0;  // data() - storage_.data(), in floats.
};

}  // namespace kgeval

#endif  // KGEVAL_LA_MATRIX_H_

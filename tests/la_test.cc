#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "la/adam.h"
#include "la/matrix.h"
#include "la/vector_ops.h"
#include "util/rng.h"

namespace kgeval {
namespace {

TEST(MatrixTest, ShapeAndInitialValue) {
  Matrix m(3, 4, 1.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_FLOAT_EQ(m.At(2, 3), 1.5f);
}

TEST(MatrixTest, RowPointersAreContiguous) {
  Matrix m(4, 5);
  m.At(2, 0) = 7.0f;
  EXPECT_FLOAT_EQ(m.Row(2)[0], 7.0f);
  EXPECT_EQ(m.Row(3), m.Row(0) + 15);
}

bool CacheLineAligned(const Matrix& m) {
  return reinterpret_cast<uintptr_t>(m.data()) % Matrix::kAlignBytes == 0;
}

TEST(MatrixTest, StorageStartsOnACacheLineThroughCopiesMovesAndResizes) {
  for (size_t rows : {1, 3, 64}) {
    for (size_t cols : {1, 5, 16, 17, 1705}) {
      Matrix m(rows, cols, 2.0f);
      ASSERT_TRUE(CacheLineAligned(m)) << rows << " x " << cols;
      m.At(rows - 1, cols - 1) = 3.0f;
      // A copy lands in a buffer of its own and re-aligns there.
      const Matrix copy = m;
      EXPECT_TRUE(CacheLineAligned(copy));
      EXPECT_NE(copy.data(), m.data());
      ASSERT_EQ(copy.size(), rows * cols);
      EXPECT_TRUE(std::equal(m.data(), m.data() + m.size(), copy.data()));
      Matrix assigned(2, 2);
      assigned = copy;
      EXPECT_TRUE(CacheLineAligned(assigned));
      EXPECT_TRUE(std::equal(m.data(), m.data() + m.size(), assigned.data()));
      // A move keeps the buffer and leaves an empty matrix.
      const float* before = m.data();
      Matrix moved = std::move(m);
      EXPECT_EQ(moved.data(), before);
      // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state.
      EXPECT_EQ(m.size(), 0u);
      // Growing and shrinking reshapes keep the boundary.
      for (size_t c : {cols + 100, size_t{3}, cols * 7 + 1}) {
        moved.Resize(rows, c);
        EXPECT_TRUE(CacheLineAligned(moved)) << rows << " x " << c;
        EXPECT_EQ(moved.size(), rows * c);
      }
    }
  }
}

TEST(MatrixTest, XavierBoundsRespected) {
  Matrix m(50, 64);
  Rng rng(1);
  m.InitXavier(&rng, 64, 64);
  const float bound = std::sqrt(6.0f / 128.0f);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::fabs(m.data()[i]), bound);
  }
}

TEST(MatrixTest, UniformInitWithinRange) {
  Matrix m(10, 10);
  Rng rng(2);
  m.InitUniform(&rng, -0.5f, 0.5f);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_GE(m.data()[i], -0.5f);
    EXPECT_LE(m.data()[i], 0.5f);
  }
}

TEST(VectorOpsTest, Dot) {
  const float a[3] = {1, 2, 3};
  const float b[3] = {4, 5, 6};
  EXPECT_FLOAT_EQ(Dot(a, b, 3), 32.0f);
}

TEST(VectorOpsTest, AxpyAndScale) {
  const float x[3] = {1, 2, 3};
  float y[3] = {1, 1, 1};
  Axpy(2.0f, x, y, 3);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[2], 7.0f);
  Scale(0.5f, y, 3);
  EXPECT_FLOAT_EQ(y[0], 1.5f);
}

TEST(VectorOpsTest, L1Distance) {
  const float a[2] = {0, 3};
  const float b[2] = {4, 0};
  EXPECT_FLOAT_EQ(L1Distance(a, b, 2), 7.0f);
}

TEST(VectorOpsTest, SigmoidAndLogSigmoid) {
  EXPECT_FLOAT_EQ(Sigmoid(0.0f), 0.5f);
  EXPECT_NEAR(Sigmoid(10.0f), 1.0f, 1e-4);
  EXPECT_NEAR(Sigmoid(-10.0f), 0.0f, 1e-4);
  EXPECT_NEAR(LogSigmoid(0.0f), std::log(0.5f), 1e-6);
  // Stable in the tails: no -inf / nan.
  EXPECT_TRUE(std::isfinite(LogSigmoid(-100.0f)));
  EXPECT_NEAR(LogSigmoid(100.0f), 0.0f, 1e-6);
  // Identity: log sigmoid(-x) = log(1 - sigmoid(x)).
  EXPECT_NEAR(LogSigmoid(-2.0f), std::log(1.0f - Sigmoid(2.0f)), 1e-6);
}

TEST(AdamTest, DescendsQuadratic) {
  // Minimize f(w) = 0.5 * ||w - target||^2 with per-row updates.
  Matrix w(1, 4, 0.0f);
  const float target[4] = {1.0f, -2.0f, 0.5f, 3.0f};
  AdamOptions options;
  options.learning_rate = 0.05f;
  AdamState adam(1, 4, options);
  for (int step = 0; step < 500; ++step) {
    float grad[4];
    for (int i = 0; i < 4; ++i) grad[i] = w.At(0, i) - target[i];
    adam.UpdateRow(&w, 0, grad);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(w.At(0, i), target[i], 0.05f) << "coord " << i;
  }
}

TEST(AdamTest, LazyRowsUnaffected) {
  Matrix w(3, 2, 1.0f);
  AdamState adam(3, 2, AdamOptions());
  const float grad[2] = {1.0f, 1.0f};
  adam.UpdateRow(&w, 1, grad);
  EXPECT_FLOAT_EQ(w.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(w.At(2, 0), 1.0f);
  EXPECT_LT(w.At(1, 0), 1.0f);
}

TEST(AdamTest, FirstStepMovesByLearningRate) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  Matrix w(1, 1, 0.0f);
  AdamOptions options;
  options.learning_rate = 0.1f;
  AdamState adam(1, 1, options);
  const float grad = 3.7f;
  adam.UpdateRow(&w, 0, &grad);
  EXPECT_NEAR(w.At(0, 0), -0.1f, 1e-4);
}

TEST(AdamTest, DenseUpdateTouchesAllRows) {
  Matrix w(3, 2, 0.0f);
  AdamState adam(3, 2, AdamOptions());
  Matrix grads(3, 2, 1.0f);
  for (size_t r = 0; r < grads.rows(); ++r) {
    adam.UpdateRow(&w, r, grads.Row(r));
  }
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_LT(w.At(r, 0), 0.0f);
  }
}

}  // namespace
}  // namespace kgeval

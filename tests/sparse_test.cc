#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sparse/csr.h"
#include "util/rng.h"

namespace kgeval {
namespace {

// Dense reference helpers -----------------------------------------------------

std::vector<std::vector<float>> ToDense(const CsrMatrix& m) {
  std::vector<std::vector<float>> dense(
      m.rows(), std::vector<float>(m.cols(), 0.0f));
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t k = m.RowBegin(r); k < m.RowEnd(r); ++k) {
      dense[r][m.col_idx()[k]] += m.values()[k];
    }
  }
  return dense;
}

/// The CSR form of a dense matrix: its nonzero entries, row by row.
CsrMatrix FromDense(const std::vector<std::vector<float>>& dense,
                    int64_t cols) {
  std::vector<int64_t> row_ptr(1, 0);
  std::vector<int32_t> col_idx;
  std::vector<float> values;
  for (const auto& row : dense) {
    for (int64_t c = 0; c < cols; ++c) {
      if (row[c] == 0.0f) continue;
      col_idx.push_back(static_cast<int32_t>(c));
      values.push_back(row[c]);
    }
    row_ptr.push_back(static_cast<int64_t>(col_idx.size()));
  }
  return CsrMatrix(static_cast<int64_t>(dense.size()), cols,
                   std::move(row_ptr), std::move(col_idx), std::move(values));
}

CsrMatrix RandomSparse(int64_t rows, int64_t cols, double density,
                       Rng* rng) {
  std::vector<std::vector<float>> dense(rows, std::vector<float>(cols, 0.0f));
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      if (rng->NextDouble() < density) {
        dense[r][c] =
            static_cast<float>(0.1 + (2.0 - 0.1) * rng->NextDouble());
      }
    }
  }
  return FromDense(dense, cols);
}

TEST(CsrMatrixTest, AtReturnsZeroForAbsent) {
  const CsrMatrix m = FromDense({{0.0f, 0.0f, 7.0f}, {0.0f, 0.0f, 0.0f}}, 3);
  EXPECT_FLOAT_EQ(m.At(0, 2), 7.0f);
  EXPECT_FLOAT_EQ(m.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(m.At(1, 2), 0.0f);
}

TEST(CsrMatrixTest, EmptyMatrix) {
  CsrMatrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.nnz(), 0);
}

TEST(CsrMatrixTest, NormalizeRowsMakesRowSumsOne) {
  Rng rng(4);
  CsrMatrix m = RandomSparse(20, 30, 0.2, &rng);
  m.NormalizeRows();
  for (int64_t r = 0; r < m.rows(); ++r) {
    if (m.RowBegin(r) == m.RowEnd(r)) continue;
    double sum = 0.0;
    for (int64_t k = m.RowBegin(r); k < m.RowEnd(r); ++k) {
      sum += m.values()[k];
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(CsrMatrixTest, NormalizeRowsLeavesEmptyRows) {
  CsrMatrix m = FromDense({{4.0f, 0.0f, 0.0f}, {0.0f, 0.0f, 0.0f}}, 3);
  m.NormalizeRows();
  EXPECT_FLOAT_EQ(m.At(0, 0), 1.0f);
  EXPECT_EQ(m.RowBegin(1), m.RowEnd(1));
}

TEST(CsrMatrixTest, TransposeMatchesDense) {
  Rng rng(9);
  CsrMatrix m = RandomSparse(13, 7, 0.3, &rng);
  CsrMatrix t = m.Transpose();
  EXPECT_EQ(t.rows(), m.cols());
  EXPECT_EQ(t.cols(), m.rows());
  EXPECT_EQ(t.nnz(), m.nnz());
  const auto dense = ToDense(m);
  const auto dense_t = ToDense(t);
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t c = 0; c < m.cols(); ++c) {
      EXPECT_FLOAT_EQ(dense[r][c], dense_t[c][r]);
    }
  }
}

TEST(CsrMatrixTest, TransposeTwiceIsIdentity) {
  Rng rng(10);
  CsrMatrix m = RandomSparse(9, 11, 0.25, &rng);
  CsrMatrix tt = m.Transpose().Transpose();
  const auto a = ToDense(m);
  const auto b = ToDense(tt);
  EXPECT_EQ(a, b);
}

TEST(SpGemmTest, MatchesDenseReference) {
  Rng rng(21);
  CsrMatrix a = RandomSparse(8, 12, 0.3, &rng);
  CsrMatrix b = RandomSparse(12, 6, 0.3, &rng);
  CsrMatrix c = SpGemm(a, b);
  const auto da = ToDense(a);
  const auto db = ToDense(b);
  const auto dc = ToDense(c);
  for (int64_t i = 0; i < 8; ++i) {
    for (int64_t j = 0; j < 6; ++j) {
      float expected = 0.0f;
      for (int64_t k = 0; k < 12; ++k) expected += da[i][k] * db[k][j];
      EXPECT_NEAR(dc[i][j], expected, 1e-4) << "at " << i << "," << j;
    }
  }
}

TEST(SpGemmTest, IdentityIsNeutral) {
  Rng rng(22);
  CsrMatrix a = RandomSparse(10, 10, 0.3, &rng);
  std::vector<std::vector<float>> dense_eye(10,
                                           std::vector<float>(10, 0.0f));
  for (int i = 0; i < 10; ++i) dense_eye[i][i] = 1.0f;
  const CsrMatrix eye = FromDense(dense_eye, 10);
  CsrMatrix product = SpGemm(a, eye);
  EXPECT_EQ(ToDense(product), ToDense(a));
}

TEST(SpGemmTest, LargeRandomAgainstDense) {
  Rng rng(23);
  CsrMatrix a = RandomSparse(120, 80, 0.05, &rng);
  CsrMatrix b = RandomSparse(80, 60, 0.05, &rng);
  CsrMatrix c = SpGemm(a, b);
  const auto da = ToDense(a);
  const auto db = ToDense(b);
  const auto dc = ToDense(c);
  double max_err = 0.0;
  for (int64_t i = 0; i < 120; ++i) {
    for (int64_t j = 0; j < 60; ++j) {
      float expected = 0.0f;
      for (int64_t k = 0; k < 80; ++k) expected += da[i][k] * db[k][j];
      max_err = std::max(max_err,
                         static_cast<double>(std::fabs(dc[i][j] - expected)));
    }
  }
  EXPECT_LT(max_err, 1e-4);
}

TEST(SpGemmTest, GramMatrixIsSymmetric) {
  Rng rng(24);
  CsrMatrix b = RandomSparse(40, 15, 0.2, &rng);
  CsrMatrix gram = SpGemm(b.Transpose(), b);  // The L-WD W matrix.
  const auto dense = ToDense(gram);
  for (int64_t i = 0; i < gram.rows(); ++i) {
    for (int64_t j = 0; j < gram.cols(); ++j) {
      EXPECT_NEAR(dense[i][j], dense[j][i], 1e-4);
    }
  }
}

}  // namespace
}  // namespace kgeval

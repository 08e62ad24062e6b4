#include <algorithm>
#include <cmath>

#include "la/kernels/kernels.h"

namespace kgeval {
namespace {

/// The portable reference. The kernels below are the pre-dispatch
/// matrix.cc loops verbatim (the gather indexes the raw table instead of
/// calling Matrix::Row). In the reductions candidates are independent
/// lanes and each lane accumulates over the dim axis sequentially, which is
/// the per-cell ordering every SIMD implementation reproduces. The build keeps
/// -ffp-contract=off, so the compiler may vectorize across lanes but cannot
/// fuse a lane's multiply and add into an FMA — that is what makes this TU
/// the bit-exact reference regardless of autovectorization. Tile rows are
/// read at TileStride(n); the reductions never read the padding lanes.

void DotScalar(const float* queries, size_t nq, size_t dim, const float* tile,
               size_t n, float* out) {
  const size_t ld = TileStride(n);
  for (size_t q = 0; q < nq; ++q) {
    const float* a = queries + q * dim;
    float* __restrict o = out + q * n;
    std::fill(o, o + n, 0.0f);
    for (size_t k = 0; k < dim; ++k) {
      const float ak = a[k];
      const float* __restrict g = tile + k * ld;
      for (size_t c = 0; c < n; ++c) o[c] += ak * g[c];
    }
  }
}

void NegL1Scalar(const float* queries, size_t nq, size_t dim,
                 const float* tile, size_t n, float* out) {
  const size_t ld = TileStride(n);
  for (size_t q = 0; q < nq; ++q) {
    const float* a = queries + q * dim;
    float* __restrict o = out + q * n;
    std::fill(o, o + n, 0.0f);
    for (size_t k = 0; k < dim; ++k) {
      const float ak = a[k];
      const float* __restrict g = tile + k * ld;
      for (size_t c = 0; c < n; ++c) o[c] += std::fabs(ak - g[c]);
    }
    for (size_t c = 0; c < n; ++c) o[c] = -o[c];
  }
}

void NegComplexDistScalar(const float* queries, size_t nq, size_t dim,
                          const float* tile, size_t n, float eps, float* out) {
  const size_t m = dim / 2;
  const size_t ld = TileStride(n);
  for (size_t q = 0; q < nq; ++q) {
    const float* a = queries + q * dim;
    float* __restrict o = out + q * n;
    std::fill(o, o + n, 0.0f);
    for (size_t j = 0; j < m; ++j) {
      const float qre = a[j], qim = a[m + j];
      const float* __restrict gre = tile + j * ld;
      const float* __restrict gim = tile + (m + j) * ld;
      for (size_t c = 0; c < n; ++c) {
        const float dre = qre - gre[c];
        const float dim_ = qim - gim[c];
        o[c] += std::sqrt(dre * dre + dim_ * dim_ + eps);
      }
    }
    for (size_t c = 0; c < n; ++c) o[c] = -o[c];
  }
}

void GatherTScalar(const float* table, size_t cols, const int32_t* ids,
                   size_t n, float* out) {
  const size_t ld = TileStride(n);
  for (size_t c = 0; c < ld; ++c) {
    // Padding lanes repeat the last candidate.
    const float* row =
        table + static_cast<size_t>(ids[std::min(c, n - 1)]) * cols;
    for (size_t k = 0; k < cols; ++k) {
      out[k * ld + c] = row[k];
    }
  }
}

}  // namespace

const ScoreKernels& ScalarScoreKernels() {
  static const ScoreKernels kScalar = {
      "scalar",
      DotScalar,
      NegL1Scalar,
      NegComplexDistScalar,
      GatherTScalar,
  };
  return kScalar;
}

}  // namespace kgeval

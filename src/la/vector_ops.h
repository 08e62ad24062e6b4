#ifndef KGEVAL_LA_VECTOR_OPS_H_
#define KGEVAL_LA_VECTOR_OPS_H_

#include <cmath>
#include <cstddef>

namespace kgeval {

/// Contiguous-float kernels used by the scoring and gradient code. Written as
/// simple loops; the compiler vectorizes them at -O2 with the restrict hints.

/// Returns sum_i a[i] * b[i].
inline float Dot(const float* __restrict a, const float* __restrict b,
                 size_t n) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

/// y += alpha * x.
inline void Axpy(float alpha, const float* __restrict x, float* __restrict y,
                 size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

/// x *= alpha.
inline void Scale(float alpha, float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

/// Returns sum_i |a[i] - b[i]|.
inline float L1Distance(const float* __restrict a, const float* __restrict b,
                        size_t n) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += std::fabs(a[i] - b[i]);
  return acc;
}

/// Returns -sum_j sqrt((q_j - e_j)_re^2 + (q_j - e_j)_im^2 + eps) over m
/// complex coordinates stored split: real parts in [0, m), imaginary parts
/// in [m, 2m). The negative complex distance of RotatE-style scoring;
/// sequential over j, the order the batched kernel reproduces per lane.
inline float NegComplexDistance(const float* __restrict q,
                                const float* __restrict e, size_t m,
                                float eps) {
  float dist = 0.0f;
  for (size_t j = 0; j < m; ++j) {
    const float dre = q[j] - e[j];
    const float dim = q[m + j] - e[m + j];
    dist += std::sqrt(dre * dre + dim * dim + eps);
  }
  return -dist;
}

/// Numerically stable log(sigmoid(x)).
inline float LogSigmoid(float x) {
  if (x >= 0.0f) return -std::log1p(std::exp(-x));
  return x - std::log1p(std::exp(x));
}

/// Sigmoid.
inline float Sigmoid(float x) {
  if (x >= 0.0f) {
    const float e = std::exp(-x);
    return 1.0f / (1.0f + e);
  }
  const float e = std::exp(x);
  return e / (1.0f + e);
}

}  // namespace kgeval

#endif  // KGEVAL_LA_VECTOR_OPS_H_

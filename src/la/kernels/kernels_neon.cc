// NEON score kernels for aarch64, where ASIMD is baseline (no runtime probe
// needed). Same lane discipline as the x86 paths: candidates are
// independent 4-lane strips, each accumulating over dim with an explicit
// rounded multiply + rounded add (vmulq/vaddq, never vfmaq, on the exact
// kernels) and IEEE-exact vsqrtq/vabsq, so results match the scalar
// reference bit-for-bit.

#include "la/kernels/kernel_impls.h"

#if defined(__aarch64__)
#define KGEVAL_HAVE_NEON_KERNELS 1
#endif

#if defined(KGEVAL_HAVE_NEON_KERNELS)

#include <arm_neon.h>

#include <cmath>
#include <cstddef>

namespace kgeval {
namespace kernel_impls {
namespace {

void DotNeon(const float* queries, size_t nq, size_t dim, const float* tile,
             size_t n, float* out) {
  for (size_t q = 0; q < nq; ++q) {
    const float* a = queries + q * dim;
    float* o = out + q * n;
    size_t c = 0;
    for (; c + 16 <= n; c += 16) {
      float32x4_t acc0 = vdupq_n_f32(0.0f);
      float32x4_t acc1 = vdupq_n_f32(0.0f);
      float32x4_t acc2 = vdupq_n_f32(0.0f);
      float32x4_t acc3 = vdupq_n_f32(0.0f);
      const float* g = tile + c;
      for (size_t k = 0; k < dim; ++k, g += n) {
        const float32x4_t va = vdupq_n_f32(a[k]);
        acc0 = vaddq_f32(acc0, vmulq_f32(va, vld1q_f32(g)));
        acc1 = vaddq_f32(acc1, vmulq_f32(va, vld1q_f32(g + 4)));
        acc2 = vaddq_f32(acc2, vmulq_f32(va, vld1q_f32(g + 8)));
        acc3 = vaddq_f32(acc3, vmulq_f32(va, vld1q_f32(g + 12)));
      }
      vst1q_f32(o + c, acc0);
      vst1q_f32(o + c + 4, acc1);
      vst1q_f32(o + c + 8, acc2);
      vst1q_f32(o + c + 12, acc3);
    }
    for (; c + 4 <= n; c += 4) {
      float32x4_t acc = vdupq_n_f32(0.0f);
      const float* g = tile + c;
      for (size_t k = 0; k < dim; ++k, g += n) {
        acc = vaddq_f32(acc, vmulq_f32(vdupq_n_f32(a[k]), vld1q_f32(g)));
      }
      vst1q_f32(o + c, acc);
    }
    for (; c < n; ++c) {
      float acc = 0.0f;
      for (size_t k = 0; k < dim; ++k) acc += a[k] * tile[k * n + c];
      o[c] = acc;
    }
  }
}

void NegL1Neon(const float* queries, size_t nq, size_t dim, const float* tile,
               size_t n, float* out) {
  for (size_t q = 0; q < nq; ++q) {
    const float* a = queries + q * dim;
    float* o = out + q * n;
    size_t c = 0;
    for (; c + 16 <= n; c += 16) {
      float32x4_t acc0 = vdupq_n_f32(0.0f);
      float32x4_t acc1 = vdupq_n_f32(0.0f);
      float32x4_t acc2 = vdupq_n_f32(0.0f);
      float32x4_t acc3 = vdupq_n_f32(0.0f);
      const float* g = tile + c;
      for (size_t k = 0; k < dim; ++k, g += n) {
        const float32x4_t va = vdupq_n_f32(a[k]);
        acc0 = vaddq_f32(acc0, vabsq_f32(vsubq_f32(va, vld1q_f32(g))));
        acc1 = vaddq_f32(acc1, vabsq_f32(vsubq_f32(va, vld1q_f32(g + 4))));
        acc2 = vaddq_f32(acc2, vabsq_f32(vsubq_f32(va, vld1q_f32(g + 8))));
        acc3 = vaddq_f32(acc3, vabsq_f32(vsubq_f32(va, vld1q_f32(g + 12))));
      }
      vst1q_f32(o + c, vnegq_f32(acc0));
      vst1q_f32(o + c + 4, vnegq_f32(acc1));
      vst1q_f32(o + c + 8, vnegq_f32(acc2));
      vst1q_f32(o + c + 12, vnegq_f32(acc3));
    }
    for (; c + 4 <= n; c += 4) {
      float32x4_t acc = vdupq_n_f32(0.0f);
      const float* g = tile + c;
      for (size_t k = 0; k < dim; ++k, g += n) {
        acc = vaddq_f32(acc,
                        vabsq_f32(vsubq_f32(vdupq_n_f32(a[k]), vld1q_f32(g))));
      }
      vst1q_f32(o + c, vnegq_f32(acc));
    }
    for (; c < n; ++c) {
      float acc = 0.0f;
      for (size_t k = 0; k < dim; ++k) acc += std::fabs(a[k] - tile[k * n + c]);
      o[c] = -acc;
    }
  }
}

void NegComplexDistNeon(const float* queries, size_t nq, size_t dim,
                        const float* tile, size_t n, float eps, float* out) {
  const size_t m = dim / 2;
  const float32x4_t veps = vdupq_n_f32(eps);
  for (size_t q = 0; q < nq; ++q) {
    const float* a = queries + q * dim;
    float* o = out + q * n;
    size_t c = 0;
    for (; c + 8 <= n; c += 8) {
      float32x4_t acc0 = vdupq_n_f32(0.0f);
      float32x4_t acc1 = vdupq_n_f32(0.0f);
      for (size_t j = 0; j < m; ++j) {
        const float32x4_t qre = vdupq_n_f32(a[j]);
        const float32x4_t qim = vdupq_n_f32(a[m + j]);
        const float* gre = tile + j * n + c;
        const float* gim = tile + (m + j) * n + c;
        const float32x4_t dre0 = vsubq_f32(qre, vld1q_f32(gre));
        const float32x4_t dim0 = vsubq_f32(qim, vld1q_f32(gim));
        const float32x4_t dre1 = vsubq_f32(qre, vld1q_f32(gre + 4));
        const float32x4_t dim1 = vsubq_f32(qim, vld1q_f32(gim + 4));
        const float32x4_t s0 = vaddq_f32(
            vaddq_f32(vmulq_f32(dre0, dre0), vmulq_f32(dim0, dim0)), veps);
        const float32x4_t s1 = vaddq_f32(
            vaddq_f32(vmulq_f32(dre1, dre1), vmulq_f32(dim1, dim1)), veps);
        acc0 = vaddq_f32(acc0, vsqrtq_f32(s0));
        acc1 = vaddq_f32(acc1, vsqrtq_f32(s1));
      }
      vst1q_f32(o + c, vnegq_f32(acc0));
      vst1q_f32(o + c + 4, vnegq_f32(acc1));
    }
    for (; c + 4 <= n; c += 4) {
      float32x4_t acc = vdupq_n_f32(0.0f);
      for (size_t j = 0; j < m; ++j) {
        const float32x4_t dre =
            vsubq_f32(vdupq_n_f32(a[j]), vld1q_f32(tile + j * n + c));
        const float32x4_t dim_ =
            vsubq_f32(vdupq_n_f32(a[m + j]), vld1q_f32(tile + (m + j) * n + c));
        const float32x4_t s = vaddq_f32(
            vaddq_f32(vmulq_f32(dre, dre), vmulq_f32(dim_, dim_)), veps);
        acc = vaddq_f32(acc, vsqrtq_f32(s));
      }
      vst1q_f32(o + c, vnegq_f32(acc));
    }
    for (; c < n; ++c) {
      float acc = 0.0f;
      for (size_t j = 0; j < m; ++j) {
        const float dre = a[j] - tile[j * n + c];
        const float dim_ = a[m + j] - tile[(m + j) * n + c];
        acc += std::sqrt(dre * dre + dim_ * dim_ + eps);
      }
      o[c] = -acc;
    }
  }
}

}  // namespace

const ScoreKernels* NeonKernels() {
  static const ScoreKernels kNeon = {
      "neon",
      DotNeon,
      NegL1Neon,
      NegComplexDistNeon,
  };
  return &kNeon;
}

}  // namespace kernel_impls
}  // namespace kgeval

#else  // !KGEVAL_HAVE_NEON_KERNELS

namespace kgeval {
namespace kernel_impls {

const ScoreKernels* NeonKernels() { return nullptr; }

}  // namespace kernel_impls
}  // namespace kgeval

#endif  // KGEVAL_HAVE_NEON_KERNELS

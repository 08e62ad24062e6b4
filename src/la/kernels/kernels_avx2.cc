// AVX2 score kernels. Compiled into every x86-64 binary via function-level
// `target` attributes (no special build flags), so a KGEVAL_NATIVE=OFF
// build still carries this path; the registry only dispatches here when the
// running CPU reports AVX2.
//
// The scoring kernels are the shared sweep (simd_sweep.inc) over the AVX2
// description below. Bit-exactness: they keep candidates in independent
// SIMD lanes and accumulate over the dim axis with an explicit rounded
// multiply followed by a rounded add — never an FMA — in the scalar
// reference's order. Together with IEEE-exact VSQRTPS and bitmask
// fabs/negation, every lane reproduces the scalar result bit-for-bit. The
// gather only moves bits.

#include "la/kernels/kernel_impls.h"

#if defined(KGEVAL_X86_SIMD_KERNELS)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>

#define KGEVAL_SIMD_TARGET __attribute__((target("avx2")))

namespace kgeval {
namespace kernel_impls {
namespace {

/// 8 lanes per YMM register. The widest strip is 2 vectors, so 4 queries'
/// accumulators, the tile vectors and a broadcast fit the 16 registers.
struct Isa {
  using V = __m256;
  using Mask = __m256i;
  static constexpr int kLanes = 8;
  static constexpr int kWideVecs = 2;

  KGEVAL_SIMD_TARGET static V Zero() { return _mm256_setzero_ps(); }
  KGEVAL_SIMD_TARGET static V Set1(float x) { return _mm256_set1_ps(x); }
  KGEVAL_SIMD_TARGET static V Load(const float* p) {
    return _mm256_loadu_ps(p);
  }
  KGEVAL_SIMD_TARGET static void Store(float* p, V v) {
    _mm256_storeu_ps(p, v);
  }
  KGEVAL_SIMD_TARGET static void MaskStore(float* p, Mask m, V v) {
    _mm256_maskstore_ps(p, m, v);
  }
  KGEVAL_SIMD_TARGET static V Add(V a, V b) { return _mm256_add_ps(a, b); }
  KGEVAL_SIMD_TARGET static V Sub(V a, V b) { return _mm256_sub_ps(a, b); }
  KGEVAL_SIMD_TARGET static V Mul(V a, V b) { return _mm256_mul_ps(a, b); }
  KGEVAL_SIMD_TARGET static V Sqrt(V a) { return _mm256_sqrt_ps(a); }
  // No rsqrt14 and no FMA in the probe: every cell stays on VSQRTPS.
  KGEVAL_SIMD_TARGET static V SqrtFma(V a) { return Sqrt(a); }
  KGEVAL_SIMD_TARGET static V Abs(V a) {
    return _mm256_and_ps(a,
                         _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff)));
  }
  KGEVAL_SIMD_TARGET static V Neg(V a) {
    return _mm256_xor_ps(a, _mm256_set1_ps(-0.0f));
  }
  KGEVAL_SIMD_TARGET static Mask TailMask(size_t count) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
};

#include "la/kernels/simd_sweep.inc"

// The tile gather, 8 candidates x 8 dims at a time: one 32-byte load per
// candidate row, an 8 x 8 transpose in registers, then one contiguous
// 32-byte store per dim row of the tile, instead of 64 single-float stores
// at the tile's row stride. In a prepared tile every such store lands
// inside one cache line. Unpacks and 128-bit lane permutes move bits without
// arithmetic, so every output word equals the scalar reference's.

/// Transposes r in place: on return r[j][i] = old r[i][j].
KGEVAL_SIMD_TARGET inline void Transpose8x8(__m256* r) {
  __m256 t[8];
  // Pairs of rows interleaved: t[2i] holds lanes {0, 1} mod 4 of rows 2i
  // and 2i + 1, t[2i + 1] lanes {2, 3} mod 4, per 128-bit lane.
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    t[2 * i] = _mm256_unpacklo_ps(r[2 * i], r[2 * i + 1]);
    t[2 * i + 1] = _mm256_unpackhi_ps(r[2 * i], r[2 * i + 1]);
  }
  // Quads: 128-bit lane L of r[4g + e] holds lane 4L + e of rows 4g..4g+3.
#pragma GCC unroll 2
  for (int g = 0; g < 2; ++g) {
    const __m256d a = _mm256_castps_pd(t[4 * g]);
    const __m256d b = _mm256_castps_pd(t[4 * g + 1]);
    const __m256d c = _mm256_castps_pd(t[4 * g + 2]);
    const __m256d d = _mm256_castps_pd(t[4 * g + 3]);
    r[4 * g] = _mm256_castpd_ps(_mm256_unpacklo_pd(a, c));
    r[4 * g + 1] = _mm256_castpd_ps(_mm256_unpackhi_pd(a, c));
    r[4 * g + 2] = _mm256_castpd_ps(_mm256_unpacklo_pd(b, d));
    r[4 * g + 3] = _mm256_castpd_ps(_mm256_unpackhi_pd(b, d));
  }
  // Low 128-bit lanes of both quads make lanes 0..3, high ones lanes 4..7.
#pragma GCC unroll 4
  for (int e = 0; e < 4; ++e) {
    t[e] = _mm256_permute2f128_ps(r[e], r[4 + e], 0x20);
    t[4 + e] = _mm256_permute2f128_ps(r[e], r[4 + e], 0x31);
  }
#pragma GCC unroll 8
  for (int j = 0; j < 8; ++j) r[j] = t[j];
}

}  // namespace

KGEVAL_SIMD_TARGET
void GatherTAvx2(const float* table, size_t cols, const int32_t* ids,
                 size_t n, float* out) {
  // The padded width is a multiple of 8, so every candidate block is whole;
  // the padding lanes gather the last candidate again.
  const size_t ld = TileStride(n);
  const size_t cols8 = cols - cols % 8;
  for (size_t c = 0; c < ld; c += 8) {
    const float* rows[8];
#pragma GCC unroll 8
    for (size_t i = 0; i < 8; ++i) {
      const size_t id = static_cast<size_t>(ids[std::min(c + i, n - 1)]);
      rows[i] = table + id * cols;
    }
    for (size_t k = 0; k < cols8; k += 8) {
      __m256 r[8];
#pragma GCC unroll 8
      for (int i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(rows[i] + k);
      Transpose8x8(r);
#pragma GCC unroll 8
      for (int j = 0; j < 8; ++j) {
        _mm256_storeu_ps(out + (k + j) * ld + c, r[j]);
      }
    }
    for (size_t k = cols8; k < cols; ++k) {
      for (size_t i = 0; i < 8; ++i) out[k * ld + c + i] = rows[i][k];
    }
  }
}

const ScoreKernels* Avx2Kernels() {
  static const ScoreKernels kAvx2 = {
      "avx2", Dot, NegL1, NegComplexDist, GatherTAvx2,
  };
  return &kAvx2;
}

bool Avx2Supported() { return __builtin_cpu_supports("avx2") != 0; }

}  // namespace kernel_impls
}  // namespace kgeval

#undef KGEVAL_SIMD_TARGET

#endif  // KGEVAL_X86_SIMD_KERNELS

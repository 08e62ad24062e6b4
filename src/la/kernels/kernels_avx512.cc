// AVX-512F score kernels: the shared sweep (simd_sweep.inc) at 16 lanes per
// register. Same compilation model as the AVX2 file (function-level `target`
// attributes, dispatched at runtime) and the same bit-exactness contract:
// explicit rounded multiply + rounded add per dim step, never VFMADD; FMAs
// appear only inside SqrtFma, whose square root equals VSQRTPS bit for bit.
// Only AVX-512F intrinsics are used, so the probe needs nothing beyond
// avx512f.

#include "la/kernels/kernel_impls.h"

#if defined(KGEVAL_X86_SIMD_KERNELS)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

#define KGEVAL_SIMD_TARGET __attribute__((target("avx512f")))

namespace kgeval {
namespace kernel_impls {
namespace {

/// 16 lanes per ZMM register. The widest strip is 4 vectors: 4 queries'
/// accumulators, the tile vectors and a broadcast fit the 32 registers.
struct Isa {
  using V = __m512;
  using Mask = __mmask16;
  static constexpr int kLanes = 16;
  static constexpr int kWideVecs = 4;

  KGEVAL_SIMD_TARGET static V Zero() { return _mm512_setzero_ps(); }
  KGEVAL_SIMD_TARGET static V Set1(float x) { return _mm512_set1_ps(x); }
  KGEVAL_SIMD_TARGET static V Load(const float* p) {
    return _mm512_loadu_ps(p);
  }
  KGEVAL_SIMD_TARGET static void Store(float* p, V v) {
    _mm512_storeu_ps(p, v);
  }
  KGEVAL_SIMD_TARGET static void MaskStore(float* p, Mask m, V v) {
    _mm512_mask_storeu_ps(p, m, v);
  }
  KGEVAL_SIMD_TARGET static V Add(V a, V b) { return _mm512_add_ps(a, b); }
  KGEVAL_SIMD_TARGET static V Sub(V a, V b) { return _mm512_sub_ps(a, b); }
  KGEVAL_SIMD_TARGET static V Mul(V a, V b) { return _mm512_mul_ps(a, b); }
  // The zero-masked form with every lane set is the same VSQRTPS;
  // _mm512_sqrt_ps's _mm512_undefined_ps() source trips gcc's
  // -Wmaybe-uninitialized.
  KGEVAL_SIMD_TARGET static V Sqrt(V a) {
    return _mm512_maskz_sqrt_ps(0xFFFF, a);
  }
  KGEVAL_SIMD_TARGET static V SqrtFma(V a) {
    return kernel_impls::SqrtFma(a);
  }
  KGEVAL_SIMD_TARGET static V Abs(V a) { return _mm512_abs_ps(a); }
  KGEVAL_SIMD_TARGET static V Neg(V a) {
    return _mm512_castsi512_ps(_mm512_xor_si512(
        _mm512_castps_si512(a), _mm512_set1_epi32(INT32_C(0x80000000))));
  }
  KGEVAL_SIMD_TARGET static Mask TailMask(size_t count) {
    return static_cast<Mask>((1u << count) - 1);
  }
};

#include "la/kernels/simd_sweep.inc"

}  // namespace

const ScoreKernels* Avx512Kernels() {
  static const ScoreKernels kAvx512 = {
      "avx512", Dot, NegL1, NegComplexDist,
      // Every AVX-512F CPU also runs AVX2, and a 16 x 16 transpose measured
      // no faster than the AVX2 8 x 8 one, so the two tables share it.
      GatherTAvx2,
  };
  return &kAvx512;
}

bool Avx512Supported() { return __builtin_cpu_supports("avx512f") != 0; }

}  // namespace kernel_impls
}  // namespace kgeval

#undef KGEVAL_SIMD_TARGET

#endif  // KGEVAL_X86_SIMD_KERNELS

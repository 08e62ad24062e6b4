#ifndef KGEVAL_LA_KERNELS_KERNEL_IMPLS_H_
#define KGEVAL_LA_KERNELS_KERNEL_IMPLS_H_

#include "la/kernels/kernels.h"

// x86-64 under GCC or Clang: the toolchains whose function-level `target`
// attributes let one binary carry the AVX2 and AVX-512 tables. Elsewhere the
// registry holds the scalar table alone.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define KGEVAL_X86_SIMD_KERNELS 1
#endif

#if defined(KGEVAL_X86_SIMD_KERNELS)

#include <immintrin.h>

namespace kgeval {
namespace kernel_impls {

/// Per-ISA kernel tables for the registry (kernels.cc). Each SIMD file is
/// one `Isa` description (vector type, lane count, widest strip and the
/// handful of intrinsics the sweep uses) around the shared sweep in
/// simd_sweep.inc, so adding an ISA is one `Isa` description plus one
/// registry line. "Compiled in" is independent of "supported on this CPU";
/// the registry probes support before dispatching.

const ScoreKernels* Avx2Kernels();    // 8-lane AVX2.
const ScoreKernels* Avx512Kernels();  // 16-lane AVX-512F.

/// The AVX2 tile gather, shared by the AVX2 and AVX-512 tables.
void GatherTAvx2(const float* table, size_t cols, const int32_t* ids,
                 size_t n, float* out);

/// True when the running CPU can execute the named table.
bool Avx2Supported();
bool Avx512Supported();

/// sqrt(x) in every lane, equal to VSQRTPS bit for bit on every input, but
/// computed mostly on the FMA ports rather than the divider, so a kernel
/// can split its square roots between the two units. The 14-bit rsqrt
/// estimate y takes one Goldschmidt step (s = x*y and h = y/2 converge to
/// sqrt(x) and 1/(2 sqrt(x))), then s += (x - s*s)*h rounds s correctly.
/// The step is exact for x in [2^-100, FLT_MAX] (checked against VSQRTPS
/// on all 2^32 inputs, kernels_test); lanes outside it (zeros, denormals,
/// tiny normals, negatives, inf and NaN) take VSQRTPS on a rarely taken
/// branch. Only AVX-512F instructions, so Avx512Supported() covers it.
__attribute__((target("avx512f"))) inline __m512 SqrtFma(__m512 x) {
  // The zero-masked forms with every lane set avoid the
  // _mm512_undefined_ps() source that trips gcc's -Wmaybe-uninitialized.
  const __m512 y = _mm512_maskz_rsqrt14_ps(0xFFFF, x);
  const __m512 half = _mm512_set1_ps(0.5f);
  __m512 s = _mm512_mul_ps(x, y);
  __m512 h = _mm512_mul_ps(y, half);
  const __m512 r = _mm512_fnmadd_ps(s, h, half);  // 1/2 - s*h
  s = _mm512_fmadd_ps(s, r, s);
  h = _mm512_fmadd_ps(h, r, h);
  s = _mm512_fmadd_ps(_mm512_fnmadd_ps(s, s, x), h, s);
  // One unsigned compare: bits in [2^-100, 0x7F800000) as
  // bits - 2^-100 < inf - 2^-100; negatives wrap far above.
  constexpr int kLow = 0x0D800000;  // 2^-100.
  constexpr int kInf = 0x7F800000;
  const __mmask16 in_range = _mm512_cmplt_epu32_mask(
      _mm512_sub_epi32(_mm512_castps_si512(x), _mm512_set1_epi32(kLow)),
      _mm512_set1_epi32(kInf - kLow));
  if (__builtin_expect(in_range != 0xFFFF, 0)) {
    s = _mm512_mask_sqrt_ps(s, static_cast<__mmask16>(~in_range), x);
  }
  return s;
}

}  // namespace kernel_impls
}  // namespace kgeval

#endif  // KGEVAL_X86_SIMD_KERNELS

#endif  // KGEVAL_LA_KERNELS_KERNEL_IMPLS_H_

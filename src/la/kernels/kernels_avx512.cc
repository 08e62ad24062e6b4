// AVX-512F score kernels: the AVX2 structure at 16 lanes per register.
// Same compilation model (function-level `target` attributes, dispatched at
// runtime) and the same bit-exactness contract: explicit rounded multiply +
// rounded add per dim step, never VFMADD. Only AVX-512F intrinsics are
// used, so the probe needs nothing beyond avx512f.

#include "la/kernels/kernel_impls.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define KGEVAL_HAVE_AVX512_KERNELS 1
#endif

#if defined(KGEVAL_HAVE_AVX512_KERNELS)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace kgeval {
namespace kernel_impls {
namespace {

#define KGEVAL_TARGET_AVX512 __attribute__((target("avx512f")))

KGEVAL_TARGET_AVX512 inline __m512 NegPs512(__m512 x) {
  return _mm512_castsi512_ps(_mm512_xor_si512(
      _mm512_castps_si512(x), _mm512_set1_epi32(INT32_C(0x80000000))));
}

// One query-blocked sweep shared by dot, neg_l1 and neg_complex_dist. The tile
// is cut into column chunks of kChunk candidates (dim x 512 floats stays in L2
// at the dims we serve), and each chunk is swept by groups of up to kQueryGroup
// queries: every tile vector loaded feeds the accumulators of all queries in
// the group, so a 16-query block streams the tile from memory once instead of
// once per query. Within a chunk the widest strips run first, then 16-lane
// strips, then one masked strip below 16 lanes. Blocking only changes which
// cells are computed together; each cell still accumulates over k ascending
// with a rounded multiply then a rounded add (never an FMA), so every cell
// matches the scalar reference bit-for-bit.

constexpr size_t kChunk = 512;
constexpr size_t kQueryGroup = 4;

/// Per-step cell updates. kPlanes tile rows feed one step (k, and m + k for
/// the complex planes); kVecs 16-lane vectors make the widest strip.
struct DotOp {
  static constexpr int kPlanes = 1;
  static constexpr int kVecs = 4;
  KGEVAL_TARGET_AVX512 __m512 Step(__m512 acc, const __m512* a,
                                   const __m512* t) const {
    return _mm512_add_ps(acc, _mm512_mul_ps(a[0], t[0]));
  }
  KGEVAL_TARGET_AVX512 __m512 Finish(__m512 acc) const { return acc; }
};

struct NegL1Op {
  static constexpr int kPlanes = 1;
  static constexpr int kVecs = 4;
  KGEVAL_TARGET_AVX512 __m512 Step(__m512 acc, const __m512* a,
                                   const __m512* t) const {
    return _mm512_add_ps(acc, _mm512_abs_ps(_mm512_sub_ps(a[0], t[0])));
  }
  KGEVAL_TARGET_AVX512 __m512 Finish(__m512 acc) const {
    return NegPs512(acc);
  }
};

struct NegComplexDistOp {
  static constexpr int kPlanes = 2;
  static constexpr int kVecs = 2;
  float eps;
  KGEVAL_TARGET_AVX512 __m512 Step(__m512 acc, const __m512* a,
                                   const __m512* t) const {
    const __m512 dre = _mm512_sub_ps(a[0], t[0]);
    const __m512 dim_ = _mm512_sub_ps(a[1], t[1]);
    // (dre*dre + dim*dim) + eps in the scalar expression's order.
    const __m512 s = _mm512_add_ps(
        _mm512_add_ps(_mm512_mul_ps(dre, dre), _mm512_mul_ps(dim_, dim_)),
        _mm512_set1_ps(eps));
    return _mm512_add_ps(acc, _mm512_sqrt_ps(s));
  }
  KGEVAL_TARGET_AVX512 __m512 Finish(__m512 acc) const {
    return NegPs512(acc);
  }
};

/// Scores QN queries (rows of `a`, stride dim) against V * 16 candidates
/// starting at `tile` (row stride n) into `o` (row stride n). kMasked
/// strips are one vector whose lanes past `mask` are neither read nor
/// written.
template <class Op, int QN, int V, bool kMasked>
KGEVAL_TARGET_AVX512 inline void Strip(const Op& op, const float* a,
                                       size_t dim, const float* tile, size_t n,
                                       __mmask16 mask, float* o) {
  constexpr int P = Op::kPlanes;
  const size_t steps = dim / P;
  __m512 acc[QN][V];
#pragma GCC unroll 16
  for (int i = 0; i < QN * V; ++i) acc[i / V][i % V] = _mm512_setzero_ps();
  for (size_t k = 0; k < steps; ++k) {
    __m512 t[V][P];
#pragma GCC unroll 8
    for (int i = 0; i < V * P; ++i) {
      const float* g = tile + ((i % P) * steps + k) * n + (i / P) * 16;
      t[i / P][i % P] =
          kMasked ? _mm512_maskz_loadu_ps(mask, g) : _mm512_loadu_ps(g);
    }
#pragma GCC unroll 4
    for (int q = 0; q < QN; ++q) {
      __m512 qa[P];
#pragma GCC unroll 2
      for (int p = 0; p < P; ++p) {
        qa[p] = _mm512_set1_ps(a[q * dim + p * steps + k]);
      }
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) acc[q][v] = op.Step(acc[q][v], qa, t[v]);
    }
  }
#pragma GCC unroll 16
  for (int i = 0; i < QN * V; ++i) {
    float* dst = o + (i / V) * n + (i % V) * 16;
    const __m512 r = op.Finish(acc[i / V][i % V]);
    if (kMasked) {
      _mm512_mask_storeu_ps(dst, mask, r);
    } else {
      _mm512_storeu_ps(dst, r);
    }
  }
}

/// Columns [c0, c1) for QN queries: widest strips, 16-lane strips, then
/// one masked strip for the last < 16 columns.
template <class Op, int QN>
KGEVAL_TARGET_AVX512 void SweepColumns(const Op& op, const float* a,
                                       size_t dim, const float* tile, size_t n,
                                       size_t c0, size_t c1, float* o) {
  constexpr size_t kWide = 16 * Op::kVecs;
  size_t c = c0;
  for (; c + kWide <= c1; c += kWide) {
    Strip<Op, QN, Op::kVecs, false>(op, a, dim, tile + c, n, 0, o + c);
  }
  for (; c + 16 <= c1; c += 16) {
    Strip<Op, QN, 1, false>(op, a, dim, tile + c, n, 0, o + c);
  }
  if (c < c1) {
    const __mmask16 mask = static_cast<__mmask16>((1u << (c1 - c)) - 1);
    Strip<Op, QN, 1, true>(op, a, dim, tile + c, n, mask, o + c);
  }
}

template <class Op>
KGEVAL_TARGET_AVX512 void SweepQueryBlocked(const Op& op, const float* queries,
                                            size_t nq, size_t dim,
                                            const float* tile, size_t n,
                                            float* out) {
  for (size_t c0 = 0; c0 < n; c0 += kChunk) {
    const size_t c1 = std::min(n, c0 + kChunk);
    for (size_t q = 0; q < nq; q += kQueryGroup) {
      const float* a = queries + q * dim;
      float* o = out + q * n;
      switch (std::min(kQueryGroup, nq - q)) {
        case 4: SweepColumns<Op, 4>(op, a, dim, tile, n, c0, c1, o); break;
        case 3: SweepColumns<Op, 3>(op, a, dim, tile, n, c0, c1, o); break;
        case 2: SweepColumns<Op, 2>(op, a, dim, tile, n, c0, c1, o); break;
        default: SweepColumns<Op, 1>(op, a, dim, tile, n, c0, c1, o); break;
      }
    }
  }
}

KGEVAL_TARGET_AVX512
void DotAvx512(const float* queries, size_t nq, size_t dim, const float* tile,
               size_t n, float* out) {
  SweepQueryBlocked(DotOp{}, queries, nq, dim, tile, n, out);
}

KGEVAL_TARGET_AVX512
void NegL1Avx512(const float* queries, size_t nq, size_t dim,
                 const float* tile, size_t n, float* out) {
  SweepQueryBlocked(NegL1Op{}, queries, nq, dim, tile, n, out);
}

KGEVAL_TARGET_AVX512
void NegComplexDistAvx512(const float* queries, size_t nq, size_t dim,
                          const float* tile, size_t n, float eps, float* out) {
  SweepQueryBlocked(NegComplexDistOp{eps}, queries, nq, dim, tile, n, out);
}

#undef KGEVAL_TARGET_AVX512

}  // namespace

const ScoreKernels* Avx512Kernels() {
  static const ScoreKernels kAvx512 = {
      "avx512",
      DotAvx512,
      NegL1Avx512,
      NegComplexDistAvx512,
      // Every AVX-512F CPU also runs AVX2, and a 16 x 16 transpose measured
      // no faster than the AVX2 8 x 8 one, so the two tables share it.
      GatherTAvx2,
  };
  return &kAvx512;
}

bool Avx512Supported() { return __builtin_cpu_supports("avx512f") != 0; }

}  // namespace kernel_impls
}  // namespace kgeval

#else  // !KGEVAL_HAVE_AVX512_KERNELS

namespace kgeval {
namespace kernel_impls {

const ScoreKernels* Avx512Kernels() { return nullptr; }
bool Avx512Supported() { return false; }

}  // namespace kernel_impls
}  // namespace kgeval

#endif  // KGEVAL_HAVE_AVX512_KERNELS

// AVX2 score kernels. Compiled into every x86-64 binary via function-level
// `target` attributes (no special build flags), so a KGEVAL_NATIVE=OFF
// build still carries this path; the registry only dispatches here when the
// running CPU reports AVX2.
//
// Bit-exactness: the kernels keep candidates in independent SIMD lanes and
// accumulate over the dim axis with an explicit rounded multiply followed
// by a rounded add — never an FMA — in the scalar reference's order.
// Together with IEEE-exact VSQRTPS and bitmask fabs/negation, every lane
// reproduces the scalar result bit-for-bit.

#include "la/kernels/kernel_impls.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define KGEVAL_HAVE_AVX2_KERNELS 1
#endif

#if defined(KGEVAL_HAVE_AVX2_KERNELS)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>

namespace kgeval {
namespace kernel_impls {
namespace {

#define KGEVAL_TARGET_AVX2 __attribute__((target("avx2")))

KGEVAL_TARGET_AVX2 inline __m256 AbsPs(__m256 x) {
  return _mm256_and_ps(x, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff)));
}

KGEVAL_TARGET_AVX2 inline __m256 NegPs(__m256 x) {
  return _mm256_xor_ps(x, _mm256_set1_ps(-0.0f));
}

// The query-blocked sweep of kernels_avx512.cc at 8 lanes per register. Column
// chunks of kChunk candidates stay in L2 while groups of up to kQueryGroup
// queries share every tile vector load; within a chunk the widest strips run
// first, then 8-lane strips, then one masked strip below 8 lanes. Strip widths
// keep each group's accumulators, tile vectors and broadcasts inside the 16 YMM
// registers. Every cell still accumulates over k ascending, rounded multiply
// then rounded add, so the output matches the scalar reference bit-for-bit.

constexpr size_t kChunk = 512;
constexpr size_t kQueryGroup = 4;

/// Per-step cell updates. kPlanes tile rows feed one step (k, and m + k for
/// the complex planes); kVecs 8-lane vectors make the widest strip.
struct DotOp {
  static constexpr int kPlanes = 1;
  static constexpr int kVecs = 2;
  KGEVAL_TARGET_AVX2 __m256 Step(__m256 acc, const __m256* a,
                                 const __m256* t) const {
    return _mm256_add_ps(acc, _mm256_mul_ps(a[0], t[0]));
  }
  KGEVAL_TARGET_AVX2 __m256 Finish(__m256 acc) const { return acc; }
};

struct NegL1Op {
  static constexpr int kPlanes = 1;
  static constexpr int kVecs = 2;
  KGEVAL_TARGET_AVX2 __m256 Step(__m256 acc, const __m256* a,
                                 const __m256* t) const {
    return _mm256_add_ps(acc, AbsPs(_mm256_sub_ps(a[0], t[0])));
  }
  KGEVAL_TARGET_AVX2 __m256 Finish(__m256 acc) const { return NegPs(acc); }
};

struct NegComplexDistOp {
  static constexpr int kPlanes = 2;
  static constexpr int kVecs = 1;
  float eps;
  KGEVAL_TARGET_AVX2 __m256 Step(__m256 acc, const __m256* a,
                                 const __m256* t) const {
    const __m256 dre = _mm256_sub_ps(a[0], t[0]);
    const __m256 dim_ = _mm256_sub_ps(a[1], t[1]);
    // (dre*dre + dim*dim) + eps in the scalar expression's order.
    const __m256 s = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(dre, dre), _mm256_mul_ps(dim_, dim_)),
        _mm256_set1_ps(eps));
    return _mm256_add_ps(acc, _mm256_sqrt_ps(s));
  }
  KGEVAL_TARGET_AVX2 __m256 Finish(__m256 acc) const { return NegPs(acc); }
};

/// Scores QN queries (rows of `a`, stride dim) against V * 8 candidates
/// starting at `tile` (row stride n) into `o` (row stride n). kMasked
/// strips are one vector whose lanes outside `mask` are neither read nor
/// written.
template <class Op, int QN, int V, bool kMasked>
KGEVAL_TARGET_AVX2 inline void Strip(const Op& op, const float* a, size_t dim,
                                     const float* tile, size_t n, __m256i mask,
                                     float* o) {
  constexpr int P = Op::kPlanes;
  const size_t steps = dim / P;
  __m256 acc[QN][V];
#pragma GCC unroll 8
  for (int i = 0; i < QN * V; ++i) acc[i / V][i % V] = _mm256_setzero_ps();
  for (size_t k = 0; k < steps; ++k) {
    __m256 t[V][P];
#pragma GCC unroll 4
    for (int i = 0; i < V * P; ++i) {
      const float* g = tile + ((i % P) * steps + k) * n + (i / P) * 8;
      t[i / P][i % P] =
          kMasked ? _mm256_maskload_ps(g, mask) : _mm256_loadu_ps(g);
    }
#pragma GCC unroll 4
    for (int q = 0; q < QN; ++q) {
      __m256 qa[P];
#pragma GCC unroll 2
      for (int p = 0; p < P; ++p) {
        qa[p] = _mm256_set1_ps(a[q * dim + p * steps + k]);
      }
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) acc[q][v] = op.Step(acc[q][v], qa, t[v]);
    }
  }
#pragma GCC unroll 8
  for (int i = 0; i < QN * V; ++i) {
    float* dst = o + (i / V) * n + (i % V) * 8;
    const __m256 r = op.Finish(acc[i / V][i % V]);
    if (kMasked) {
      _mm256_maskstore_ps(dst, mask, r);
    } else {
      _mm256_storeu_ps(dst, r);
    }
  }
}

/// Columns [c0, c1) for QN queries: widest strips, 8-lane strips, then one
/// masked strip for the last < 8 columns.
template <class Op, int QN>
KGEVAL_TARGET_AVX2 void SweepColumns(const Op& op, const float* a, size_t dim,
                                     const float* tile, size_t n, size_t c0,
                                     size_t c1, float* o) {
  constexpr size_t kWide = 8 * Op::kVecs;
  const __m256i all = _mm256_set1_epi32(-1);
  size_t c = c0;
  for (; c + kWide <= c1; c += kWide) {
    Strip<Op, QN, Op::kVecs, false>(op, a, dim, tile + c, n, all, o + c);
  }
  for (; c + 8 <= c1; c += 8) {
    Strip<Op, QN, 1, false>(op, a, dim, tile + c, n, all, o + c);
  }
  if (c < c1) {
    const __m256i mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(c1 - c)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    Strip<Op, QN, 1, true>(op, a, dim, tile + c, n, mask, o + c);
  }
}

template <class Op>
KGEVAL_TARGET_AVX2 void SweepQueryBlocked(const Op& op, const float* queries,
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

KGEVAL_TARGET_AVX2
void DotAvx2(const float* queries, size_t nq, size_t dim, const float* tile,
             size_t n, float* out) {
  SweepQueryBlocked(DotOp{}, queries, nq, dim, tile, n, out);
}

KGEVAL_TARGET_AVX2
void NegL1Avx2(const float* queries, size_t nq, size_t dim, const float* tile,
               size_t n, float* out) {
  SweepQueryBlocked(NegL1Op{}, queries, nq, dim, tile, n, out);
}

KGEVAL_TARGET_AVX2
void NegComplexDistAvx2(const float* queries, size_t nq, size_t dim,
                        const float* tile, size_t n, float eps, float* out) {
  SweepQueryBlocked(NegComplexDistOp{eps}, queries, nq, dim, tile, n, out);
}

#undef KGEVAL_TARGET_AVX2

}  // namespace

const ScoreKernels* Avx2Kernels() {
  static const ScoreKernels kAvx2 = {
      "avx2",
      DotAvx2,
      NegL1Avx2,
      NegComplexDistAvx2,
  };
  return &kAvx2;
}

bool Avx2Supported() { return __builtin_cpu_supports("avx2") != 0; }

}  // namespace kernel_impls
}  // namespace kgeval

#else  // !KGEVAL_HAVE_AVX2_KERNELS

namespace kgeval {
namespace kernel_impls {

const ScoreKernels* Avx2Kernels() { return nullptr; }
bool Avx2Supported() { return false; }

}  // namespace kernel_impls
}  // namespace kgeval

#endif  // KGEVAL_HAVE_AVX2_KERNELS

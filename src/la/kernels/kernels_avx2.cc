// AVX2 score kernels. Compiled into every x86-64 binary via function-level
// `target` attributes (no special build flags), so a KGEVAL_NATIVE=OFF
// build still carries this path; the registry only dispatches here when the
// running CPU reports AVX2.
//
// Bit-exactness: the kernels keep candidates in independent SIMD lanes and
// accumulate over the dim axis with an explicit rounded multiply followed
// by a rounded add — never an FMA — in the scalar reference's order.
// Together with IEEE-exact VSQRTPS and bitmask fabs/negation, every lane
// reproduces the scalar result bit-for-bit. The gather only moves bits.

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

// The tile gather, 8 candidates x 8 dims at a time: one 32-byte load per
// candidate row, an 8 x 8 transpose in registers, then one contiguous
// 32-byte store per dim row of the tile, instead of 64 single-float stores
// at a stride of n. Unpacks and 128-bit lane permutes move bits without
// arithmetic, so every output word equals the scalar reference's.

/// Transposes r in place: on return r[j][i] = old r[i][j].
KGEVAL_TARGET_AVX2 inline void Transpose8x8(__m256* r) {
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

KGEVAL_TARGET_AVX2
void GatherTAvx2(const float* table, size_t cols, const int32_t* ids,
                 size_t n, float* out) {
  const size_t n8 = n - n % 8;
  const size_t cols8 = cols - cols % 8;
  for (size_t c = 0; c < n8; c += 8) {
    const float* rows[8];
#pragma GCC unroll 8
    for (int i = 0; i < 8; ++i) {
      rows[i] = table + static_cast<size_t>(ids[c + i]) * cols;
    }
    for (size_t k = 0; k < cols8; k += 8) {
      __m256 r[8];
#pragma GCC unroll 8
      for (int i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(rows[i] + k);
      Transpose8x8(r);
#pragma GCC unroll 8
      for (int j = 0; j < 8; ++j) {
        _mm256_storeu_ps(out + (k + j) * n + c, r[j]);
      }
    }
    for (size_t k = cols8; k < cols; ++k) {
      for (size_t i = 0; i < 8; ++i) out[k * n + c + i] = rows[i][k];
    }
  }
  // The last n % 8 candidates: the scalar loop.
  for (size_t c = n8; c < n; ++c) {
    const float* row = table + static_cast<size_t>(ids[c]) * cols;
    for (size_t k = 0; k < cols; ++k) out[k * n + c] = row[k];
  }
}

#undef KGEVAL_TARGET_AVX2

const ScoreKernels* Avx2Kernels() {
  static const ScoreKernels kAvx2 = {
      "avx2",
      DotAvx2,
      NegL1Avx2,
      NegComplexDistAvx2,
      GatherTAvx2,
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

// AVX-512F score kernels: the AVX2 structure at 16 lanes per register.
// Same compilation model (function-level `target` attributes, dispatched at
// runtime) and the same bit-exactness contract on the exact kernels:
// explicit rounded multiply + rounded add per dim step — VFMADD only ever
// appears in the quantized screening kernels, which a conservative bound
// corrects.

#include "la/kernels/kernel_impls.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define KGEVAL_HAVE_AVX512_KERNELS 1
#endif

#if defined(KGEVAL_HAVE_AVX512_KERNELS)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>

namespace kgeval {
namespace kernel_impls {
namespace {

#define KGEVAL_TARGET_AVX512 __attribute__((target("avx512f")))

KGEVAL_TARGET_AVX512 inline __m512 NegPs512(__m512 x) {
  return _mm512_castsi512_ps(_mm512_xor_si512(
      _mm512_castps_si512(x), _mm512_set1_epi32(INT32_C(0x80000000))));
}

/// Loads 16 int8 lanes and converts to fp32.
KGEVAL_TARGET_AVX512 inline __m512 LoadQ8x16(const int8_t* p) {
  const __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  return _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(raw));
}

// Exact kernels: one query-blocked sweep shared by dot, neg_l1 and
// neg_complex_dist. The tile is cut into column chunks of kChunk candidates
// (dim x 512 floats stays in L2 at the dims we serve), and each chunk is
// swept by groups of up to kQueryGroup queries: every tile vector loaded
// feeds the accumulators of all queries in the group, so a 16-query block
// streams the tile from memory once instead of once per query. Within a
// chunk the widest strips run first, then 16-lane strips, then one masked
// strip below 16 lanes. Blocking only changes which cells are computed
// together; each cell still accumulates over k ascending with a rounded
// multiply then a rounded add (never an FMA), so every cell matches the
// scalar reference bit-for-bit.

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

inline int32_t DotQ8Tail(const uint8_t* a, size_t dim_quads,
                         const int8_t* tile4, size_t n, size_t c) {
  int32_t acc = 0;
  for (size_t g = 0; g < dim_quads; ++g) {
    const int8_t* t = tile4 + (g * n + c) * 4;
    acc += static_cast<int32_t>(a[g * 4 + 0]) * t[0] +
           static_cast<int32_t>(a[g * 4 + 1]) * t[1] +
           static_cast<int32_t>(a[g * 4 + 2]) * t[2] +
           static_cast<int32_t>(a[g * 4 + 3]) * t[3];
  }
  return acc;
}

#define KGEVAL_TARGET_AVX512BW __attribute__((target("avx512f,avx512bw")))

/// madd_epi16 path for AVX-512 CPUs without VNNI: sign-extend the quads to
/// s16 and multiply-accumulate in exact s32, 16 candidates per step.
KGEVAL_TARGET_AVX512BW
void DotQ8Avx512(const uint8_t* queries, size_t nq, size_t dim_quads,
                 const int8_t* tile4, size_t n, int32_t* out) {
  for (size_t q = 0; q < nq; ++q) {
    const uint8_t* a = queries + q * dim_quads * 4;
    int32_t* o = out + q * n;
    size_t c = 0;
    for (; c + 16 <= n; c += 16) {
      __m512i acc_lo = _mm512_setzero_si512();  // 2 partial s32 per cand 0-7.
      __m512i acc_hi = _mm512_setzero_si512();  // ... per cand 8-15.
      for (size_t g = 0; g < dim_quads; ++g) {
        const int64_t qq =
            static_cast<int64_t>(a[g * 4 + 0]) |
            (static_cast<int64_t>(a[g * 4 + 1]) << 16) |
            (static_cast<int64_t>(a[g * 4 + 2]) << 32) |
            (static_cast<int64_t>(a[g * 4 + 3]) << 48);
        const __m512i qv = _mm512_set1_epi64(qq);
        const __m512i chunk = _mm512_loadu_si512(tile4 + (g * n + c) * 4);
        const __m512i lo16 =
            _mm512_cvtepi8_epi16(_mm512_castsi512_si256(chunk));
        const __m512i hi16 =
            _mm512_cvtepi8_epi16(_mm512_extracti64x4_epi64(chunk, 1));
        acc_lo = _mm512_add_epi32(acc_lo, _mm512_madd_epi16(lo16, qv));
        acc_hi = _mm512_add_epi32(acc_hi, _mm512_madd_epi16(hi16, qv));
      }
      alignas(64) int32_t tmp[32];
      _mm512_store_si512(tmp, acc_lo);
      _mm512_store_si512(tmp + 16, acc_hi);
      for (size_t i = 0; i < 16; ++i) o[c + i] = tmp[2 * i] + tmp[2 * i + 1];
    }
    for (; c < n; ++c) o[c] = DotQ8Tail(a, dim_quads, tile4, n, c);
  }
}

#define KGEVAL_TARGET_AVX512VNNI \
  __attribute__((target("avx512f,avx512bw,avx512vnni")))

/// VNNI path: one vpdpbusd per 16 candidates per dim quad — the unsigned
/// query quad broadcast against 64 signed tile bytes, accumulated exactly
/// in s32. Same sums as every other implementation.
KGEVAL_TARGET_AVX512VNNI
void DotQ8Avx512Vnni(const uint8_t* queries, size_t nq, size_t dim_quads,
                     const int8_t* tile4, size_t n, int32_t* out) {
  for (size_t q = 0; q < nq; ++q) {
    const uint8_t* a = queries + q * dim_quads * 4;
    int32_t* o = out + q * n;
    size_t c = 0;
    for (; c + 32 <= n; c += 32) {
      __m512i acc0 = _mm512_setzero_si512();
      __m512i acc1 = _mm512_setzero_si512();
      for (size_t g = 0; g < dim_quads; ++g) {
        int32_t qq;
        std::memcpy(&qq, a + g * 4, sizeof(qq));
        const __m512i qv = _mm512_set1_epi32(qq);
        const int8_t* t = tile4 + (g * n + c) * 4;
        acc0 = _mm512_dpbusd_epi32(acc0, qv, _mm512_loadu_si512(t));
        acc1 = _mm512_dpbusd_epi32(acc1, qv, _mm512_loadu_si512(t + 64));
      }
      _mm512_storeu_si512(o + c, acc0);
      _mm512_storeu_si512(o + c + 16, acc1);
    }
    for (; c + 16 <= n; c += 16) {
      __m512i acc = _mm512_setzero_si512();
      for (size_t g = 0; g < dim_quads; ++g) {
        int32_t qq;
        std::memcpy(&qq, a + g * 4, sizeof(qq));
        acc = _mm512_dpbusd_epi32(
            acc, _mm512_set1_epi32(qq),
            _mm512_loadu_si512(tile4 + (g * n + c) * 4));
      }
      _mm512_storeu_si512(o + c, acc);
    }
    for (; c < n; ++c) o[c] = DotQ8Tail(a, dim_quads, tile4, n, c);
  }
}

KGEVAL_TARGET_AVX512
void NegL1Q8Avx512(const float* queries, size_t nq, size_t dim,
                   const int8_t* tile, const float* scale, size_t n,
                   float* out) {
  for (size_t q = 0; q < nq; ++q) {
    const float* a = queries + q * dim;
    float* o = out + q * n;
    size_t c = 0;
    for (; c + 32 <= n; c += 32) {
      __m512 acc0 = _mm512_setzero_ps();
      __m512 acc1 = _mm512_setzero_ps();
      const int8_t* g = tile + c;
      for (size_t k = 0; k < dim; ++k, g += n) {
        const __m512 va = _mm512_set1_ps(a[k]);
        const __m512 vs = _mm512_set1_ps(scale[k]);
        acc0 = _mm512_add_ps(
            acc0,
            _mm512_abs_ps(_mm512_sub_ps(va, _mm512_mul_ps(vs, LoadQ8x16(g)))));
        acc1 = _mm512_add_ps(
            acc1, _mm512_abs_ps(
                      _mm512_sub_ps(va, _mm512_mul_ps(vs, LoadQ8x16(g + 16)))));
      }
      _mm512_storeu_ps(o + c, NegPs512(acc0));
      _mm512_storeu_ps(o + c + 16, NegPs512(acc1));
    }
    for (; c < n; ++c) {
      float acc = 0.0f;
      for (size_t k = 0; k < dim; ++k) {
        acc += std::fabs(a[k] - scale[k] * static_cast<float>(tile[k * n + c]));
      }
      o[c] = -acc;
    }
  }
}

KGEVAL_TARGET_AVX512
void NegComplexDistQ8Avx512(const float* queries, size_t nq, size_t dim,
                            const int8_t* tile, const float* scale, size_t n,
                            float eps, float* out) {
  const size_t m = dim / 2;
  const __m512 veps = _mm512_set1_ps(eps);
  for (size_t q = 0; q < nq; ++q) {
    const float* a = queries + q * dim;
    float* o = out + q * n;
    size_t c = 0;
    for (; c + 16 <= n; c += 16) {
      __m512 acc = _mm512_setzero_ps();
      for (size_t j = 0; j < m; ++j) {
        const __m512 gre = _mm512_mul_ps(_mm512_set1_ps(scale[j]),
                                         LoadQ8x16(tile + j * n + c));
        const __m512 gim = _mm512_mul_ps(_mm512_set1_ps(scale[m + j]),
                                         LoadQ8x16(tile + (m + j) * n + c));
        const __m512 dre = _mm512_sub_ps(_mm512_set1_ps(a[j]), gre);
        const __m512 dim_ = _mm512_sub_ps(_mm512_set1_ps(a[m + j]), gim);
        const __m512 s = _mm512_add_ps(
            _mm512_fmadd_ps(dre, dre, _mm512_mul_ps(dim_, dim_)), veps);
        acc = _mm512_add_ps(acc, _mm512_sqrt_ps(s));
      }
      _mm512_storeu_ps(o + c, NegPs512(acc));
    }
    for (; c < n; ++c) {
      float acc = 0.0f;
      for (size_t j = 0; j < m; ++j) {
        const float dre =
            a[j] - scale[j] * static_cast<float>(tile[j * n + c]);
        const float dim_ =
            a[m + j] - scale[m + j] * static_cast<float>(tile[(m + j) * n + c]);
        acc += std::sqrt(dre * dre + dim_ * dim_ + eps);
      }
      o[c] = -acc;
    }
  }
}

#undef KGEVAL_TARGET_AVX512

}  // namespace

const ScoreKernels* Avx512Kernels() {
  // The integer dot picks VNNI when the CPU has it; both variants return
  // identical (exact) sums, so the choice is invisible outside throughput.
  static const ScoreKernels kAvx512 = {
      "avx512",
      DotAvx512,
      NegL1Avx512,
      NegComplexDistAvx512,
      __builtin_cpu_supports("avx512vnni") ? DotQ8Avx512Vnni : DotQ8Avx512,
      NegL1Q8Avx512,
      NegComplexDistQ8Avx512,
  };
  return &kAvx512;
}

bool Avx512Supported() {
  // The q8 madd path needs BW; every AVX-512 server part since Skylake-SP
  // has it, and gating on it keeps the probe honest on the few that don't.
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0;
}

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

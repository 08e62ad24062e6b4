#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <vector>

#include "la/kernels/kernel_impls.h"
#include "la/kernels/kernels.h"
#include "models/kge_model.h"
#include "util/rng.h"

namespace kgeval {
namespace {

ModelOptions SmallOptions() {
  ModelOptions options;
  options.dim = 16;
  options.seed = 7;
  return options;
}

/// Restores auto-selection when a test that forced a kernel path exits, so
/// test order never leaks a forced path into another test.
struct KernelGuard {
  ~KernelGuard() { SelectScoreKernels("auto"); }
};

bool Contains(const std::vector<std::string>& names,
              const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

// ---------------------------------------------------------------------------
// Registry: compiled/supported listings, selection, and error handling.

TEST(KernelRegistryTest, ScalarIsAlwaysCompiledAndSupported) {
  const std::vector<std::string> compiled = CompiledScoreKernelNames();
  const std::vector<std::string> supported = SupportedScoreKernelNames();
  EXPECT_TRUE(Contains(compiled, "scalar"));
  EXPECT_TRUE(Contains(supported, "scalar"));
  for (const std::string& name : supported) {
    EXPECT_TRUE(Contains(compiled, name))
        << name << " supported but not compiled";
  }
  EXPECT_TRUE(Contains(supported, ActiveScoreKernelName()));
}

TEST(KernelRegistryTest, UnknownNameIsInvalidArgumentAndKeepsActive) {
  KernelGuard guard;
  const std::string before = ActiveScoreKernelName();
  const Status status = SelectScoreKernels("pentium");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ActiveScoreKernelName(), before);
}

TEST(KernelRegistryTest, CompiledButUnsupportedNameFails) {
  KernelGuard guard;
  const std::vector<std::string> supported = SupportedScoreKernelNames();
  for (const std::string& name : CompiledScoreKernelNames()) {
    if (Contains(supported, name)) continue;
    EXPECT_FALSE(SelectScoreKernels(name).ok())
        << name << " is not runnable on this CPU and must not select";
  }
}

TEST(KernelRegistryTest, SelectScalarThenAutoRestoresWidestPath) {
  KernelGuard guard;
  ASSERT_TRUE(SelectScoreKernels("scalar").ok());
  EXPECT_STREQ(ActiveScoreKernelName(), "scalar");
  ASSERT_TRUE(SelectScoreKernels("auto").ok());
  // Auto re-probes the CPU: the widest supported path wins (listings are
  // widest-first).
  EXPECT_EQ(ActiveScoreKernelName(), SupportedScoreKernelNames().front());
}

// The parity tests below iterate only the supported names, so a broken x86
// guard that dropped both SIMD tables would pass them all. This pins the
// tables an x86-64 GCC/Clang build must compile, whatever the CPU runs.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
TEST(KernelRegistryTest, X86BuildsCompileBothSimdTablesSharingOneGather) {
  EXPECT_EQ(CompiledScoreKernelNames(),
            (std::vector<std::string>{"avx512", "avx2", "scalar"}));
  EXPECT_EQ(kernel_impls::Avx512Kernels()->gather_t,
            kernel_impls::Avx2Kernels()->gather_t);
}
#endif

std::vector<uint32_t> Bits(const std::vector<float>& values) {
  std::vector<uint32_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(float));
  return bits;
}

// ---------------------------------------------------------------------------
// Dispatched-vs-scalar bit equality: every supported implementation must
// prepare bit-identical tiles and produce bit-identical pool and truth
// scores for every model and both query directions.

class KernelParityTest : public ::testing::TestWithParam<ModelType> {
 protected:
  std::unique_ptr<KgeModel> Make() {
    return CreateModel(GetParam(), /*num_entities=*/40, /*num_relations=*/6,
                       SmallOptions())
        .ValueOrDie();
  }
};

TEST_P(KernelParityTest, EverySupportedKernelMatchesScalarBitExactly) {
  KernelGuard guard;
  auto model = Make();
  // 45 unsorted candidates with repeats: the tile stride is 48, so every
  // tile row ends in three padding lanes.
  std::vector<int32_t> candidates;
  for (int32_t c = 0; c < 45; ++c) candidates.push_back((c * 17 + 11) % 40);
  const std::vector<int32_t> anchors = {0, 5, 5, 17, 39, 2};
  const std::vector<int32_t> truths = {2, 9, 9, 0, 39, 24};
  const size_t n = candidates.size();
  const size_t q = anchors.size();

  struct Output {
    std::vector<float> pool, truth;
  };
  // Prepares under the active kernels too, so the gather is compared as
  // well as the scoring.
  auto score_all = [&] {
    Output out;
    CandidateBlock block;
    model->PrepareCandidates(candidates.data(), n, &block);
    std::vector<float> pool(q * n), truth(q);
    for (int32_t relation : {0, 5}) {
      for (QueryDirection dir :
           {QueryDirection::kTail, QueryDirection::kHead}) {
        model->ScoreBlock(anchors.data(), truths.data(), q, relation, dir,
                          block, pool.data(), truth.data());
        out.pool.insert(out.pool.end(), pool.begin(), pool.end());
        out.truth.insert(out.truth.end(), truth.begin(), truth.end());
      }
    }
    return out;
  };

  ASSERT_TRUE(SelectScoreKernels("scalar").ok());
  const Output reference = score_all();
  for (const std::string& name : SupportedScoreKernelNames()) {
    ASSERT_TRUE(SelectScoreKernels(name).ok()) << name;
    const Output got = score_all();
    // Bit-identical, not approximately equal: the dispatch contract.
    EXPECT_EQ(got.pool, reference.pool)
        << ModelTypeName(GetParam()) << " under " << name;
    EXPECT_EQ(got.truth, reference.truth)
        << ModelTypeName(GetParam()) << " under " << name;
  }
}

TEST_P(KernelParityTest, PreparedTilesStartOnACacheLineAtTheTileStride) {
  KernelGuard guard;
  auto model = Make();
  const size_t dim = static_cast<size_t>(model->options().dim);
  // One block reused across growing and shrinking pools, as the evaluators
  // reuse theirs, and a fresh block per pool.
  CandidateBlock reused;
  for (const std::string& name : SupportedScoreKernelNames()) {
    ASSERT_TRUE(SelectScoreKernels(name).ok()) << name;
    for (size_t n : {1, 15, 16, 17, 45, 300, 33, 2}) {
      SCOPED_TRACE(testing::Message() << name << " n=" << n);
      std::vector<int32_t> candidates(n);
      for (size_t c = 0; c < n; ++c) {
        candidates[c] = static_cast<int32_t>((c * 7 + 3) % 40);
      }
      CandidateBlock fresh;
      for (CandidateBlock* block : {&reused, &fresh}) {
        model->PrepareCandidates(candidates.data(), n, block);
        const Matrix& tile = block->gathered_t;
        EXPECT_EQ(reinterpret_cast<uintptr_t>(tile.data()) % 64, 0u);
        ASSERT_EQ(tile.rows(), dim);
        ASSERT_EQ(tile.cols(), TileStride(n));
        for (size_t k = 0; k < dim; ++k) {
          for (size_t c = n; c < tile.cols(); ++c) {
            EXPECT_EQ(Bits({tile.At(k, c)}), Bits({tile.At(k, n - 1)}))
                << "padding lane k=" << k << " c=" << c;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, KernelParityTest,
                         ::testing::ValuesIn(kAllModelTypes),
                         [](const ::testing::TestParamInfo<ModelType>& info) {
                           return ModelTypeName(info.param);
                         });

// ---------------------------------------------------------------------------
// Raw kernel parity: every exact ScoreKernels entry of every supported
// implementation, called directly, must reproduce the scalar reference bit
// for bit across shapes that reach every strip width, every query-group
// remainder and every column-chunk edge.

/// Values drawn from a small set (ties within and across rows, both signed
/// zeros) mixed with uniform ones.
std::vector<float> KernelInput(size_t size, Rng* rng) {
  static const float kPicks[] = {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, -2.25f};
  std::vector<float> values(size);
  for (float& v : values) {
    v = rng->NextBounded(2) == 0
            ? kPicks[rng->NextBounded(std::size(kPicks))]
            : static_cast<float>(-3.0 + 6.0 * rng->NextDouble());
  }
  return values;
}

/// A dim x TileStride(n) tile of KernelInput values whose padding lanes
/// [n, TileStride(n)) are NaN: no kernel may let one reach an output cell.
std::vector<float> PaddedKernelTile(size_t dim, size_t n, Rng* rng) {
  const size_t ld = TileStride(n);
  std::vector<float> tile = KernelInput(dim * ld, rng);
  for (size_t k = 0; k < dim; ++k) {
    std::fill(tile.begin() + k * ld + n, tile.begin() + (k + 1) * ld,
              std::nanf(""));
  }
  return tile;
}

TEST(RawKernelParityTest, ExactKernelsMatchScalarOnEveryShape) {
  KernelGuard guard;
  std::vector<const ScoreKernels*> impls;
  for (const std::string& name : SupportedScoreKernelNames()) {
    ASSERT_TRUE(SelectScoreKernels(name).ok()) << name;
    impls.push_back(&ActiveScoreKernels());
  }
  const ScoreKernels& scalar = ScalarScoreKernels();
  const float kEps = 1e-3f;
  Rng rng(2024);
  for (size_t nq : {1, 2, 3, 4, 5, 6, 16, 17}) {
    for (size_t n : {1, 15, 16, 17, 31, 33, 63, 64, 65, 511, 512, 513,
                     1100}) {
      for (size_t dim : {1, 2, 3, 64}) {
        SCOPED_TRACE(testing::Message()
                     << "nq=" << nq << " n=" << n << " dim=" << dim);
        const std::vector<float> queries = KernelInput(nq * dim, &rng);
        const std::vector<float> tile = PaddedKernelTile(dim, n, &rng);
        // Every cell starts as a NaN sentinel, so a cell a kernel never
        // writes cannot match the reference; 16 sentinel cells past the
        // end catch a masked store that writes too far. The inputs hold no
        // NaN outside the tile's padding, so a NaN inside [0, nq * n) is
        // an unwritten cell or a padding lane that leaked.
        const auto run = [&](auto kernel) {
          std::vector<float> out(nq * n + 16, std::nanf(""));
          kernel(out.data());
          for (size_t i = 0; i < nq * n; ++i) {
            EXPECT_FALSE(std::isnan(out[i])) << "cell " << i;
          }
          return Bits(out);
        };
        const std::vector<uint32_t> dot = run([&](float* out) {
          scalar.dot(queries.data(), nq, dim, tile.data(), n, out);
        });
        const std::vector<uint32_t> l1 = run([&](float* out) {
          scalar.neg_l1(queries.data(), nq, dim, tile.data(), n, out);
        });
        std::vector<uint32_t> cdist;
        if (dim % 2 == 0) {
          cdist = run([&](float* out) {
            scalar.neg_complex_dist(queries.data(), nq, dim, tile.data(), n,
                                    kEps, out);
          });
        }
        for (const ScoreKernels* impl : impls) {
          EXPECT_EQ(run([&](float* out) {
                      impl->dot(queries.data(), nq, dim, tile.data(), n, out);
                    }),
                    dot)
              << "dot under " << impl->name;
          EXPECT_EQ(run([&](float* out) {
                      impl->neg_l1(queries.data(), nq, dim, tile.data(), n,
                                   out);
                    }),
                    l1)
              << "neg_l1 under " << impl->name;
          if (dim % 2 != 0) continue;
          EXPECT_EQ(run([&](float* out) {
                      impl->neg_complex_dist(queries.data(), nq, dim,
                                             tile.data(), n, kEps, out);
                    }),
                    cdist)
              << "neg_complex_dist under " << impl->name;
        }
      }
    }
  }
}

/// Coordinates whose differences make x = dre^2 + dim^2 + eps land on every
/// sqrt input class when eps = 0: exactly 0, below 2^-100 (2^-60 squared),
/// denormal (2^-70 squared), an overflow to inf (3e19 squared), NaN
/// (inf - inf), and ordinary values. SqrtFma sends every class but the
/// last to its VSQRTPS fallback.
std::vector<float> SqrtEdgeInput(size_t size, Rng* rng) {
  static const float kPicks[] = {
      0.0f,   -0.0f, 0x1p-60f, -0x1p-60f, 0x1p-70f, 0x1p-64f,
      3e19f,  -3e19f, INFINITY, 0.5f,     1.0f,     -2.25f};
  std::vector<float> values(size);
  for (float& v : values) v = kPicks[rng->NextBounded(std::size(kPicks))];
  return values;
}

TEST(RawKernelParityTest, ComplexDistMatchesScalarAtSqrtEdgeInputs) {
  KernelGuard guard;
  std::vector<const ScoreKernels*> impls;
  for (const std::string& name : SupportedScoreKernelNames()) {
    ASSERT_TRUE(SelectScoreKernels(name).ok()) << name;
    impls.push_back(&ActiveScoreKernels());
  }
  const ScoreKernels& scalar = ScalarScoreKernels();
  Rng rng(44);
  int zero = 0, tiny = 0, inf = 0, nan = 0;
  for (float eps : {0.0f, 1e-9f}) {
    for (size_t nq : {1, 3, 4, 5}) {
      for (size_t n : {16, 17, 40}) {
        for (size_t dim : {2, 8}) {
          SCOPED_TRACE(testing::Message() << "eps=" << eps << " nq=" << nq
                                          << " n=" << n << " dim=" << dim);
          const std::vector<float> queries = SqrtEdgeInput(nq * dim, &rng);
          // Padding lanes hold edge values too; they never reach a cell.
          const std::vector<float> tile =
              SqrtEdgeInput(dim * TileStride(n), &rng);
          const auto run = [&](const ScoreKernels& k) {
            std::vector<float> out(nq * n);
            k.neg_complex_dist(queries.data(), nq, dim, tile.data(), n, eps,
                               out.data());
            return out;
          };
          const std::vector<float> reference = run(scalar);
          if (eps == 0.0f && dim == 2) {
            // One term per cell, so the cells show the classes reached.
            for (float v : reference) {
              zero += v == 0.0f;
              tiny += v != 0.0f && v > -0x1p-50f;  // sqrt of x < 2^-100.
              inf += std::isinf(v);
              nan += std::isnan(v);
            }
          }
          for (const ScoreKernels* impl : impls) {
            EXPECT_EQ(Bits(run(*impl)), Bits(reference))
                << "neg_complex_dist under " << impl->name;
          }
        }
      }
    }
  }
  EXPECT_GT(zero, 0);
  EXPECT_GT(tiny, 0);
  EXPECT_GT(inf, 0);
  EXPECT_GT(nan, 0);
}

#if defined(KGEVAL_X86_SIMD_KERNELS)
/// Lanes where kernel_impls::SqrtFma differs from VSQRTPS among the bit
/// patterns lo, lo + stride, ... below hi; (hi - lo) is a multiple of
/// 16 * stride. `first` gets the lowest mismatching pattern.
__attribute__((target("avx512f"))) uint64_t SqrtFmaMismatches(
    uint64_t lo, uint64_t hi, uint32_t stride, uint64_t* first) {
  const __m512i step = _mm512_set1_epi32(static_cast<int>(16 * stride));
  __m512i bits = _mm512_add_epi32(
      _mm512_set1_epi32(static_cast<int>(static_cast<uint32_t>(lo))),
      _mm512_mullo_epi32(
          _mm512_set1_epi32(static_cast<int>(stride)),
          _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                            15)));
  uint64_t mismatches = 0;
  for (uint64_t base = lo; base < hi; base += 16 * uint64_t{stride}) {
    const __m512 x = _mm512_castsi512_ps(bits);
    const __mmask16 differ = _mm512_cmpneq_epi32_mask(
        _mm512_castps_si512(kernel_impls::SqrtFma(x)),
        _mm512_castps_si512(_mm512_maskz_sqrt_ps(0xFFFF, x)));
    if (differ != 0) {
      if (mismatches == 0) {
        *first = base + uint64_t{stride} * __builtin_ctz(differ);
      }
      mismatches += __builtin_popcount(differ);
    }
    bits = _mm512_add_epi32(bits, step);
  }
  return mismatches;
}

TEST(SqrtFmaTest, MatchesVsqrtpsOnEveryBitPattern) {
  if (!kernel_impls::Avx512Supported()) {
    GTEST_SKIP() << "CPU has no AVX-512F; SqrtFma cannot run";
  }
  struct Range {
    uint64_t lo, hi;
    uint32_t stride;
  };
#if defined(NDEBUG)
  // Optimized builds sweep all 2^32 patterns in a few seconds.
  const Range kRanges[] = {{0, uint64_t{1} << 32, 1}};
#else
  // Unoptimized builds take every mantissa around both ends of the exact
  // range, [2^-127, 2^-95) and [2^126, NaN], and every 64th pattern
  // elsewhere, negatives included.
  const Range kRanges[] = {
      {0, uint64_t{33} << 23, 1},
      {uint64_t{33} << 23, uint64_t{253} << 23, 64},
      {uint64_t{253} << 23, uint64_t{1} << 31, 1},
      {uint64_t{1} << 31, uint64_t{1} << 32, 64},
  };
#endif
  for (const Range& range : kRanges) {
    uint64_t first = 0;
    EXPECT_EQ(SqrtFmaMismatches(range.lo, range.hi, range.stride, &first), 0u)
        << "patterns [" << range.lo << ", " << range.hi << ") every "
        << range.stride << "; first mismatch at bits 0x" << std::hex
        << first;
  }
}
#endif

/// A table of the bit patterns a copy must preserve: NaNs with payloads
/// (quiet and signalling, both signs), both zeros, denormals and both
/// infinities, mixed with ordinary values. No entry equals the output
/// sentinel std::nanf(""), so an unwritten cell cannot pass.
std::vector<float> GatherInput(size_t size, Rng* rng) {
  static const uint32_t kPicks[] = {
      0x7fc00001u, 0xffc0beefu, 0x7f800005u, 0xffa00007u,  // NaN payloads.
      0x00000000u, 0x80000000u,                            // +0, -0.
      0x00000001u, 0x807fffffu, 0x00400000u,               // Denormals.
      0x7f800000u, 0xff800000u};                           // +inf, -inf.
  std::vector<float> values(size);
  for (float& v : values) {
    if (rng->NextBounded(2) == 0) {
      std::memcpy(&v, &kPicks[rng->NextBounded(std::size(kPicks))],
                  sizeof(float));
    } else {
      v = static_cast<float>(-3.0 + 6.0 * rng->NextDouble());
    }
  }
  return values;
}

TEST(RawKernelParityTest, GatherMatchesScalarByteForByte) {
  KernelGuard guard;
  std::vector<const ScoreKernels*> impls;
  for (const std::string& name : SupportedScoreKernelNames()) {
    ASSERT_TRUE(SelectScoreKernels(name).ok()) << name;
    impls.push_back(&ActiveScoreKernels());
    ASSERT_NE(impls.back()->gather_t, nullptr) << name;
  }
  const ScoreKernels& scalar = ScalarScoreKernels();
  constexpr size_t kRows = 50;
  Rng rng(29);
  for (size_t n : {0, 1, 7, 8, 9, 15, 16, 17, 24, 33, 1705}) {
    for (size_t cols : {1, 2, 3, 7, 8, 9, 15, 16, 17, 32, 64, 200}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " cols=" << cols);
      const std::vector<float> table = GatherInput(kRows * cols, &rng);
      // Unsorted ids with repeats.
      std::vector<int32_t> ids(n);
      for (int32_t& id : ids) {
        id = static_cast<int32_t>(rng.NextBounded(kRows));
      }
      if (n >= 2) ids[n - 1] = ids[0];
      // NaN sentinels everywhere, 16 of them past the end: an unwritten
      // cell or an overrunning store fails the comparison.
      const size_t ld = TileStride(n);
      const auto run = [&](const ScoreKernels& k) {
        std::vector<float> out(cols * ld + 16, std::nanf(""));
        k.gather_t(table.data(), cols, ids.data(), n, out.data());
        return Bits(out);
      };
      const std::vector<uint32_t> reference = run(scalar);
      for (size_t i = 0; i < cols * ld; ++i) {
        const size_t k = i / ld, c = i % ld;
        // Padding columns [n, ld) repeat the last candidate.
        const size_t id = static_cast<size_t>(ids[std::min(c, n - 1)]);
        uint32_t want;
        std::memcpy(&want, &table[id * cols + k], sizeof(want));
        ASSERT_EQ(reference[i], want)
            << "scalar cell k=" << k << " c=" << c
            << (c >= n ? " (padding)" : "");
      }
      for (const ScoreKernels* impl : impls) {
        EXPECT_EQ(run(*impl), reference) << "gather_t under " << impl->name;
      }
    }
  }
}

}  // namespace
}  // namespace kgeval

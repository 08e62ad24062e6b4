#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <numeric>
#include <vector>

#include "core/adaptive_evaluator.h"
#include "core/sampled_evaluator.h"
#include "core/samplers.h"
#include "eval/full_evaluator.h"
#include "eval/protocol.h"
#include "eval/screen.h"
#include "la/kernels/kernels.h"
#include "models/kge_model.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "util/rng.h"

namespace kgeval {
namespace {

constexpr ModelType kAllModels[] = {
    ModelType::kTransE, ModelType::kDistMult, ModelType::kComplEx,
    ModelType::kRescal, ModelType::kRotatE,   ModelType::kTuckEr,
    ModelType::kConvE,  ModelType::kTComplEx};

ModelOptions SmallOptions() {
  ModelOptions options;
  options.dim = 16;
  options.seed = 7;
  return options;
}

Dataset SynthDataset() {
  SynthConfig config;
  config.num_entities = 500;
  config.num_relations = 12;
  config.num_types = 8;
  config.num_train = 6000;
  config.num_valid = 400;
  config.num_test = 400;
  config.seed = 42;
  return GenerateDataset(config).ValueOrDie().dataset;
}

Dataset TemporalSynthDataset(int32_t num_timestamps) {
  const Dataset base = SynthDataset();
  auto stamp = [num_timestamps](std::vector<Triple> triples) {
    for (Triple& t : triples) {
      t.time = (t.head * 31 + t.tail * 7 + t.relation) % num_timestamps;
    }
    return triples;
  };
  return Dataset(base.name() + "-temporal", base.num_entities(),
                 base.num_relations(), num_timestamps, stamp(base.train()),
                 stamp(base.valid()), stamp(base.test()), base.types());
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

// ---------------------------------------------------------------------------
// Dispatched-vs-scalar bit equality: every supported implementation must
// produce bit-identical prepared-pool and truth scores for every model and
// both query directions.

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
  const std::vector<int32_t> candidates = {11, 3, 27, 3, 0, 39, 18, 3};
  const std::vector<int32_t> anchors = {0, 5, 5, 17, 39, 2};
  const std::vector<int32_t> truths = {2, 9, 9, 0, 39, 24};
  const size_t n = candidates.size();
  const size_t q = anchors.size();
  CandidateBlock block;
  model->PrepareCandidates(candidates.data(), n, &block);

  struct Output {
    std::vector<float> pool, truth;
  };
  auto score_all = [&] {
    Output out;
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

INSTANTIATE_TEST_SUITE_P(AllModels, KernelParityTest,
                         ::testing::ValuesIn(kAllModels),
                         [](const ::testing::TestParamInfo<ModelType>& info) {
                           return ModelTypeName(info.param);
                         });

// ---------------------------------------------------------------------------
// Raw kernel parity: every exact ScoreKernels entry of every supported
// implementation, called directly, must reproduce the scalar reference bit
// for bit across shapes that reach every strip width, every query-group
// remainder and every column-chunk edge.

std::vector<uint32_t> Bits(const std::vector<float>& values) {
  std::vector<uint32_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(float));
  return bits;
}

/// Values drawn from a small set (ties within and across rows, both signed
/// zeros) mixed with uniform ones.
std::vector<float> KernelInput(size_t size, Rng* rng) {
  static const float kPicks[] = {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, -2.25f};
  std::vector<float> values(size);
  for (float& v : values) {
    v = rng->NextBounded(2) == 0
            ? kPicks[rng->NextBounded(std::size(kPicks))]
            : static_cast<float>(rng->NextUniform(-3.0, 3.0));
  }
  return values;
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
  for (size_t nq : {1, 3, 4, 5, 16, 17}) {
    for (size_t n : {1, 15, 16, 17, 31, 33, 63, 64, 65, 511, 512, 513,
                     1100}) {
      for (size_t dim : {1, 2, 3, 64}) {
        SCOPED_TRACE(testing::Message()
                     << "nq=" << nq << " n=" << n << " dim=" << dim);
        const std::vector<float> queries = KernelInput(nq * dim, &rng);
        const std::vector<float> tile = KernelInput(dim * n, &rng);
        // Every cell starts as a NaN sentinel, so a cell a kernel never
        // writes cannot match the reference; 16 sentinel cells past the
        // end catch a masked store that writes too far.
        const auto run = [&](auto kernel) {
          std::vector<float> out(nq * n + 16, std::nanf(""));
          kernel(out.data());
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

// ---------------------------------------------------------------------------
// Screening: the quantization error bound must dominate the actual
// |approx - exact| error, and the tile envelope bound must dominate every
// exact score — for each kernel family, on every supported implementation.

TEST(ScreenBoundTest, ErrorAndEnvelopeBoundsHoldForEveryKernelFamily) {
  KernelGuard guard;
  // DistMult = kDot, TransE = kNegL1, RotatE = kNegComplexDist, ConvE adds
  // the per-entity bias to the dot family.
  for (ModelType type : {ModelType::kDistMult, ModelType::kTransE,
                         ModelType::kRotatE, ModelType::kConvE}) {
    auto model = CreateModel(type, /*num_entities=*/60, /*num_relations=*/4,
                             SmallOptions())
                     .ValueOrDie();
    std::vector<int32_t> pool(60);
    std::iota(pool.begin(), pool.end(), 0);
    CandidateBlock block;
    model->PrepareCandidates(pool.data(), pool.size(), &block);
    ASSERT_TRUE(block.prepared);
    QuantizeCandidateBlock(&block);
    ASSERT_TRUE(block.quantized);

    const std::vector<int32_t> anchors = {0, 7, 31, 59, 12, 3};
    for (const std::string& name : SupportedScoreKernelNames()) {
      ASSERT_TRUE(SelectScoreKernels(name).ok()) << name;
      for (QueryDirection dir :
           {QueryDirection::kTail, QueryDirection::kHead}) {
        Matrix queries;
        model->BuildKernelQueries(anchors.data(), anchors.size(), 1, dir,
                                  &queries);
        const size_t dim = queries.cols();
        ScreenScratch scratch;
        ScreenApproxBlock(*model, queries, anchors.size(), block, &scratch);
        std::vector<float> exact(anchors.size() * pool.size());
        model->ScorePool(queries, block, exact.data());
        for (size_t i = 0; i < anchors.size(); ++i) {
          const float bound = ScreenErrorBound(model->batch_kernel(),
                                               queries.Row(i), dim, block);
          const float ub =
              TileScoreUpperBound(model->batch_kernel(), queries.Row(i), dim,
                                  block, model->batch_kernel_eps());
          EXPECT_GT(bound, 0.0f);
          for (size_t c = 0; c < pool.size(); ++c) {
            const float e = exact[i * pool.size() + c];
            const float a = scratch.approx[i * pool.size() + c];
            EXPECT_LE(std::fabs(a - e), bound)
                << ModelTypeName(type) << " kernels=" << name << " query "
                << i << " candidate " << c;
            EXPECT_LE(e, ub)
                << ModelTypeName(type) << " kernels=" << name << " query "
                << i << " candidate " << c;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ScreenRankBlock vs the exact FilteredRank, with duplicate candidates and
// an engineered score tie sitting exactly at the band edge.

TEST(ScreenRankBlockTest, MatchesFilteredRankWithDuplicatesAndTies) {
  auto model = CreateModel(ModelType::kDistMult, /*num_entities=*/40,
                           /*num_relations=*/6, SmallOptions())
                   .ValueOrDie();
  // Entity 9 becomes a bit-exact clone of entity 2: every query scores them
  // identically, so pools containing both produce exact ties — including at
  // the truth score whenever 2 is the truth (the band-edge case the screen
  // must keep, never skip).
  std::vector<KgeModel::NamedParameter> params;
  model->CollectParameters(&params);
  Matrix* entities = nullptr;
  for (const KgeModel::NamedParameter& p : params) {
    if (std::string(p.name) == "entities") entities = p.matrix;
  }
  ASSERT_NE(entities, nullptr);
  for (size_t k = 0; k < entities->cols(); ++k) {
    entities->Row(9)[k] = entities->Row(2)[k];
  }

  // Unsorted pool, duplicates of the truth (2), of its clone (9), and of an
  // unrelated candidate (3).
  const std::vector<int32_t> pool = {11, 3, 27, 3, 0,  39, 18, 2,
                                     9,  9, 2,  7, 25, 33, 1,  14};
  const std::vector<int32_t> anchors = {0, 5, 17, 39};
  const std::vector<int32_t> truths = {2, 2, 9, 24};
  const size_t n = pool.size();
  const size_t qb = anchors.size();
  CandidateBlock block;
  model->PrepareCandidates(pool.data(), n, &block);
  QuantizeCandidateBlock(&block);

  // Query 1 additionally filters the clone: its tie must vanish from the
  // screened count exactly as it does from FilteredRank's.
  const std::vector<int32_t> ans_truth2 = {2};
  const std::vector<int32_t> ans_truth2_filter9 = {2, 9};
  const std::vector<int32_t> ans_truth9 = {9};
  const std::vector<int32_t> ans_truth24 = {24};
  const std::vector<const std::vector<int32_t>*> answers = {
      &ans_truth2, &ans_truth2_filter9, &ans_truth9, &ans_truth24};

  for (QueryDirection dir : {QueryDirection::kTail, QueryDirection::kHead}) {
    for (TieBreak tie :
         {TieBreak::kMean, TieBreak::kOptimistic, TieBreak::kPessimistic}) {
      ScreenScratch scratch;
      ScreenStats stats;
      std::vector<double> screened(qb);
      ScreenRankBlock(*model, anchors.data(), truths.data(), qb, 3, dir,
                      block, answers.data(), tie, &scratch, screened.data(),
                      &stats);
      std::vector<float> scores(n), truth_score(1);
      for (size_t q = 0; q < qb; ++q) {
        model->ScoreCandidates(anchors[q], 3, dir, pool.data(), n,
                               scores.data());
        model->ScoreCandidates(anchors[q], 3, dir, &truths[q], 1,
                               truth_score.data());
        const double want =
            FilteredRank(pool.data(), scores.data(), n, truths[q],
                         truth_score[0], *answers[q], tie,
                         /*candidates_sorted=*/false);
        EXPECT_EQ(screened[q], want) << "query " << q;
      }
      EXPECT_EQ(stats.queries, static_cast<int64_t>(qb));
      EXPECT_EQ(stats.screened, static_cast<int64_t>(qb * n));
      EXPECT_GT(stats.rescored, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end rank parity: screening on vs off must be bit-identical for
// every model, every evaluator, and the temporal protocol.

TEST(ScreenedEvalTest, SampledRanksBitIdenticalForEveryModel) {
  const Dataset dataset = SynthDataset();
  const FilterIndex filter(dataset);
  Rng rng(13);
  const SampledCandidates pools = DrawCandidates(
      SamplingStrategy::kRandom, nullptr, dataset.num_entities(),
      /*n_s=*/60, NeededSlots(dataset, Split::kTest),
      2 * dataset.num_relations(), &rng);
  for (ModelType type : kAllModels) {
    auto model = CreateModel(type, dataset.num_entities(),
                             dataset.num_relations(), SmallOptions())
                     .ValueOrDie();
    const SampledEvalResult exact =
        EvaluateSampled(*model, dataset, filter, Split::kTest, pools);
    SampledEvalOptions screened_options;
    screened_options.screening = true;
    screened_options.screening_min_pool = 1;
    const SampledEvalResult screened = EvaluateSampled(
        *model, dataset, filter, Split::kTest, pools, screened_options);
    EXPECT_EQ(screened.ranks, exact.ranks) << ModelTypeName(type);
    EXPECT_DOUBLE_EQ(screened.metrics.mrr, exact.metrics.mrr)
        << ModelTypeName(type);
    EXPECT_EQ(screened.scored_candidates, exact.scored_candidates);
    EXPECT_EQ(exact.screen.queries, 0);
    EXPECT_GT(screened.screen.queries, 0) << ModelTypeName(type);
    EXPECT_GT(screened.screen.screened, 0) << ModelTypeName(type);
    // The whole point: the screen re-scores a subset of what it swept.
    EXPECT_LE(screened.screen.rescored, screened.screen.screened);
  }
}

TEST(ScreenedEvalTest, PoolsBelowMinSizeScoreExactlyUnscreened) {
  const Dataset dataset = SynthDataset();
  const FilterIndex filter(dataset);
  Rng rng(13);
  const SampledCandidates pools = DrawCandidates(
      SamplingStrategy::kRandom, nullptr, dataset.num_entities(),
      /*n_s=*/60, NeededSlots(dataset, Split::kTest),
      2 * dataset.num_relations(), &rng);
  auto model = CreateModel(ModelType::kDistMult, dataset.num_entities(),
                           dataset.num_relations(), SmallOptions())
                   .ValueOrDie();
  SampledEvalOptions options;
  options.screening = true;
  options.screening_min_pool = 1000;  // Larger than any pool: never screens.
  const SampledEvalResult result = EvaluateSampled(
      *model, dataset, filter, Split::kTest, pools, options);
  EXPECT_EQ(result.screen.queries, 0);
  EXPECT_EQ(result.screen.screened, 0);
}

TEST(ScreenedEvalTest, FullRankingBitIdenticalWithTileSkips) {
  const Dataset dataset = SynthDataset();
  const FilterIndex filter(dataset);
  for (ModelType type : {ModelType::kDistMult, ModelType::kTransE,
                         ModelType::kRotatE, ModelType::kConvE}) {
    auto model = CreateModel(type, dataset.num_entities(),
                             dataset.num_relations(), SmallOptions())
                     .ValueOrDie();
    FullEvalOptions exact_options;
    exact_options.max_triples = 40;
    exact_options.entity_tile = 64;  // 500 entities -> 8 tiles.
    const FullEvalResult exact = EvaluateFullRanking(
        *model, dataset, filter, Split::kTest, exact_options);
    FullEvalOptions screened_options = exact_options;
    screened_options.screening = true;
    const FullEvalResult screened = EvaluateFullRanking(
        *model, dataset, filter, Split::kTest, screened_options);
    EXPECT_EQ(screened.ranks, exact.ranks) << ModelTypeName(type);
    EXPECT_EQ(exact.screen.queries, 0);
    EXPECT_GT(screened.screen.queries, 0) << ModelTypeName(type);
    EXPECT_LE(screened.screen.rescored, screened.screen.screened);
  }
}

TEST(ScreenedEvalTest, AdaptiveStoppingDecisionUnchangedByScreening) {
  const Dataset dataset = SynthDataset();
  const FilterIndex filter(dataset);
  Rng rng(17);
  const SampledCandidates pools = DrawCandidates(
      SamplingStrategy::kRandom, nullptr, dataset.num_entities(),
      /*n_s=*/60, NeededSlots(dataset, Split::kTest),
      2 * dataset.num_relations(), &rng);
  auto model = CreateModel(ModelType::kComplEx, dataset.num_entities(),
                           dataset.num_relations(), SmallOptions())
                   .ValueOrDie();
  AdaptiveEvalOptions options;
  options.target_half_width = 0.05;
  options.batch_queries = 128;
  options.min_queries = 128;
  const AdaptiveEvalResult exact = EvaluateAdaptive(
      *model, dataset, filter, Split::kTest, pools, options);
  AdaptiveEvalOptions screened_options = options;
  screened_options.screening = true;
  screened_options.screening_min_pool = 1;
  const AdaptiveEvalResult screened = EvaluateAdaptive(
      *model, dataset, filter, Split::kTest, pools, screened_options);
  // Bit-identical ranks mean the accumulator, the interval, and therefore
  // the stopping round are identical too.
  EXPECT_EQ(screened.ranks, exact.ranks);
  EXPECT_EQ(screened.rounds, exact.rounds);
  EXPECT_EQ(screened.converged, exact.converged);
  EXPECT_EQ(screened.evaluated_queries, exact.evaluated_queries);
  EXPECT_DOUBLE_EQ(screened.metrics.mrr, exact.metrics.mrr);
  EXPECT_GT(screened.screen.queries, 0);
  EXPECT_EQ(exact.screen.queries, 0);
}

TEST(ScreenedEvalTest, TemporalProtocolRanksBitIdentical) {
  const Dataset dataset = TemporalSynthDataset(/*num_timestamps=*/5);
  const TemporalFilterIndex filter(dataset);
  const TemporalFilteredProtocol protocol(dataset, &filter);
  Rng rng(19);
  const SampledCandidates pools = DrawCandidates(
      SamplingStrategy::kRandom, nullptr, dataset.num_entities(),
      /*n_s=*/60, NeededSlots(dataset, Split::kTest),
      2 * dataset.num_relations(), &rng);
  ModelOptions model_options = SmallOptions();
  model_options.num_timestamps = dataset.num_timestamps();
  for (ModelType type : {ModelType::kTComplEx, ModelType::kRotatE}) {
    auto model = CreateModel(type, dataset.num_entities(),
                             dataset.num_relations(), model_options)
                     .ValueOrDie();
    const SampledEvalResult exact =
        EvaluateSampled(*model, dataset, protocol, Split::kTest, pools);
    SampledEvalOptions screened_options;
    screened_options.screening = true;
    screened_options.screening_min_pool = 1;
    const SampledEvalResult screened = EvaluateSampled(
        *model, dataset, protocol, Split::kTest, pools, screened_options);
    EXPECT_EQ(screened.ranks, exact.ranks) << ModelTypeName(type);
    EXPECT_GT(screened.screen.queries, 0) << ModelTypeName(type);
  }
}

TEST(ScreenedEvalTest, ExhaustivePoolsMatchScreenedFullRanking) {
  const Dataset dataset = SynthDataset();
  const FilterIndex filter(dataset);
  SampledCandidates pools;
  std::vector<int32_t> all(dataset.num_entities());
  std::iota(all.begin(), all.end(), 0);
  pools.pools.assign(2 * dataset.num_relations(), all);
  auto model = CreateModel(ModelType::kDistMult, dataset.num_entities(),
                           dataset.num_relations(), SmallOptions())
                   .ValueOrDie();
  SampledEvalOptions sampled_options;
  sampled_options.max_triples = 40;
  sampled_options.screening = true;
  const SampledEvalResult sampled = EvaluateSampled(
      *model, dataset, filter, Split::kTest, pools, sampled_options);
  FullEvalOptions full_options;
  full_options.max_triples = 40;
  full_options.screening = true;
  full_options.entity_tile = 128;
  const FullEvalResult full = EvaluateFullRanking(
      *model, dataset, filter, Split::kTest, full_options);
  // Exhaustive pools rank against exactly the entity set, so the screened
  // sampled pass and the screened (tiled) full pass must agree rank-for-
  // rank — and both screens must have actually engaged.
  EXPECT_EQ(sampled.ranks, full.ranks);
  EXPECT_GT(sampled.screen.queries, 0);
  EXPECT_GT(full.screen.queries, 0);
}

}  // namespace
}  // namespace kgeval

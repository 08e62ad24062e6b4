#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "synth/config.h"
#include "synth/generator.h"

namespace kgeval {
namespace {

SynthConfig SmallConfig() {
  SynthConfig config;
  config.name = "unit";
  config.num_entities = 400;
  config.num_relations = 12;
  config.num_types = 10;
  config.num_train = 5000;
  config.num_valid = 400;
  config.num_test = 400;
  config.seed = 321;
  return config;
}

/// FNV-1a over everything GenerateDataset returns: the three splits in
/// order, both TypeStores, the relation profiles, the noisy test indices and
/// the labels. Values are fed as little-endian 64-bit words and strings as
/// length + bytes, so the digest does not depend on struct padding.
class Fnv1a {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void Add(const std::string& text) {
    Add(static_cast<uint64_t>(text.size()));
    for (unsigned char c : text) {
      hash_ ^= c;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void AddInts(const std::vector<int32_t>& values) {
    Add(static_cast<uint64_t>(values.size()));
    for (int32_t v : values) Add(static_cast<uint64_t>(static_cast<int64_t>(v)));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

void AddTypeStore(const TypeStore& store, Fnv1a* fnv) {
  fnv->Add(static_cast<uint64_t>(store.num_entities()));
  fnv->Add(static_cast<uint64_t>(store.num_types()));
  for (int32_t e = 0; e < store.num_entities(); ++e) {
    fnv->AddInts(store.TypesOf(e));
  }
  for (int32_t t = 0; t < store.num_types(); ++t) {
    fnv->AddInts(store.EntitiesOf(t));
  }
}

uint64_t OutputDigest(const SynthOutput& out) {
  Fnv1a fnv;
  const Dataset& d = out.dataset;
  fnv.Add(d.name());
  fnv.Add(static_cast<uint64_t>(d.num_entities()));
  fnv.Add(static_cast<uint64_t>(d.num_relations()));
  for (Split s : {Split::kTrain, Split::kValid, Split::kTest}) {
    fnv.Add(static_cast<uint64_t>(d.split(s).size()));
    for (const Triple& t : d.split(s)) {
      // 0 fills the retired time column, so the pinned digests still hold.
      fnv.AddInts({t.head, t.relation, t.tail, 0});
    }
  }
  AddTypeStore(out.true_types, &fnv);
  AddTypeStore(d.types(), &fnv);
  fnv.Add(static_cast<uint64_t>(out.profiles.size()));
  for (const RelationProfile& profile : out.profiles) {
    fnv.AddInts(profile.domain_types);
    fnv.AddInts(profile.range_types);
    fnv.Add(static_cast<uint64_t>(profile.cardinality));
  }
  fnv.Add(static_cast<uint64_t>(out.noisy_test_indices.size()));
  for (int64_t i : out.noisy_test_indices) fnv.Add(static_cast<uint64_t>(i));
  for (int32_t e = 0; e < d.num_entities(); ++e) fnv.Add(d.EntityLabel(e));
  for (int32_t r = 0; r < d.num_relations(); ++r) {
    fnv.Add(d.RelationLabel(r));
  }
  return fnv.value();
}

TEST(SynthConfigTest, DefaultsValidate) {
  EXPECT_TRUE(SynthConfig().Validate().ok());
}

TEST(SynthConfigTest, RejectsBadCounts) {
  SynthConfig config;
  config.num_entities = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(SynthConfigTest, RejectsBadCardinalityMix) {
  SynthConfig config;
  config.frac_mn = 0.9;  // Sums to 1.3 with the other defaults.
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(SynthConfigTest, RejectsBadNoise) {
  SynthConfig config;
  config.noise_rate = 1.5;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(PresetTest, AllNamesResolve) {
  for (const std::string& name : PresetNames()) {
    for (PresetScale scale : {PresetScale::kScaled, PresetScale::kPaper}) {
      auto preset = GetPreset(name, scale);
      ASSERT_TRUE(preset.ok()) << name;
      EXPECT_TRUE(preset.ValueOrDie().Validate().ok()) << name;
    }
  }
}

TEST(PresetTest, UnknownNameErrors) {
  EXPECT_EQ(GetPreset("fb16k", PresetScale::kScaled).status().code(),
            StatusCode::kNotFound);
}

TEST(PresetTest, PaperScaleMatchesTable4) {
  const SynthConfig wiki =
      GetPreset("wikikg2", PresetScale::kPaper).ValueOrDie();
  EXPECT_EQ(wiki.num_entities, 2500604);
  EXPECT_EQ(wiki.num_relations, 535);
  const SynthConfig codexl =
      GetPreset("codex-l", PresetScale::kPaper).ValueOrDie();
  EXPECT_EQ(codexl.num_entities, 77951);
  EXPECT_EQ(codexl.num_relations, 69);
}

TEST(PresetTest, ScaledPreservesSizeOrdering) {
  auto entities = [](const std::string& name) {
    return GetPreset(name, PresetScale::kScaled).ValueOrDie().num_entities;
  };
  EXPECT_LT(entities("codex-s"), entities("codex-m"));
  EXPECT_LT(entities("codex-m"), entities("codex-l"));
  EXPECT_LT(entities("codex-l"), entities("wikikg2"));
}

class GeneratorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    output_ = new SynthOutput(
        GenerateDataset(SmallConfig()).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete output_;
    output_ = nullptr;
  }
  static SynthOutput* output_;
};

SynthOutput* GeneratorTest::output_ = nullptr;

TEST_F(GeneratorTest, SplitSizesMatchConfig) {
  const Dataset& d = output_->dataset;
  EXPECT_EQ(d.valid().size(), 400u);
  EXPECT_EQ(d.test().size(), 400u);
  EXPECT_EQ(d.train().size() + d.valid().size() + d.test().size(), 5800u);
}

TEST_F(GeneratorTest, IdsInRange) {
  const Dataset& d = output_->dataset;
  for (Split s : {Split::kTrain, Split::kValid, Split::kTest}) {
    for (const Triple& t : d.split(s)) {
      EXPECT_GE(t.head, 0);
      EXPECT_LT(t.head, d.num_entities());
      EXPECT_GE(t.tail, 0);
      EXPECT_LT(t.tail, d.num_entities());
      EXPECT_GE(t.relation, 0);
      EXPECT_LT(t.relation, d.num_relations());
      EXPECT_NE(t.head, t.tail);
    }
  }
}

TEST_F(GeneratorTest, NoDuplicateTriples) {
  const Dataset& d = output_->dataset;
  std::unordered_set<Triple, TripleHash> seen;
  size_t total = 0;
  for (Split s : {Split::kTrain, Split::kValid, Split::kTest}) {
    for (const Triple& t : d.split(s)) {
      seen.insert(t);
      ++total;
    }
  }
  EXPECT_EQ(seen.size(), total);
}

TEST_F(GeneratorTest, EvalEntitiesAppearInTrain) {
  // The standard KGC guarantee: every entity/relation in valid/test occurs
  // in train (otherwise embeddings would be untrained).
  const Dataset& d = output_->dataset;
  std::unordered_set<int32_t> train_entities, train_relations;
  for (const Triple& t : d.train()) {
    train_entities.insert(t.head);
    train_entities.insert(t.tail);
    train_relations.insert(t.relation);
  }
  for (Split s : {Split::kValid, Split::kTest}) {
    for (const Triple& t : d.split(s)) {
      EXPECT_TRUE(train_entities.count(t.head)) << "head " << t.head;
      EXPECT_TRUE(train_entities.count(t.tail)) << "tail " << t.tail;
      EXPECT_TRUE(train_relations.count(t.relation));
    }
  }
}

TEST_F(GeneratorTest, CardinalityConstraintsHold) {
  const Dataset& d = output_->dataset;
  for (int32_t r = 0; r < d.num_relations(); ++r) {
    const Cardinality card = output_->profiles[r].cardinality;
    std::unordered_map<int32_t, int> head_counts, tail_counts;
    for (Split s : {Split::kTrain, Split::kValid, Split::kTest}) {
      for (const Triple& t : d.split(s)) {
        if (t.relation != r) continue;
        ++head_counts[t.head];
        ++tail_counts[t.tail];
      }
    }
    if (card == Cardinality::kManyOne || card == Cardinality::kOneOne) {
      for (const auto& [head, count] : head_counts) {
        EXPECT_EQ(count, 1) << "head-unique violated for relation " << r;
      }
    }
    if (card == Cardinality::kOneMany || card == Cardinality::kOneOne) {
      for (const auto& [tail, count] : tail_counts) {
        EXPECT_EQ(count, 1) << "tail-unique violated for relation " << r;
      }
    }
  }
}

TEST_F(GeneratorTest, EveryEntityHasAPublishedType) {
  const Dataset& d = output_->dataset;
  for (int32_t e = 0; e < d.num_entities(); ++e) {
    EXPECT_FALSE(d.types().TypesOf(e).empty()) << "entity " << e;
  }
}

TEST_F(GeneratorTest, NonNoiseTriplesRespectSignatures) {
  // Every test triple that is not flagged as noise must have a head whose
  // *true* types intersect the relation's domain signature (and likewise
  // for tails).
  const Dataset& d = output_->dataset;
  std::unordered_set<int64_t> noisy(output_->noisy_test_indices.begin(),
                                    output_->noisy_test_indices.end());
  for (size_t i = 0; i < d.test().size(); ++i) {
    if (noisy.count(static_cast<int64_t>(i))) continue;
    const Triple& t = d.test()[i];
    const RelationProfile& profile = output_->profiles[t.relation];
    const auto has_any = [&](int32_t entity,
                             const std::vector<int32_t>& wanted) {
      const std::vector<int32_t>& types = output_->true_types.TypesOf(entity);
      return std::any_of(wanted.begin(), wanted.end(), [&](int32_t type) {
        return std::binary_search(types.begin(), types.end(), type);
      });
    };
    const bool head_ok = has_any(t.head, profile.domain_types);
    const bool tail_ok = has_any(t.tail, profile.range_types);
    EXPECT_TRUE(head_ok) << "test triple " << i;
    EXPECT_TRUE(tail_ok) << "test triple " << i;
  }
}

TEST_F(GeneratorTest, LabelsAttached) {
  // Generated labels name the primary type ("T<type>_E<id>",
  // "rel<id>_d..."); the unlabeled fallbacks are plain "E<id>" / "R<id>".
  const Dataset& d = output_->dataset;
  const int32_t last_entity = d.num_entities() - 1;
  const int32_t last_relation = d.num_relations() - 1;
  EXPECT_EQ(d.EntityLabel(0).rfind("T", 0), 0u) << d.EntityLabel(0);
  EXPECT_NE(d.EntityLabel(0).find("_E0"), std::string::npos);
  EXPECT_NE(d.EntityLabel(last_entity)
                .find("_E" + std::to_string(last_entity)),
            std::string::npos)
      << d.EntityLabel(last_entity);
  EXPECT_EQ(d.RelationLabel(last_relation)
                .rfind("rel" + std::to_string(last_relation) + "_", 0),
            0u)
      << d.RelationLabel(last_relation);
}

TEST(GeneratorDeterminismTest, SameSeedSameData) {
  SynthConfig config = SmallConfig();
  SynthOutput a = GenerateDataset(config).ValueOrDie();
  SynthOutput b = GenerateDataset(config).ValueOrDie();
  ASSERT_EQ(a.dataset.train().size(), b.dataset.train().size());
  for (size_t i = 0; i < a.dataset.train().size(); ++i) {
    EXPECT_EQ(a.dataset.train()[i], b.dataset.train()[i]);
  }
  EXPECT_EQ(a.noisy_test_indices, b.noisy_test_indices);
}

// Golden digests of every preset at scaled size and of three paper-scale
// presets. The generator's output is part of the determinism contract
// (docs/ARCHITECTURE.md): served clients rebuild the server's dataset
// locally, so any change to the RNG stream or to how a draw is used must
// show up here, not only as a mismatch between two calls in one process.
struct GoldenDigest {
  const char* preset;
  PresetScale scale;
  uint64_t digest;
};

constexpr GoldenDigest kGoldenDigests[] = {
    {"fb15k", PresetScale::kScaled, 0x0F0615EC4E906F7BULL},
    {"fb15k237", PresetScale::kScaled, 0x966CE590A3E90043ULL},
    {"yago310", PresetScale::kScaled, 0xE03C38749426F71BULL},
    {"wikikg2", PresetScale::kScaled, 0x4944AC2A08EA5010ULL},
    {"codex-s", PresetScale::kScaled, 0x7CF6AA6844AD55A0ULL},
    {"codex-m", PresetScale::kScaled, 0xEF7173C3AD161D25ULL},
    {"codex-l", PresetScale::kScaled, 0x0FA1F4F611C9BC85ULL},
    {"codex-s", PresetScale::kPaper, 0x69C997B0C01787D9ULL},
    {"codex-m", PresetScale::kPaper, 0x9BFA018E34E88E44ULL},
    {"fb15k237", PresetScale::kPaper, 0x40DADA3FD49949E3ULL},
};

// All relations one-to-one on 300 entities: the triple loop spends its
// whole attempt budget and the splits shrink.
SynthConfig AttemptCapConfig() {
  SynthConfig config;
  config.name = "attempt-cap";
  config.num_entities = 300;
  config.num_types = 10;
  config.frac_mn = 0.0;
  config.frac_1m = 0.0;
  config.frac_m1 = 0.0;
  config.frac_11 = 1.0;
  config.num_train = 3000;
  config.num_valid = 200;
  config.num_test = 200;
  config.seed = 77;
  return config;
}

// More types than entities and one type per signature: some types have no
// member, so some relations have an empty domain or range pool, and the
// loop still reaches its target.
SynthConfig EmptyPoolConfig() {
  SynthConfig config;
  config.name = "empty-pools";
  config.num_entities = 200;
  config.num_types = 250;
  config.num_type_groups = 1;
  config.max_signature_types = 1;
  config.type_zipf = 1.0;
  config.signature_zipf = 1.0;
  config.extra_type_prob = 0.9;
  config.num_relations = 20;
  config.num_train = 400;
  config.num_valid = 40;
  config.num_test = 40;
  config.seed = 4;
  return config;
}

int64_t TotalTriples(const Dataset& d) {
  return static_cast<int64_t>(d.train().size() + d.valid().size() +
                              d.test().size());
}

bool HasEmptyPool(const SynthOutput& out, int32_t r) {
  const auto empty = [&](const std::vector<int32_t>& types) {
    return std::all_of(types.begin(), types.end(), [&](int32_t t) {
      return out.true_types.EntitiesOf(t).empty();
    });
  };
  return empty(out.profiles[r].domain_types) ||
         empty(out.profiles[r].range_types);
}

TEST(GeneratorDeterminismTest, GoldenDigests) {
  for (const GoldenDigest& golden : kGoldenDigests) {
    const SynthConfig config =
        GetPreset(golden.preset, golden.scale).ValueOrDie();
    const uint64_t digest =
        OutputDigest(GenerateDataset(config).ValueOrDie());
    EXPECT_EQ(digest, golden.digest)
        << golden.preset
        << (golden.scale == PresetScale::kPaper ? " (paper)" : " (scaled)")
        << " digest 0x" << std::hex << std::uppercase << digest;
  }

  // The two loop exits no preset takes.
  const SynthOutput capped = GenerateDataset(AttemptCapConfig()).ValueOrDie();
  EXPECT_LT(TotalTriples(capped.dataset), 3400);
  EXPECT_EQ(OutputDigest(capped), 0x1CA9A20D438199DFULL)
      << "attempt-cap digest 0x" << std::hex << std::uppercase
      << OutputDigest(capped);

  const SynthOutput sparse = GenerateDataset(EmptyPoolConfig()).ValueOrDie();
  EXPECT_EQ(TotalTriples(sparse.dataset), 480);
  int32_t empty_relations = 0;
  for (int32_t r = 0; r < 20; ++r) empty_relations += HasEmptyPool(sparse, r);
  EXPECT_GT(empty_relations, 0);
  for (const Triple& t : sparse.dataset.train()) {
    EXPECT_FALSE(HasEmptyPool(sparse, t.relation)) << t.relation;
  }
  EXPECT_EQ(OutputDigest(sparse), 0xF4BA59CC61D6AAC4ULL)
      << "empty-pools digest 0x" << std::hex << std::uppercase
      << OutputDigest(sparse);
}

TEST(GeneratorDeterminismTest, DifferentSeedDifferentData) {
  SynthConfig config = SmallConfig();
  SynthOutput a = GenerateDataset(config).ValueOrDie();
  config.seed = 9999;
  SynthOutput b = GenerateDataset(config).ValueOrDie();
  int differences = 0;
  const size_t n = std::min(a.dataset.train().size(),
                            b.dataset.train().size());
  for (size_t i = 0; i < n; ++i) {
    if (!(a.dataset.train()[i] == b.dataset.train()[i])) ++differences;
  }
  EXPECT_GT(differences, 0);
}

// Five hundred groups of two types each: a relation's signature draw can
// miss its group on every try. Such a relation still needs a non-empty
// signature (its pools and its label read the first type).
TEST(GeneratorConfigTest, SparseTypeGroupsKeepSignaturesNonEmpty) {
  SynthConfig config;
  config.name = "sparse-groups";
  config.num_types = 1000;
  config.num_type_groups = 500;
  config.num_entities = 3000;
  config.num_relations = 60;
  config.num_train = 2000;
  config.num_valid = 100;
  config.num_test = 100;
  ASSERT_TRUE(config.Validate().ok());
  const SynthOutput out = GenerateDataset(config).ValueOrDie();
  ASSERT_EQ(out.profiles.size(), 60u);
  for (int32_t r = 0; r < 60; ++r) {
    const RelationProfile& profile = out.profiles[r];
    ASSERT_FALSE(profile.domain_types.empty()) << "relation " << r;
    ASSERT_FALSE(profile.range_types.empty()) << "relation " << r;
    EXPECT_EQ(out.dataset.RelationLabel(r),
              "rel" + std::to_string(r) + "_d" +
                  std::to_string(profile.domain_types[0]) + "_r" +
                  std::to_string(profile.range_types[0]));
  }
}

TEST(GeneratorNoiseTest, NoiseRateControlsFalseEasyNegatives) {
  SynthConfig clean = SmallConfig();
  clean.noise_rate = 0.0;
  const SynthOutput no_noise = GenerateDataset(clean).ValueOrDie();
  EXPECT_TRUE(no_noise.noisy_test_indices.empty());

  SynthConfig noisy = SmallConfig();
  noisy.noise_rate = 0.05;
  const SynthOutput with_noise = GenerateDataset(noisy).ValueOrDie();
  EXPECT_FALSE(with_noise.noisy_test_indices.empty());
}

TEST(GeneratorConfigTest, InvalidConfigRejected) {
  SynthConfig config = SmallConfig();
  config.num_types = 0;
  EXPECT_FALSE(GenerateDataset(config).ok());
}

}  // namespace
}  // namespace kgeval

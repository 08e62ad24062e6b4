#include "synth/generator.h"

#include <algorithm>
#include <map>

#include "graph/triple.h"
#include "sched/task_group.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace kgeval {
namespace {

/// Insert-only open-addressed set of 64-bit keys with linear probing over
/// a power-of-two table that doubles past half load. Keys are entity ids or
/// PackPair'd id pairs: both ids are non-negative int32, so every key has
/// bit 63 clear and ~0 is free as the empty slot.
class FlatSet {
 public:
  static constexpr uint64_t kEmpty = ~0ULL;

  FlatSet() : slots_(16, kEmpty) {}

  bool Contains(uint64_t key) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = PairHash()(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == key) return true;
      if (slots_[i] == kEmpty) return false;
    }
  }

  /// Returns false if `key` was already present.
  bool Insert(uint64_t key) {
    const size_t mask = slots_.size() - 1;
    size_t i = PairHash()(key) & mask;
    for (; slots_[i] != kEmpty; i = (i + 1) & mask) {
      if (slots_[i] == key) return false;
    }
    slots_[i] = key;
    if (++size_ * 2 > slots_.size()) Grow();
    return true;
  }

 private:
  void Grow() {
    std::vector<uint64_t> old(slots_.size() * 2, kEmpty);
    old.swap(slots_);
    size_ = 0;
    for (uint64_t key : old) {
      if (key != kEmpty) Insert(key);
    }
  }

  std::vector<uint64_t> slots_;
  size_t size_ = 0;
};

/// Dedup state of one relation. Every check of the triple loop is keyed by
/// the relation (a triple, or a (relation, head) / (relation, tail) pair),
/// so relations deduplicate independently of each other.
struct RelationDedup {
  bool head_unique = false;
  bool tail_unique = false;
  FlatSet seen;  // PackPair(head, tail)
  /// Heads and tails already used by a head-unique / tail-unique relation.
  FlatSet used_heads, used_tails;

  /// Whether (h, ·, t) is new and respects the cardinality; records it if so.
  bool Accept(int32_t h, int32_t t) {
    if (head_unique && used_heads.Contains(static_cast<uint64_t>(h))) {
      return false;
    }
    if (tail_unique && used_tails.Contains(static_cast<uint64_t>(t))) {
      return false;
    }
    if (!seen.Insert(PackPair(h, t))) return false;
    if (head_unique) used_heads.Insert(static_cast<uint64_t>(h));
    if (tail_unique) used_tails.Insert(static_cast<uint64_t>(t));
    return true;
  }
};

/// Attempts drawn, mapped and deduplicated per round of the triple loop.
constexpr int64_t kAttemptBatch = 1 << 15;

/// Group of a type: modulo assignment interleaves big and small types so
/// every group gets a mix of popular and niche types.
int32_t GroupOf(int32_t type, int32_t num_groups) {
  return type % num_groups;
}

/// Samples `count` distinct types from one group, Zipf-weighted so that
/// common types serve many relations (signature overlap within a group is
/// what gives L-WD's co-occurrence graph its block structure).
std::vector<int32_t> SampleSignatureInGroup(const ZipfSampler& type_sampler,
                                            int32_t count, int32_t group,
                                            int32_t num_groups, Rng* rng) {
  std::vector<int32_t> out;
  int guard = 0;
  while (static_cast<int32_t>(out.size()) < count && guard++ < 2000) {
    const int32_t t = static_cast<int32_t>(type_sampler.Sample(rng));
    if (GroupOf(t, num_groups) != group) continue;
    if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
  }
  // A rare group (many small groups) can miss every try. Fall back to its
  // lowest type id, the group's most popular type: a relation needs a
  // non-empty signature to get a pool and a label.
  if (out.empty()) out.push_back(group);
  std::sort(out.begin(), out.end());
  return out;
}

Cardinality SampleCardinality(const SynthConfig& config, Rng* rng) {
  const double u = rng->NextDouble();
  if (u < config.frac_mn) return Cardinality::kManyMany;
  if (u < config.frac_mn + config.frac_1m) return Cardinality::kOneMany;
  if (u < config.frac_mn + config.frac_1m + config.frac_m1) {
    return Cardinality::kManyOne;
  }
  return Cardinality::kOneOne;
}

}  // namespace

Result<SynthOutput> GenerateDataset(const SynthConfig& config) {
  KGEVAL_RETURN_NOT_OK(config.Validate());
  Rng rng(config.seed);

  const int32_t num_e = config.num_entities;
  const int32_t num_r = config.num_relations;
  const int32_t num_t = config.num_types;

  // --- 1. Entity types (structural ground truth). -------------------------
  const int32_t num_g = std::min(config.num_type_groups, num_t);
  TypeStore true_types(num_e, num_t);
  std::vector<int32_t> primary_type(num_e);
  ZipfSampler type_sampler(num_t, config.type_zipf);
  // Extra types stay inside the primary type's group (a film is also a
  // creative work, not also a protein).
  auto sample_type_in_group = [&](int32_t group) -> int32_t {
    for (int guard = 0; guard < 200; ++guard) {
      const int32_t t = static_cast<int32_t>(type_sampler.Sample(&rng));
      if (GroupOf(t, num_g) == group) return t;
    }
    return -1;
  };
  for (int32_t e = 0; e < num_e; ++e) {
    // Seed every type with at least one member, then Zipf for the rest.
    const int32_t primary =
        e < num_t ? e : static_cast<int32_t>(type_sampler.Sample(&rng));
    primary_type[e] = primary;
    true_types.Assign(e, primary);
    const int32_t group = GroupOf(primary, num_g);
    if (rng.NextDouble() < config.extra_type_prob) {
      const int32_t extra = sample_type_in_group(group);
      if (extra >= 0) true_types.Assign(e, extra);
      if (rng.NextDouble() < config.extra_type_prob) {
        const int32_t extra2 = sample_type_in_group(group);
        if (extra2 >= 0) true_types.Assign(e, extra2);
      }
    }
  }
  true_types.Seal();

  // --- 2. Relation signatures and pools. ----------------------------------
  ZipfSampler signature_sampler(num_t, config.signature_zipf);
  std::vector<RelationProfile> profiles(num_r);
  std::vector<std::vector<int32_t>> domain_pool(num_r), range_pool(num_r);
  for (int32_t r = 0; r < num_r; ++r) {
    RelationProfile& profile = profiles[r];
    // Domain group = group of a Zipf-sampled anchor type; the range stays in
    // the same group unless this is a cross-group relation (person->place).
    const int32_t domain_group = GroupOf(
        static_cast<int32_t>(signature_sampler.Sample(&rng)), num_g);
    int32_t range_group = domain_group;
    if (rng.NextDouble() < config.cross_group_rate) {
      range_group = GroupOf(
          static_cast<int32_t>(signature_sampler.Sample(&rng)), num_g);
    }
    const int32_t sig =
        1 + static_cast<int32_t>(
                rng.NextBounded(config.max_signature_types));
    profile.domain_types = SampleSignatureInGroup(signature_sampler, sig,
                                                  domain_group, num_g, &rng);
    const int32_t sig2 =
        1 + static_cast<int32_t>(
                rng.NextBounded(config.max_signature_types));
    profile.range_types = SampleSignatureInGroup(signature_sampler, sig2,
                                                 range_group, num_g, &rng);
    profile.cardinality = SampleCardinality(config, &rng);

    auto build_pool = [&](const std::vector<int32_t>& types) {
      std::vector<int32_t> pool;
      for (int32_t t : types) {
        const auto& members = true_types.EntitiesOf(t);
        pool.insert(pool.end(), members.begin(), members.end());
      }
      std::sort(pool.begin(), pool.end());
      pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
      return pool;
    };
    domain_pool[r] = build_pool(profile.domain_types);
    range_pool[r] = build_pool(profile.range_types);
  }

  // Latent affinity structure (see SynthConfig): entity clusters, a per-
  // relation head-cluster -> tail-cluster map, and per-(relation, cluster)
  // range sub-pools.
  const int32_t num_c = config.num_clusters;
  std::vector<int32_t> cluster(num_e);
  for (int32_t e = 0; e < num_e; ++e) {
    cluster[e] = static_cast<int32_t>(rng.NextBounded(num_c));
  }
  std::vector<std::vector<int32_t>> cluster_map(num_r);
  std::vector<std::vector<std::vector<int32_t>>> range_by_cluster(num_r);
  for (int32_t r = 0; r < num_r; ++r) {
    cluster_map[r].resize(num_c);
    for (int32_t c = 0; c < num_c; ++c) {
      cluster_map[r][c] = static_cast<int32_t>(rng.NextBounded(num_c));
    }
    range_by_cluster[r].resize(num_c);
    for (int32_t e : range_pool[r]) {
      range_by_cluster[r][cluster[e]].push_back(e);
    }
  }

  // --- 3. Triples. ---------------------------------------------------------
  // Attempts run in batches of kAttemptBatch and consume the RNG exactly as
  // one attempt after another would. Each batch takes four steps:
  //  1. Draw: one sequential pass takes the uniforms. Which draws an
  //     attempt makes never depends on dedup, only on what it drew: an
  //     empty pool ends it after the relation, and the affinity coin is
  //     skipped when the head's cluster-preferred sub-pool is empty. Only
  //     when some relation has such a gap does this pass resolve the
  //     relation, and the head of a relation with an affine gap.
  //  2. Map: the uniforms become (h, r, t), in parallel.
  //  3. Dedup: every dedup key carries the relation, so whether an attempt
  //     is accepted depends only on earlier attempts of its relation. Each
  //     relation runs its attempts in order; relations run in parallel.
  //  4. Merge: accepted triples append in attempt order. At the attempt
  //     that reaches the target, the RNG rewinds to the batch's start and
  //     replays the draws up to it, so what follows the loop sees the same
  //     stream.
  const int64_t target =
      config.num_train + config.num_valid + config.num_test;
  ZipfSampler relation_sampler(num_r, config.relation_zipf);

  std::vector<Triple> triples;
  triples.reserve(target);
  std::vector<bool> is_noise;
  is_noise.reserve(target);
  {
    // Samplers and dedup sets live only while triples are drawn (the seen
    // sets are the largest allocation of a paper-scale build). Entity
    // popularity within a pool is Zipf over its size: every pool's sampler
    // is resolved here, once, from one sampler per distinct size; samplers
    // draw no randomness, so building them eagerly changes nothing.
    std::map<size_t, ZipfSampler> samplers_by_size;
    struct PoolDraw {
      const int32_t* ids = nullptr;
      const ZipfSampler* sampler = nullptr;

      int32_t At(double u) const { return ids[sampler->IndexOf(u)]; }
    };
    auto resolve = [&](const std::vector<int32_t>& pool) {
      PoolDraw draw;
      if (pool.empty()) return draw;
      auto it = samplers_by_size.find(pool.size());
      if (it == samplers_by_size.end()) {
        it = samplers_by_size
                 .emplace(pool.size(),
                          ZipfSampler(pool.size(), config.entity_zipf))
                 .first;
      }
      draw.ids = pool.data();
      draw.sampler = &it->second;
      return draw;
    };
    std::vector<PoolDraw> domain_draw(num_r), range_draw(num_r);
    // affine_draw[r * num_c + c]: the range sub-pool that relation r prefers
    // for heads in cluster c.
    std::vector<PoolDraw> affine_draw(static_cast<size_t>(num_r) * num_c);
    auto affine_of = [&](int32_t r, int32_t h) -> const PoolDraw& {
      return affine_draw[static_cast<size_t>(r) * num_c + cluster[h]];
    };
    // no_pool[r]: r's domain or range pool is empty. affine_gap[r]: some
    // head cluster of r prefers an empty sub-pool.
    std::vector<uint8_t> no_pool(num_r), affine_gap(num_r);
    bool resolve_relation = false;
    std::vector<RelationDedup> dedup(num_r);
    for (int32_t r = 0; r < num_r; ++r) {
      domain_draw[r] = resolve(domain_pool[r]);
      range_draw[r] = resolve(range_pool[r]);
      no_pool[r] = domain_draw[r].ids == nullptr ||
                   range_draw[r].ids == nullptr;
      for (int32_t c = 0; c < num_c; ++c) {
        PoolDraw& affine = affine_draw[static_cast<size_t>(r) * num_c + c];
        affine = resolve(range_by_cluster[r][cluster_map[r][c]]);
        if (affine.ids == nullptr) affine_gap[r] = 1;
      }
      if (no_pool[r] || affine_gap[r]) resolve_relation = true;
      const Cardinality card = profiles[r].cardinality;
      dedup[r].head_unique = card == Cardinality::kManyOne ||
                             card == Cardinality::kOneOne;
      dedup[r].tail_unique = card == Cardinality::kOneMany ||
                             card == Cardinality::kOneOne;
    }

    // One attempt's uniforms. `coin` is read only where the draw took it.
    struct Attempt {
      double relation = 0.0, head = 0.0, coin = 0.0, tail = 0.0;
      int32_t noise_entity = -1;  // -1: clean
      bool noise_on_head = false;
    };
    auto draw = [&](Attempt* a) {
      a->relation = rng.NextDouble();
      const int32_t r =
          resolve_relation
              ? static_cast<int32_t>(relation_sampler.IndexOf(a->relation))
              : -1;
      if (r >= 0 && no_pool[r]) return;
      a->head = rng.NextDouble();
      if (r < 0 || !affine_gap[r] ||
          affine_of(r, domain_draw[r].At(a->head)).ids != nullptr) {
        a->coin = rng.NextDouble();
      }
      a->tail = rng.NextDouble();
      a->noise_entity = -1;
      if (rng.NextDouble() < config.noise_rate) {
        // Replace one side with a uniformly random entity (any type): the
        // classic KG construction error that later shows up as a "false easy
        // negative" for a recommender that trusts the type structure.
        a->noise_on_head = rng.NextBounded(2) == 0;
        a->noise_entity = static_cast<int32_t>(rng.NextBounded(num_e));
      }
    };
    // The attempt's triple; relation -1 if it is rejected before dedup.
    auto map = [&](const Attempt& a) -> Triple {
      const auto r = static_cast<int32_t>(relation_sampler.IndexOf(a.relation));
      if (no_pool[r]) return {0, -1, 0};
      int32_t h = domain_draw[r].At(a.head);
      const PoolDraw& affine = affine_of(r, h);
      int32_t t = affine.ids != nullptr && a.coin < config.affinity_rate
                      ? affine.At(a.tail)
                      : range_draw[r].At(a.tail);
      if (a.noise_entity >= 0) (a.noise_on_head ? h : t) = a.noise_entity;
      if (h == t) return {0, -1, 0};
      return {h, r, t};
    };

    std::vector<Attempt> attempts(kAttemptBatch);
    std::vector<Triple> mapped(kAttemptBatch);
    std::vector<uint8_t> accepted(kAttemptBatch);
    // by_relation[relation_begin[r] ..]: the batch's attempts of relation r,
    // in attempt order (a counting sort).
    std::vector<int32_t> by_relation(kAttemptBatch);
    std::vector<int32_t> relation_begin(num_r + 1), relation_fill(num_r);
    const int64_t max_attempts = 60 * target;
    for (int64_t done = 0;
         static_cast<int64_t>(triples.size()) < target && done < max_attempts;
         done += kAttemptBatch) {
      const auto n =
          static_cast<int32_t>(std::min(kAttemptBatch, max_attempts - done));
      const Rng batch_start = rng;
      for (int32_t i = 0; i < n; ++i) draw(&attempts[i]);
      ParallelFor(0, n, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) mapped[i] = map(attempts[i]);
      }, 1024);

      std::fill(relation_begin.begin(), relation_begin.end(), 0);
      for (int32_t i = 0; i < n; ++i) {
        if (mapped[i].relation >= 0) ++relation_begin[mapped[i].relation + 1];
      }
      for (int32_t r = 0; r < num_r; ++r) {
        relation_begin[r + 1] += relation_begin[r];
        relation_fill[r] = relation_begin[r];
      }
      for (int32_t i = 0; i < n; ++i) {
        accepted[i] = 0;
        const int32_t r = mapped[i].relation;
        if (r >= 0) by_relation[relation_fill[r]++] = i;
      }
      ParallelFor(0, num_r, [&](size_t lo, size_t hi) {
        for (size_t r = lo; r < hi; ++r) {
          for (int32_t k = relation_begin[r]; k < relation_begin[r + 1]; ++k) {
            const Triple& triple = mapped[by_relation[k]];
            accepted[by_relation[k]] =
                dedup[r].Accept(triple.head, triple.tail);
          }
        }
      }, 1);

      for (int32_t i = 0; i < n; ++i) {
        if (!accepted[i]) continue;
        triples.push_back(mapped[i]);
        is_noise.push_back(attempts[i].noise_entity >= 0);
        if (static_cast<int64_t>(triples.size()) == target) {
          rng = batch_start;
          for (int32_t j = 0; j <= i; ++j) draw(&attempts[j]);
          break;
        }
      }
    }
  }

  double shrink = 1.0;
  if (static_cast<int64_t>(triples.size()) < target) {
    shrink = static_cast<double>(triples.size()) / static_cast<double>(target);
    KGEVAL_LOG(Warning) << "generator produced "
                        << triples.size() << "/" << target
                        << " triples; shrinking splits proportionally";
  }
  const int64_t n_total = static_cast<int64_t>(triples.size());
  int64_t n_valid = static_cast<int64_t>(config.num_valid * shrink);
  int64_t n_test = static_cast<int64_t>(config.num_test * shrink);

  // Shuffle (keeping the noise flags aligned), then carve valid/test off the
  // end subject to the standard KGC constraint that every entity/relation in
  // valid/test also occurs in train.
  {
    std::vector<size_t> perm(n_total);
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    rng.Shuffle(&perm);
    std::vector<Triple> shuffled(n_total);
    std::vector<bool> shuffled_noise(n_total);
    for (int64_t i = 0; i < n_total; ++i) {
      shuffled[i] = triples[perm[i]];
      shuffled_noise[i] = is_noise[perm[i]];
    }
    triples.swap(shuffled);
    is_noise = std::move(shuffled_noise);
  }

  std::vector<int64_t> entity_left(num_e, 0);
  std::vector<int64_t> relation_left(num_r, 0);
  for (const Triple& t : triples) {
    ++entity_left[t.head];
    ++entity_left[t.tail];
    ++relation_left[t.relation];
  }
  std::vector<Triple> train, valid, test;
  std::vector<bool> test_noise_flags;
  train.reserve(n_total);
  valid.reserve(n_valid);
  test.reserve(n_test);
  // Walk from the back; a triple may leave train only if every element still
  // occurs at least once among the triples that remain in train.
  for (int64_t i = n_total - 1; i >= 0; --i) {
    const Triple& t = triples[i];
    const bool removable = entity_left[t.head] > 1 &&
                           entity_left[t.tail] > 1 &&
                           relation_left[t.relation] > 1;
    bool placed = false;
    if (removable) {
      if (static_cast<int64_t>(test.size()) < n_test) {
        test.push_back(t);
        test_noise_flags.push_back(is_noise[i]);
        placed = true;
      } else if (static_cast<int64_t>(valid.size()) < n_valid) {
        valid.push_back(t);
        placed = true;
      }
    }
    if (placed) {
      --entity_left[t.head];
      --entity_left[t.tail];
      --relation_left[t.relation];
    } else {
      train.push_back(t);
    }
  }
  std::reverse(train.begin(), train.end());

  std::vector<int64_t> noisy_test_indices;
  for (size_t i = 0; i < test.size(); ++i) {
    if (test_noise_flags[i]) {
      noisy_test_indices.push_back(static_cast<int64_t>(i));
    }
  }

  // --- 4. Published TypeStore (with metadata noise). -----------------------
  TypeStore published(num_e, num_t);
  for (int32_t e = 0; e < num_e; ++e) {
    for (int32_t t : true_types.TypesOf(e)) {
      if (rng.NextDouble() < config.type_missing_rate) continue;
      published.Assign(e, t);
    }
    if (rng.NextDouble() < config.type_spurious_rate) {
      published.Assign(e, static_cast<int32_t>(rng.NextBounded(num_t)));
    }
    // Entities must keep at least one type so type-based recommenders have
    // something to work with (matches how instanceOf data is curated).
    if (published.TypesOf(e).empty()) {
      published.Assign(e, primary_type[e]);
    }
  }
  published.Seal();

  // --- 5. Labels for qualitative output. ----------------------------------
  std::vector<std::string> entity_labels(num_e);
  for (int32_t e = 0; e < num_e; ++e) {
    entity_labels[e] = StrFormat("T%d_E%d", primary_type[e], e);
  }
  std::vector<std::string> relation_labels(num_r);
  for (int32_t r = 0; r < num_r; ++r) {
    relation_labels[r] =
        StrFormat("rel%d_d%d_r%d", r, profiles[r].domain_types[0],
                  profiles[r].range_types[0]);
  }

  SynthOutput out{Dataset(config.name, num_e, num_r, std::move(train),
                          std::move(valid), std::move(test),
                          std::move(published)),
                  std::move(profiles), std::move(true_types),
                  std::move(noisy_test_indices)};
  out.dataset.set_entity_labels(std::move(entity_labels));
  out.dataset.set_relation_labels(std::move(relation_labels));
  return out;
}

}  // namespace kgeval

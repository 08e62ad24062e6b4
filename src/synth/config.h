#ifndef KGEVAL_SYNTH_CONFIG_H_
#define KGEVAL_SYNTH_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace kgeval {

/// Parameters of the typed synthetic KG generator. The generator substitutes
/// for the paper's downloaded benchmarks (see the "Data" section of
/// docs/ARCHITECTURE.md): entities carry
/// types, relations have typed domain/range signatures plus a cardinality
/// class, entity usage is Zipf-distributed, and a small noise rate creates
/// type-violating triples (the "false easy negatives" of Table 10).
struct SynthConfig {
  std::string name = "synthetic";

  int32_t num_entities = 2000;
  int32_t num_relations = 40;
  int32_t num_types = 25;

  int64_t num_train = 30000;
  int64_t num_valid = 2000;
  int64_t num_test = 2000;

  /// Skew of entity-per-type sizes (primary type sampled Zipf(s)).
  double type_zipf = 0.5;
  /// Skew of the per-relation signature's type choice. Kept flatter than
  /// type_zipf so relations do not all share the few biggest types — that is
  /// what keeps candidate sets narrow relative to |E| (high Reduction Rate,
  /// as in the paper's datasets).
  double signature_zipf = 0.4;
  /// Skew of relation frequencies.
  double relation_zipf = 0.85;
  /// Skew of entity popularity within a type.
  double entity_zipf = 1.3;

  /// Probability an entity gets a second / third type.
  double extra_type_prob = 0.25;

  /// Latent affinity structure that makes link prediction *learnable*:
  /// entities carry a hidden cluster id, each relation maps head clusters to
  /// preferred tail clusters, and `affinity_rate` of the triples draw their
  /// tail from the preferred sub-pool. This is what gives trained models
  /// realistic MRRs and creates genuinely hard negatives (right type, right
  /// cluster) alongside the easy type-incompatible ones.
  int32_t num_clusters = 12;
  double affinity_rate = 0.9;

  /// Max number of types in a relation's domain (and range) signature.
  int32_t max_signature_types = 2;

  /// Types are organized into disjoint *groups* (Freebase-style domains:
  /// people, film, geography, ...). Entities' extra types stay within their
  /// primary type's group and relation signatures are group-coherent
  /// (ranges cross into another group with cross_group_rate, like
  /// person->location relations). This block structure is what makes the
  /// slot co-occurrence matrix sparse — i.e., what gives L-WD its large
  /// population of exact-zero easy negatives (Table 2).
  int32_t num_type_groups = 8;
  double cross_group_rate = 0.25;

  /// Fraction of generated triples whose head or tail is replaced by a
  /// uniformly random entity of any type (KG construction noise).
  double noise_rate = 0.004;

  /// Fractions modelling incomplete / noisy published type metadata: a
  /// type assignment is dropped from (or spuriously added to) the TypeStore
  /// with these probabilities. The *structure* of the graph is unaffected —
  /// only what the type-aware recommenders get to see.
  double type_missing_rate = 0.05;
  double type_spurious_rate = 0.02;

  /// Mix of relation cardinality classes; must sum to 1. Order:
  /// many-many, one-many, many-one, one-one.
  double frac_mn = 0.6;
  double frac_1m = 0.15;
  double frac_m1 = 0.15;
  double frac_11 = 0.1;

  uint64_t seed = 0xC0FFEEULL;

  /// Validates ranges and proportions.
  Status Validate() const;
};

/// Scaled-down (default, minutes on CPU) vs paper-scale (Table 4 sizes).
enum class PresetScale { kScaled = 0, kPaper = 1 };

/// Names of the seven datasets used in the paper's experiments:
/// "fb15k", "fb15k237", "yago310", "wikikg2", "codex-s", "codex-m",
/// "codex-l".
std::vector<std::string> PresetNames();

/// Returns the generator configuration mimicking the named dataset at the
/// requested scale. Errors on unknown names.
Result<SynthConfig> GetPreset(const std::string& name, PresetScale scale);

}  // namespace kgeval

#endif  // KGEVAL_SYNTH_CONFIG_H_

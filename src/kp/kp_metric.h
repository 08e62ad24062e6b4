#ifndef KGEVAL_KP_KP_METRIC_H_
#define KGEVAL_KP_KP_METRIC_H_

#include "core/samplers.h"
#include "graph/dataset.h"
#include "models/kge_model.h"
#include "util/rng.h"

namespace kgeval {

/// Options for the Knowledge Persistence proxy metric (Bastos et al., 2023),
/// the non-ranking baseline of Tables 7–9.
struct KpOptions {
  /// Number of triples sampled from the evaluation split for KP+ / KP-.
  int64_t num_samples = 2000;
  uint64_t seed = 55;
};

/// Result: the KP score (sliced-Wasserstein distance between the positive
/// and negative score-graph persistence diagrams) and its wall time.
struct KpResult {
  double score = 0.0;
  double seconds = 0.0;
  int64_t positive_edges = 0;
  int64_t negative_edges = 0;
};

/// Computes KP for `model` on `split`. `pools`, when non-null, supplies the
/// negative corruptions per slot (the paper's KP-P / KP-S variants: KP
/// boosted with recommender-guided negatives); when null, corruptions are
/// uniform over all entities (KP-R).
KpResult ComputeKp(const KgeModel& model, const Dataset& dataset, Split split,
                   const KpOptions& options,
                   const SampledCandidates* pools = nullptr);

}  // namespace kgeval

#endif  // KGEVAL_KP_KP_METRIC_H_

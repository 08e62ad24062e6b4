#include "kp/kp_metric.h"

#include <unordered_map>

#include "kp/persistence.h"
#include "la/vector_ops.h"
#include "stats/sampling.h"
#include "util/timer.h"

namespace kgeval {
namespace {

/// Maps entity ids to dense vertex ids shared by KP+ and KP-.
class VertexMap {
 public:
  int32_t Get(int32_t entity) {
    auto [it, inserted] = map_.emplace(entity, next_);
    if (inserted) ++next_;
    return it->second;
  }
  int32_t size() const { return next_; }

 private:
  std::unordered_map<int32_t, int32_t> map_;
  int32_t next_ = 0;
};

}  // namespace

KpResult ComputeKp(const KgeModel& model, const Dataset& dataset, Split split,
                   const KpOptions& options, const SampledCandidates* pools) {
  WallTimer timer;
  Rng rng(options.seed);
  const std::vector<Triple>& triples = dataset.split(split);
  const int32_t num_r = dataset.num_relations();
  KpResult result;
  if (triples.empty()) return result;

  const std::vector<int32_t> picks = SampleWithoutReplacement(
      static_cast<int64_t>(triples.size()), options.num_samples, &rng);

  // Build both edge lists (and draw corruptions) first — same vertex and
  // RNG order as the scalar version — then fill the weights through the
  // relation-grouped batched scorer.
  VertexMap vertices;
  std::vector<WeightedEdge> positive_edges, negative_edges;
  std::vector<Triple> positive_triples, negative_triples;
  positive_edges.reserve(picks.size());
  negative_edges.reserve(picks.size());
  positive_triples.reserve(picks.size());
  negative_triples.reserve(picks.size());
  for (int32_t pick : picks) {
    const Triple& t = triples[pick];
    // KP+: the true triple, weighted by the model's belief.
    positive_triples.push_back(t);
    positive_edges.push_back({vertices.Get(t.head), vertices.Get(t.tail),
                              /*weight=*/0.0f});

    // KP-: a tail corruption, drawn uniformly (KP-R) or from the
    // recommender-guided pool of the relation's range slot (KP-P / KP-S).
    int32_t corrupt = -1;
    if (pools != nullptr) {
      const std::vector<int32_t>& pool = pools->pools[t.relation + num_r];
      if (!pool.empty()) {
        corrupt = pool[rng.NextBounded(pool.size())];
      }
    }
    if (corrupt < 0) {
      corrupt = static_cast<int32_t>(rng.NextBounded(dataset.num_entities()));
    }
    if (corrupt == t.tail) {
      corrupt = static_cast<int32_t>((corrupt + 1) % dataset.num_entities());
    }
    negative_triples.push_back({t.head, t.relation, corrupt});
    negative_edges.push_back({vertices.Get(t.head), vertices.Get(corrupt),
                              /*weight=*/0.0f});
  }
  std::vector<float> pos_scores(positive_triples.size());
  std::vector<float> neg_scores(negative_triples.size());
  // Fused path: each positive and its tail corruption share the anchor's
  // query construction (KP+ / KP- weights are bit-identical to scoring each
  // triple on its own).
  ScoreTriplesWithNegatives(model, positive_triples.data(),
                            positive_triples.size(), negative_triples.data(),
                            /*k=*/1, pos_scores.data(), neg_scores.data());
  for (size_t i = 0; i < positive_edges.size(); ++i) {
    positive_edges[i].weight = Sigmoid(pos_scores[i]);
    negative_edges[i].weight = Sigmoid(neg_scores[i]);
  }

  const PersistenceDiagram positive =
      ComputeZeroDimPersistence(vertices.size(), positive_edges);
  const PersistenceDiagram negative =
      ComputeZeroDimPersistence(vertices.size(), negative_edges);
  result.score = SlicedWassersteinDistance(positive, negative);
  result.positive_edges = static_cast<int64_t>(positive_edges.size());
  result.negative_edges = static_cast<int64_t>(negative_edges.size());
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace kgeval

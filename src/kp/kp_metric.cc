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
  KpResult result;
  if (triples.empty()) return result;

  const std::vector<int32_t> picks = SampleWithoutReplacement(
      static_cast<int64_t>(triples.size()), options.num_samples, &rng);

  VertexMap vertices;
  std::vector<WeightedEdge> positive_edges, negative_edges;
  positive_edges.reserve(picks.size());
  negative_edges.reserve(picks.size());
  for (int32_t pick : picks) {
    const Triple& t = triples[pick];
    // KP-: a tail corruption, drawn uniformly (KP-R) or from the
    // recommender-guided pool of the relation's range slot (KP-P / KP-S).
    int32_t corrupt = -1;
    if (pools != nullptr) {
      const std::vector<int32_t>& pool = pools->pools[DomainRangeIndex(
          t.relation, QueryDirection::kTail, dataset.num_relations())];
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
    // KP+ weighs the true triple and KP- its corruption by the model's
    // belief; both are tail queries of (head, relation).
    const int32_t tails[2] = {t.tail, corrupt};
    float scores[2];
    model.ScoreCandidates(t.head, t.relation, QueryDirection::kTail, tails, 2,
                          scores);
    const int32_t head = vertices.Get(t.head);
    positive_edges.push_back({head, vertices.Get(t.tail), Sigmoid(scores[0])});
    negative_edges.push_back({head, vertices.Get(corrupt), Sigmoid(scores[1])});
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

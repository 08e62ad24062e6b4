#include <memory>
#include <vector>

#include "models/model_impls.h"

namespace kgeval {
namespace {

/// DistMult (Yang et al., 2014): score(h, r, t) = sum_i h_i r_i t_i.
class DistMult : public KgeModel {
 public:
  DistMult(int32_t num_entities, int32_t num_relations, ModelOptions options)
      : KgeModel(ModelType::kDistMult, num_entities, num_relations, options) {
  }

  /// Writes one query row per anchor: q = anchor .* relation (the score is
  /// then linear in the candidate embedding). DistMult is symmetric in h/t,
  /// so `direction` is ignored.
  void BuildKernelQueries(const int32_t* anchors, size_t num_queries,
                          int32_t relation, QueryDirection /*direction*/,
                          Matrix* queries) const override {
    const size_t d = entities_.cols();
    const float* r = relations_.Row(relation);
    queries->Resize(num_queries, d);
    for (size_t q = 0; q < num_queries; ++q) {
      const float* a = entities_.Row(anchors[q]);
      float* row = queries->Row(q);
      for (size_t i = 0; i < d; ++i) row[i] = a[i] * r[i];
    }
  }

  void UpdateTriple(int32_t head, int32_t relation, int32_t tail,
                    QueryDirection /*direction*/, float dscore) override {
    const size_t d = entities_.cols();
    const float* h = entities_.Row(head);
    const float* r = relations_.Row(relation);
    const float* t = entities_.Row(tail);
    std::vector<float> gh(d), gr(d), gt(d);
    for (size_t i = 0; i < d; ++i) {
      gh[i] = dscore * r[i] * t[i];
      gr[i] = dscore * h[i] * t[i];
      gt[i] = dscore * h[i] * r[i];
    }
    entity_adam_.UpdateRow(&entities_, head, gh.data());
    relation_adam_.UpdateRow(&relations_, relation, gr.data());
    entity_adam_.UpdateRow(&entities_, tail, gt.data());
  }
};

}  // namespace

std::unique_ptr<KgeModel> model_impls::NewDistMult(
    int32_t num_entities, int32_t num_relations, const ModelOptions& options) {
  return std::make_unique<DistMult>(num_entities, num_relations, options);
}

}  // namespace kgeval

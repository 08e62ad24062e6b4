#include <memory>
#include <vector>

#include "models/model_impls.h"

namespace kgeval {
namespace {

/// TransE (Bordes et al., 2013): score(h, r, t) = -|| h + r - t ||_1.
class TransE : public KgeModel {
 public:
  TransE(int32_t num_entities, int32_t num_relations, ModelOptions options)
      : KgeModel(ModelType::kTransE, num_entities, num_relations, options) {}

  BatchKernel batch_kernel() const override { return BatchKernel::kNegL1; }

  /// One translated query row per anchor: h + r for tail queries, t - r for
  /// head queries; scoring is then -L1(query, candidate).
  void BuildKernelQueries(const int32_t* anchors, size_t num_queries,
                          int32_t relation, QueryDirection direction,
                          Matrix* queries) const override {
    const size_t d = entities_.cols();
    const float* r = relations_.Row(relation);
    queries->Resize(num_queries, d);
    for (size_t q = 0; q < num_queries; ++q) {
      const float* a = entities_.Row(anchors[q]);
      float* row = queries->Row(q);
      if (direction == QueryDirection::kTail) {
        // score = -|| (h + r) - t ||_1
        for (size_t i = 0; i < d; ++i) row[i] = a[i] + r[i];
      } else {
        // score = -|| h - (t - r) ||_1
        for (size_t i = 0; i < d; ++i) row[i] = a[i] - r[i];
      }
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
      const float delta = h[i] + r[i] - t[i];
      // d(score)/d(h_i) = -sign(delta); chain with dscore.
      const float sign = delta > 0.0f ? 1.0f : (delta < 0.0f ? -1.0f : 0.0f);
      gh[i] = -dscore * sign;
      gr[i] = -dscore * sign;
      gt[i] = dscore * sign;
    }
    entity_adam_.UpdateRow(&entities_, head, gh.data());
    relation_adam_.UpdateRow(&relations_, relation, gr.data());
    entity_adam_.UpdateRow(&entities_, tail, gt.data());
  }
};

}  // namespace

std::unique_ptr<KgeModel> model_impls::NewTransE(int32_t num_entities,
                                                 int32_t num_relations,
                                                 const ModelOptions& options) {
  return std::make_unique<TransE>(num_entities, num_relations, options);
}

}  // namespace kgeval

#include <algorithm>
#include <memory>
#include <vector>

#include "la/vector_ops.h"
#include "models/model_impls.h"

namespace kgeval {
namespace {

/// RESCAL (Nickel et al., 2011): each relation is a full d x d matrix W_r
/// (stored as a flattened row); score(h, r, t) = h^T W_r t.
class Rescal : public KgeModel {
 public:
  Rescal(int32_t num_entities, int32_t num_relations, ModelOptions options)
      : KgeModel(ModelType::kRescal, num_entities, num_relations, options) {}

  /// Contracts W_r with each anchor (W^T h for tail queries, W t for head
  /// queries), leaving one length-d query row per anchor.
  void BuildKernelQueries(const int32_t* anchors, size_t num_queries,
                          int32_t relation, QueryDirection direction,
                          Matrix* queries) const override {
    const size_t d = entities_.cols();
    const float* w = relations_.Row(relation);
    queries->Resize(num_queries, d);
    for (size_t q = 0; q < num_queries; ++q) {
      const float* a = entities_.Row(anchors[q]);
      float* row = queries->Row(q);
      if (direction == QueryDirection::kTail) {
        // score = (W^T h) . t
        std::fill(row, row + d, 0.0f);
        for (size_t i = 0; i < d; ++i) {
          Axpy(a[i], w + i * d, row, d);
        }
      } else {
        // score = (W t) . h
        for (size_t i = 0; i < d; ++i) {
          row[i] = Dot(w + i * d, a, d);
        }
      }
    }
  }

  void UpdateTriple(int32_t head, int32_t relation, int32_t tail,
                    QueryDirection /*direction*/, float dscore) override {
    const size_t d = entities_.cols();
    const float* h = entities_.Row(head);
    const float* w = relations_.Row(relation);
    const float* t = entities_.Row(tail);
    std::vector<float> gh(d), gt(d, 0.0f), gw(d * d);
    for (size_t i = 0; i < d; ++i) {
      const float* w_row = w + i * d;
      gh[i] = dscore * Dot(w_row, t, d);
      // gt accumulates dscore * h_i * W_i; gw_ij = dscore * h_i * t_j.
      for (size_t j = 0; j < d; ++j) {
        gt[j] += dscore * h[i] * w_row[j];
        gw[i * d + j] = dscore * h[i] * t[j];
      }
    }
    entity_adam_.UpdateRow(&entities_, head, gh.data());
    relation_adam_.UpdateRow(&relations_, relation, gw.data());
    entity_adam_.UpdateRow(&entities_, tail, gt.data());
  }
};

}  // namespace

std::unique_ptr<KgeModel> model_impls::NewRescal(int32_t num_entities,
                                                 int32_t num_relations,
                                                 const ModelOptions& options) {
  return std::make_unique<Rescal>(num_entities, num_relations, options);
}

}  // namespace kgeval

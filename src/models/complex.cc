#include <memory>
#include <vector>

#include "models/model_impls.h"

namespace kgeval {
namespace {

/// ComplEx (Trouillon et al., 2016): embeddings in C^{d/2}; the first d/2
/// columns hold real parts, the last d/2 imaginary parts.
/// score(h, r, t) = Re(<h, r, conj(t)>).
class ComplEx : public KgeModel {
 public:
  ComplEx(int32_t num_entities, int32_t num_relations, ModelOptions options)
      : KgeModel(ModelType::kComplEx, num_entities, num_relations, options),
        half_(options.dim / 2) {}

  /// Folds anchor and relation into one complex query row per anchor; the
  /// score is then a plain dot product with the candidate embedding (the
  /// transposed tile's top/bottom halves are the candidates' re/im planes).
  void BuildKernelQueries(const int32_t* anchors, size_t num_queries,
                          int32_t relation, QueryDirection direction,
                          Matrix* queries) const override {
    const int32_t m = half_;
    const float* rv = relations_.Row(relation);
    queries->Resize(num_queries, static_cast<size_t>(2 * m));
    for (size_t q = 0; q < num_queries; ++q) {
      const float* av = entities_.Row(anchors[q]);
      float* row = queries->Row(q);
      if (direction == QueryDirection::kTail) {
        // score = e.(ac - bd) + f.(bc + ad) with h=(a,b), r=(c,d), t=(e,f).
        for (int32_t i = 0; i < m; ++i) {
          const float a = av[i], b = av[m + i];
          const float c = rv[i], d = rv[m + i];
          row[i] = a * c - b * d;
          row[m + i] = b * c + a * d;
        }
      } else {
        // score = a.(ce + df) + b.(cf - de) with t=(e,f) as anchor.
        for (int32_t i = 0; i < m; ++i) {
          const float e = av[i], f = av[m + i];
          const float c = rv[i], d = rv[m + i];
          row[i] = c * e + d * f;
          row[m + i] = c * f - d * e;
        }
      }
    }
  }

  void UpdateTriple(int32_t head, int32_t relation, int32_t tail,
                    QueryDirection /*direction*/, float dscore) override {
    const int32_t m = half_;
    const float* h = entities_.Row(head);
    const float* r = relations_.Row(relation);
    const float* t = entities_.Row(tail);
    std::vector<float> gh(2 * m), gr(2 * m), gt(2 * m);
    for (int32_t i = 0; i < m; ++i) {
      const float a = h[i], b = h[m + i];
      const float c = r[i], d = r[m + i];
      const float e = t[i], f = t[m + i];
      gh[i] = dscore * (c * e + d * f);
      gh[m + i] = dscore * (c * f - d * e);
      gr[i] = dscore * (a * e + b * f);
      gr[m + i] = dscore * (a * f - b * e);
      gt[i] = dscore * (a * c - b * d);
      gt[m + i] = dscore * (b * c + a * d);
    }
    entity_adam_.UpdateRow(&entities_, head, gh.data());
    relation_adam_.UpdateRow(&relations_, relation, gr.data());
    entity_adam_.UpdateRow(&entities_, tail, gt.data());
  }

 private:
  int32_t half_;  // d / 2
};

}  // namespace

std::unique_ptr<KgeModel> model_impls::NewComplEx(
    int32_t num_entities, int32_t num_relations, const ModelOptions& options) {
  return std::make_unique<ComplEx>(num_entities, num_relations, options);
}

}  // namespace kgeval

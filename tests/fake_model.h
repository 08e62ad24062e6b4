#ifndef KGEVAL_TESTS_FAKE_MODEL_H_
#define KGEVAL_TESTS_FAKE_MODEL_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "models/kge_model.h"

namespace kgeval {

/// A model whose score is supplied by a lambda — lets tests pin exact
/// rankings. It scores through the same kernel surface as the real models:
/// it is built with dim = |E|, its entity table is the identity (entity
/// e's row is one-hot at e) and the kernel is kDot, so BuildKernelQueries
/// writes fn(anchor, r, e) into column e of a tail query's row (fn(e, r,
/// anchor) for a head query). Each dot product then has exactly one
/// nonzero term, and every kernel table returns fn bit for bit (for
/// finite fn).
class FakeModel : public KgeModel {
 public:
  using ScoreFn = std::function<float(int32_t, int32_t, int32_t)>;

  FakeModel(int32_t num_entities, int32_t num_relations, ScoreFn fn)
      : KgeModel(ModelType::kDistMult, num_entities, num_relations,
                 IdentityOptions(num_entities)),
        fn_(std::move(fn)) {
    for (size_t e = 0; e < entities_.rows(); ++e) entities_.At(e, e) = 1.0f;
  }

  void BuildKernelQueries(const int32_t* anchors, size_t num_queries,
                          int32_t relation, QueryDirection direction,
                          Matrix* queries) const override {
    queries->Resize(num_queries, entities_.cols());
    for (size_t q = 0; q < num_queries; ++q) {
      float* row = queries->Row(q);
      for (int32_t e = 0; e < num_entities(); ++e) {
        row[e] = direction == QueryDirection::kTail
                     ? fn_(anchors[q], relation, e)
                     : fn_(e, relation, anchors[q]);
      }
    }
  }

  void UpdateTriple(int32_t, int32_t, int32_t, QueryDirection,
                    float) override {}

 private:
  static ModelOptions IdentityOptions(int32_t num_entities) {
    ModelOptions options;
    options.dim = num_entities;
    return options;
  }

  ScoreFn fn_;
};

}  // namespace kgeval

#endif  // KGEVAL_TESTS_FAKE_MODEL_H_

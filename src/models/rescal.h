#ifndef KGEVAL_MODELS_RESCAL_H_
#define KGEVAL_MODELS_RESCAL_H_

#include "la/matrix.h"
#include "models/kge_model.h"

namespace kgeval {

/// RESCAL (Nickel et al., 2011): each relation is a full d x d matrix W_r
/// (stored as a flattened row); score(h, r, t) = h^T W_r t.
class Rescal : public KgeModel {
 public:
  Rescal(int32_t num_entities, int32_t num_relations, ModelOptions options);

  BatchKernel batch_kernel() const override { return BatchKernel::kDot; }
  const Matrix& candidate_embeddings() const override { return entities_; }

  /// Contracts W_r with each anchor (W^T h for tail queries, W t for head
  /// queries), leaving one length-d query row per anchor.
  void BuildKernelQueries(const int32_t* anchors, size_t num_queries,
                          int32_t relation, QueryDirection direction,
                          Matrix* queries) const override;

  void UpdateTriple(int32_t head, int32_t relation, int32_t tail,
                    QueryDirection direction, float dscore) override;

  void CollectParameters(std::vector<NamedParameter>* out) override;

 protected:
  void InitParameters(Rng* rng) override;

 private:
  Matrix entities_;
  Matrix relations_;  // |R| x d*d, row-major W_r.
  AdamState entity_adam_;
  AdamState relation_adam_;
};

}  // namespace kgeval

#endif  // KGEVAL_MODELS_RESCAL_H_

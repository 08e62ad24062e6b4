#ifndef KGEVAL_MODELS_DISTMULT_H_
#define KGEVAL_MODELS_DISTMULT_H_

#include "la/matrix.h"
#include "models/kge_model.h"

namespace kgeval {

/// DistMult (Yang et al., 2014): score(h, r, t) = sum_i h_i r_i t_i.
class DistMult : public KgeModel {
 public:
  DistMult(int32_t num_entities, int32_t num_relations, ModelOptions options);

  BatchKernel batch_kernel() const override { return BatchKernel::kDot; }
  const Matrix& candidate_embeddings() const override { return entities_; }

  /// Writes one query row per anchor: q = anchor .* relation (the score is
  /// then linear in the candidate embedding). DistMult is symmetric in h/t,
  /// so `direction` is ignored.
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
  Matrix relations_;
  AdamState entity_adam_;
  AdamState relation_adam_;
};

}  // namespace kgeval

#endif  // KGEVAL_MODELS_DISTMULT_H_

#ifndef KGEVAL_MODELS_COMPLEX_H_
#define KGEVAL_MODELS_COMPLEX_H_

#include "la/matrix.h"
#include "models/kge_model.h"

namespace kgeval {

/// ComplEx (Trouillon et al., 2016): embeddings in C^{d/2}; the first d/2
/// columns hold real parts, the last d/2 imaginary parts.
/// score(h, r, t) = Re(<h, r, conj(t)>).
class ComplEx : public KgeModel {
 public:
  ComplEx(int32_t num_entities, int32_t num_relations, ModelOptions options);

  BatchKernel batch_kernel() const override { return BatchKernel::kDot; }
  const Matrix& candidate_embeddings() const override { return entities_; }

  /// Folds anchor and relation into one complex query row per anchor; the
  /// score is then a plain dot product with the candidate embedding (the
  /// transposed tile's top/bottom halves are the candidates' re/im planes).
  void BuildKernelQueries(const int32_t* anchors, size_t num_queries,
                          int32_t relation, QueryDirection direction,
                          Matrix* queries) const override;

  void UpdateTriple(int32_t head, int32_t relation, int32_t tail,
                    QueryDirection direction, float dscore) override;

  void CollectParameters(std::vector<NamedParameter>* out) override;

 protected:
  void InitParameters(Rng* rng) override;

 private:
  int32_t half_;  // d / 2
  Matrix entities_;
  Matrix relations_;
  AdamState entity_adam_;
  AdamState relation_adam_;
};

}  // namespace kgeval

#endif  // KGEVAL_MODELS_COMPLEX_H_

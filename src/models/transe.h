#ifndef KGEVAL_MODELS_TRANSE_H_
#define KGEVAL_MODELS_TRANSE_H_

#include "la/matrix.h"
#include "models/kge_model.h"

namespace kgeval {

/// TransE (Bordes et al., 2013): score(h, r, t) = -|| h + r - t ||_1.
class TransE : public KgeModel {
 public:
  TransE(int32_t num_entities, int32_t num_relations, ModelOptions options);

  BatchKernel batch_kernel() const override { return BatchKernel::kNegL1; }
  const Matrix& candidate_embeddings() const override { return entities_; }

  /// One translated query row per anchor: h + r for tail queries, t - r for
  /// head queries; scoring is then -L1(query, candidate).
  void BuildKernelQueries(const int32_t* anchors, size_t num_queries,
                          int32_t relation, QueryDirection direction,
                          Matrix* queries) const override;

  void UpdateTriple(int32_t head, int32_t relation, int32_t tail,
                    QueryDirection direction, float dscore) override;

  void CollectParameters(std::vector<NamedParameter>* out) override;

  const Matrix& entities() const { return entities_; }
  const Matrix& relations() const { return relations_; }

 protected:
  void InitParameters(Rng* rng) override;

 private:
  Matrix entities_;
  Matrix relations_;
  AdamState entity_adam_;
  AdamState relation_adam_;
};

}  // namespace kgeval

#endif  // KGEVAL_MODELS_TRANSE_H_

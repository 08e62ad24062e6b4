#ifndef KGEVAL_MODELS_TUCKER_H_
#define KGEVAL_MODELS_TUCKER_H_

#include "la/matrix.h"
#include "models/kge_model.h"

namespace kgeval {

/// TuckER (Balazevic et al., 2019): a shared core tensor
/// W in R^{de x dr x de}; score(h, r, t) = W x1 h x2 r x3 t.
/// The relation dimension defaults to options.relation_dim (or dim).
class TuckEr : public KgeModel {
 public:
  TuckEr(int32_t num_entities, int32_t num_relations, ModelOptions options);

  BatchKernel batch_kernel() const override { return BatchKernel::kDot; }
  const Matrix& candidate_embeddings() const override { return entities_; }

  /// Contracts the core with each anchor and the relation, leaving one
  /// length-de query row per anchor. This is TuckER's per-query O(de^2 dr)
  /// cost; batching runs it once per query instead of once per candidate
  /// tile.
  void BuildKernelQueries(const int32_t* anchors, size_t num_queries,
                          int32_t relation, QueryDirection direction,
                          Matrix* queries) const override;

  void UpdateTriple(int32_t head, int32_t relation, int32_t tail,
                    QueryDirection direction, float dscore) override;

  void CollectParameters(std::vector<NamedParameter>* out) override;

 protected:
  void InitParameters(Rng* rng) override;

 private:
  /// Index into the flattened core: W[i][j][k] with i,k entity dims, j the
  /// relation dim.
  size_t CoreIndex(int32_t i, int32_t j, int32_t k) const {
    return (static_cast<size_t>(i) * dr_ + j) * de_ + k;
  }

  int32_t de_;
  int32_t dr_;
  Matrix entities_;   // |E| x de
  Matrix relations_;  // |R| x dr
  Matrix core_;       // 1 x (de * dr * de)
  AdamState entity_adam_;
  AdamState relation_adam_;
  AdamState core_adam_;
};

}  // namespace kgeval

#endif  // KGEVAL_MODELS_TUCKER_H_

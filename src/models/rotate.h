#ifndef KGEVAL_MODELS_ROTATE_H_
#define KGEVAL_MODELS_ROTATE_H_

#include "la/matrix.h"
#include "models/kge_model.h"

namespace kgeval {

/// RotatE (Sun et al., 2019): entities in C^{d/2} (first half real parts,
/// second half imaginary), relations are unit rotations parameterized by a
/// phase vector theta. score(h, r, t) = -sum_j | h_j * e^{i theta_j} - t_j |.
class RotatE : public KgeModel {
 public:
  RotatE(int32_t num_entities, int32_t num_relations, ModelOptions options);

  BatchKernel batch_kernel() const override {
    return BatchKernel::kNegComplexDist;
  }
  float batch_kernel_eps() const override;
  const Matrix& candidate_embeddings() const override { return entities_; }

  /// Rotates each anchor by the relation's phases (conjugated for head
  /// queries), making the score a plain complex distance to the candidate
  /// (the transposed tile's top/bottom halves are the re/im planes). The
  /// cos/sin of the shared phase vector is computed once per call instead
  /// of once per query — RotatE's biggest batching win.
  void BuildKernelQueries(const int32_t* anchors, size_t num_queries,
                          int32_t relation, QueryDirection direction,
                          Matrix* queries) const override;

  void UpdateTriple(int32_t head, int32_t relation, int32_t tail,
                    QueryDirection direction, float dscore) override;

  void CollectParameters(std::vector<NamedParameter>* out) override;

 protected:
  void InitParameters(Rng* rng) override;

 private:
  int32_t half_;     // d / 2 complex coordinates.
  Matrix entities_;  // |E| x d.
  Matrix phases_;    // |R| x d/2.
  AdamState entity_adam_;
  AdamState phase_adam_;
};

}  // namespace kgeval

#endif  // KGEVAL_MODELS_ROTATE_H_

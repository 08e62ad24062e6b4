#ifndef KGEVAL_MODELS_TCOMPLEX_H_
#define KGEVAL_MODELS_TCOMPLEX_H_

#include "la/matrix.h"
#include "models/kge_model.h"

namespace kgeval {

/// TComplEx (Lacroix et al., Temporal Knowledge Base Completion): ComplEx
/// with the relation embedding replaced by the complex elementwise product
/// of relation and timestamp embeddings,
///   score(h, r, t, tau) = Re(<h, r (.) w_tau, conj(t)>).
///
/// The model speaks the repo's static kernel interface through *virtual
/// relation ids*: KernelRelation folds (relation, time) into
/// relation + num_relations * time, and every kernel decodes that id back.
/// num_relations() stays the dataset's |R| (framework shape checks, pool
/// slots, and checkpoint headers are unchanged); the virtual id space is
/// num_kernel_relations() = |R| * |T|. Ids below |R| are plain relations
/// at timestamp 0, so time-oblivious callers remain well-defined.
class TComplEx : public KgeModel {
 public:
  TComplEx(int32_t num_entities, int32_t num_relations, ModelOptions options);

  int32_t num_timestamps() const { return num_timestamps_; }
  int32_t KernelRelation(const Triple& t) const override {
    return t.relation + num_relations_ * t.time;
  }
  int32_t num_kernel_relations() const override {
    return num_relations_ * num_timestamps_;
  }

  BatchKernel batch_kernel() const override { return BatchKernel::kDot; }
  const Matrix& candidate_embeddings() const override { return entities_; }

  /// Folds anchor and the (relation (.) timestamp) product into one complex
  /// query row per anchor, exactly like ComplEx with the composed relation;
  /// the score is then a plain dot product with the candidate embedding.
  /// `relation` is a virtual kernel id. The candidate tile is
  /// time-independent, which is what lets one prepared pool serve every
  /// timestamp of a relation's schedule run.
  void BuildKernelQueries(const int32_t* anchors, size_t num_queries,
                          int32_t relation, QueryDirection direction,
                          Matrix* queries) const override;

  void UpdateTriple(int32_t head, int32_t relation, int32_t tail,
                    QueryDirection direction, float dscore) override;

  void CollectParameters(std::vector<NamedParameter>* out) override;

 protected:
  void InitParameters(Rng* rng) override;

 private:
  int32_t half_;            // d / 2
  int32_t num_timestamps_;  // |T| >= 1
  Matrix entities_;
  Matrix relations_;
  Matrix timestamps_;
  AdamState entity_adam_;
  AdamState relation_adam_;
  AdamState timestamp_adam_;
};

}  // namespace kgeval

#endif  // KGEVAL_MODELS_TCOMPLEX_H_

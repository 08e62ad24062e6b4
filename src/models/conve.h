#ifndef KGEVAL_MODELS_CONVE_H_
#define KGEVAL_MODELS_CONVE_H_

#include <memory>
#include <vector>

#include "la/matrix.h"
#include "models/kge_model.h"

namespace kgeval {

/// ConvE (Dettmers et al., 2018): the head and relation embeddings are
/// reshaped to 2-D, stacked, convolved (C 3x3 filters), ReLU'd, flattened
/// and projected back to the embedding width; the score is the dot product
/// with the candidate embedding plus a per-entity bias.
///
/// Head queries use reciprocal relations (a second relation table entry
/// r + |R|), the standard trick that lets ConvE answer (?, r, t) as the tail
/// query (t, r_reciprocal, ?).
class ConvE : public KgeModel {
 public:
  /// Validates that options.dim is divisible by 4 (the 2-D reshape uses a
  /// fixed width of 4) and at least 12, then allocates the zero-filled
  /// tables (AllocateModel's ConvE case).
  static Result<std::unique_ptr<KgeModel>> Create(int32_t num_entities,
                                                  int32_t num_relations,
                                                  const ModelOptions& options);

  /// The floats in the tables Create allocates (ParameterElementCount's
  /// ConvE case).
  static int64_t ParameterElementCount(int32_t num_entities,
                                       int32_t num_relations, int32_t dim);

  BatchKernel batch_kernel() const override { return BatchKernel::kDot; }
  const Matrix& candidate_embeddings() const override { return entities_; }
  const Matrix* candidate_bias() const override { return &entity_bias_; }

  /// Runs the conv/FC trunk once per anchor (selecting the plain or
  /// reciprocal relation row from `direction`), collecting the psi query
  /// vectors as rows. The score is psi . candidate + entity bias, so
  /// batching hoists the expensive trunk out of the candidate loop.
  void BuildKernelQueries(const int32_t* anchors, size_t num_queries,
                          int32_t relation, QueryDirection direction,
                          Matrix* queries) const override;

  void UpdateTriple(int32_t head, int32_t relation, int32_t tail,
                    QueryDirection direction, float dscore) override;

  void CollectParameters(std::vector<NamedParameter>* out) override;

 protected:
  void InitParameters(Rng* rng) override;

 private:
  ConvE(int32_t num_entities, int32_t num_relations, ModelOptions options);

  struct Activations {
    std::vector<float> img;       // (2*kh) x kw input image.
    std::vector<float> conv_pre;  // C x hc x wc pre-activation.
    std::vector<float> flat;      // ReLU'd conv output, flattened (F).
    std::vector<float> psi_pre;   // d before the final ReLU.
    std::vector<float> psi;       // d.
  };

  /// Runs the feed-forward trunk for (anchor, relation-table row).
  void Forward(int32_t anchor, int32_t rel_row, Activations* acts) const;

  static constexpr int32_t kKernel = 3;
  // 4 channels keeps the flattened FC input (and thus the per-update cost,
  // which the FC layer dominates) small while retaining the conv stack.
  static constexpr int32_t kChannels = 4;
  static constexpr int32_t kWidth = 4;  // Reshape width.

  int32_t kh_;  // Reshape height = dim / kWidth.
  int32_t hc_;  // Conv output height = 2*kh - 2.
  int32_t wc_;  // Conv output width = kWidth - 2.
  int32_t flat_size_;

  Matrix entities_;       // |E| x d
  Matrix relations_;      // 2|R| x d (reciprocal table)
  Matrix filters_;        // kChannels x 9
  Matrix conv_bias_;      // 1 x kChannels
  Matrix fc_;             // flat_size x d
  Matrix fc_bias_;        // 1 x d
  Matrix entity_bias_;    // |E| x 1

  AdamState entity_adam_;
  AdamState relation_adam_;
  AdamState filter_adam_;
  AdamState conv_bias_adam_;
  AdamState fc_adam_;
  AdamState fc_bias_adam_;
  AdamState entity_bias_adam_;
};

}  // namespace kgeval

#endif  // KGEVAL_MODELS_CONVE_H_

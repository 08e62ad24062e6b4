#include <cmath>
#include <memory>
#include <vector>

#include "models/model_impls.h"

namespace kgeval {
namespace {

// Inside the per-coordinate sqrt: keeps the distance differentiable at 0.
constexpr float kEps = 1e-9f;

/// RotatE (Sun et al., 2019): entities in C^{d/2} (first half real parts,
/// second half imaginary), relations are unit rotations parameterized by a
/// phase vector theta (the relation table, |R| x d/2, checkpointed as
/// "phases"). score(h, r, t) = -sum_j | h_j * e^{i theta_j} - t_j |.
class RotatE : public KgeModel {
 public:
  RotatE(int32_t num_entities, int32_t num_relations, ModelOptions options)
      : KgeModel(ModelType::kRotatE, num_entities, num_relations, options),
        half_(options.dim / 2) {}

  BatchKernel batch_kernel() const override {
    return BatchKernel::kNegComplexDist;
  }
  float batch_kernel_eps() const override { return kEps; }

  /// Rotates each anchor by the relation's phases (conjugated for head
  /// queries), making the score a plain complex distance to the candidate
  /// (the transposed tile's top/bottom halves are the re/im planes). The
  /// cos/sin of the shared phase vector is computed once per call instead
  /// of once per query — RotatE's biggest batching win.
  void BuildKernelQueries(const int32_t* anchors, size_t num_queries,
                          int32_t relation, QueryDirection direction,
                          Matrix* queries) const override {
    const int32_t m = half_;
    const float* theta = relations_.Row(relation);
    // Rotate each anchor so the score is a plain complex distance to the
    // candidate: tail query uses q = h * r; head query uses q = t * conj(r)
    // (valid because |r_j| = 1). The rotation's cos/sin only depends on the
    // relation, so compute it once for the whole batch.
    std::vector<float> cos_theta(m), sin_theta(m);
    for (int32_t j = 0; j < m; ++j) {
      cos_theta[j] = std::cos(theta[j]);
      sin_theta[j] = direction == QueryDirection::kTail ? std::sin(theta[j])
                                                        : -std::sin(theta[j]);
    }
    queries->Resize(num_queries, static_cast<size_t>(2 * m));
    for (size_t q = 0; q < num_queries; ++q) {
      const float* a = entities_.Row(anchors[q]);
      float* row = queries->Row(q);
      for (int32_t j = 0; j < m; ++j) {
        const float re = a[j], im = a[m + j];
        row[j] = re * cos_theta[j] - im * sin_theta[j];
        row[m + j] = re * sin_theta[j] + im * cos_theta[j];
      }
    }
  }

  void UpdateTriple(int32_t head, int32_t relation, int32_t tail,
                    QueryDirection /*direction*/, float dscore) override {
    const int32_t m = half_;
    const float* h = entities_.Row(head);
    const float* theta = relations_.Row(relation);
    const float* t = entities_.Row(tail);
    std::vector<float> gh(2 * m), gt(2 * m), gtheta(m);
    for (int32_t j = 0; j < m; ++j) {
      const float c = std::cos(theta[j]);
      const float s = std::sin(theta[j]);
      const float a = h[j], b = h[m + j];
      // u = h_j * r_j - t_j.
      const float ure = a * c - b * s - t[j];
      const float uim = a * s + b * c - t[m + j];
      const float mod = std::sqrt(ure * ure + uim * uim + kEps);
      // score contribution = -|u|; d(-|u|)/d(ure) = -ure/|u|, so the loss
      // gradient w.r.t. u's components is dscore * (-u/|u|).
      const float dre = -dscore * ure / mod;
      const float dim = -dscore * uim / mod;
      // Chain rule into h, t, theta. d(ure)/da = c, d(ure)/db = -s,
      // d(uim)/da = s, d(uim)/db = c; d(u)/dt = -1.
      gh[j] = dre * c + dim * s;
      gh[m + j] = dre * (-s) + dim * c;
      gt[j] = -dre;
      gt[m + j] = -dim;
      // d(ure)/dtheta = -a s - b c; d(uim)/dtheta = a c - b s.
      gtheta[j] = dre * (-a * s - b * c) + dim * (a * c - b * s);
    }
    entity_adam_.UpdateRow(&entities_, head, gh.data());
    relation_adam_.UpdateRow(&relations_, relation, gtheta.data());
    entity_adam_.UpdateRow(&entities_, tail, gt.data());
  }

 protected:
  /// Xavier entities, as every model; the phases are uniform on [-pi, pi].
  void InitParameters(Rng* rng) override {
    entities_.InitXavier(rng, options_.dim, options_.dim);
    relations_.InitUniform(rng, -static_cast<float>(M_PI),
                           static_cast<float>(M_PI));
  }

 private:
  int32_t half_;  // d / 2 complex coordinates.
};

}  // namespace

std::unique_ptr<KgeModel> model_impls::NewRotatE(int32_t num_entities,
                                                 int32_t num_relations,
                                                 const ModelOptions& options) {
  return std::make_unique<RotatE>(num_entities, num_relations, options);
}

}  // namespace kgeval

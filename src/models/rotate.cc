#include "models/rotate.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace kgeval {
namespace {
// Inside the per-coordinate sqrt: keeps the distance differentiable at 0.
constexpr float kEps = 1e-9f;
}

float RotatE::batch_kernel_eps() const { return kEps; }

RotatE::RotatE(int32_t num_entities, int32_t num_relations,
               ModelOptions options)
    : KgeModel(ModelType::kRotatE, num_entities, num_relations, options),
      half_(options.dim / 2),
      entities_(num_entities, options.dim),
      phases_(num_relations, options.dim / 2),
      entity_adam_(num_entities, options.dim, options.adam),
      phase_adam_(num_relations, options.dim / 2, options.adam) {}

void RotatE::InitParameters(Rng* rng) {
  entities_.InitXavier(rng, options_.dim, options_.dim);
  phases_.InitUniform(rng, -static_cast<float>(M_PI),
                      static_cast<float>(M_PI));
}

void RotatE::BuildKernelQueries(const int32_t* anchors, size_t num_queries,
                                int32_t relation, QueryDirection direction,
                                Matrix* queries) const {
  const int32_t m = half_;
  const float* theta = phases_.Row(relation);
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

void RotatE::UpdateTriple(int32_t head, int32_t relation, int32_t tail,
                          QueryDirection /*direction*/, float dscore) {
  const int32_t m = half_;
  const float* h = entities_.Row(head);
  const float* theta = phases_.Row(relation);
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
  phase_adam_.UpdateRow(&phases_, relation, gtheta.data());
  entity_adam_.UpdateRow(&entities_, tail, gt.data());
}

void RotatE::CollectParameters(std::vector<NamedParameter>* out) {
  out->push_back({"entities", &entities_});
  out->push_back({"phases", &phases_});
}

}  // namespace kgeval

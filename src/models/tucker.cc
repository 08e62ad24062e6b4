#include "models/tucker.h"

#include <algorithm>
#include <vector>

#include "la/vector_ops.h"

namespace kgeval {

TuckEr::TuckEr(int32_t num_entities, int32_t num_relations,
               ModelOptions options)
    : KgeModel(ModelType::kTuckEr, num_entities, num_relations, options),
      de_(options.dim),
      dr_(options.relation_dim > 0 ? options.relation_dim : options.dim),
      entities_(num_entities, de_),
      relations_(num_relations, dr_),
      core_(1, static_cast<size_t>(de_) * dr_ * de_),
      entity_adam_(num_entities, de_, options.adam),
      relation_adam_(num_relations, dr_, options.adam),
      core_adam_(1, static_cast<size_t>(de_) * dr_ * de_, options.adam) {}

void TuckEr::InitParameters(Rng* rng) {
  entities_.InitXavier(rng, de_, de_);
  relations_.InitXavier(rng, dr_, dr_);
  // The core couples three modes; a smaller init keeps early scores tame.
  core_.InitGaussian(rng, 0.1f);
}

void TuckEr::BuildKernelQueries(const int32_t* anchors, size_t num_queries,
                                int32_t relation, QueryDirection direction,
                                Matrix* queries) const {
  const float* r = relations_.Row(relation);
  const float* w = core_.Row(0);
  // Contract the core with each anchor and the relation, leaving a
  // length-de query over the candidate mode.
  queries->Resize(num_queries, de_);
  for (size_t q = 0; q < num_queries; ++q) {
    const float* a = entities_.Row(anchors[q]);
    float* row = queries->Row(q);
    std::fill(row, row + de_, 0.0f);
    if (direction == QueryDirection::kTail) {
      // q_k = sum_ij W[i][j][k] h_i r_j.
      for (int32_t i = 0; i < de_; ++i) {
        for (int32_t j = 0; j < dr_; ++j) {
          const float hr = a[i] * r[j];
          if (hr == 0.0f) continue;
          const float* slice = w + CoreIndex(i, j, 0);
          Axpy(hr, slice, row, de_);
        }
      }
    } else {
      // q_i = sum_jk W[i][j][k] r_j t_k.
      for (int32_t i = 0; i < de_; ++i) {
        float acc = 0.0f;
        for (int32_t j = 0; j < dr_; ++j) {
          acc += r[j] * Dot(w + CoreIndex(i, j, 0), a, de_);
        }
        row[i] = acc;
      }
    }
  }
}

void TuckEr::UpdateTriple(int32_t head, int32_t relation, int32_t tail,
                          QueryDirection /*direction*/, float dscore) {
  const float* h = entities_.Row(head);
  const float* r = relations_.Row(relation);
  const float* t = entities_.Row(tail);
  const float* w = core_.Row(0);
  const float l2 = options_.l2;

  std::vector<float> gh(de_, 0.0f), gr(dr_, 0.0f), gt(de_, 0.0f);
  std::vector<float> gw(static_cast<size_t>(de_) * dr_ * de_);
  for (int32_t i = 0; i < de_; ++i) {
    for (int32_t j = 0; j < dr_; ++j) {
      const float* slice = w + CoreIndex(i, j, 0);
      float* gslice = gw.data() + CoreIndex(i, j, 0);
      const float hr = h[i] * r[j];
      const float wt = Dot(slice, t, de_);
      gh[i] += dscore * r[j] * wt;
      gr[j] += dscore * h[i] * wt;
      for (int32_t k = 0; k < de_; ++k) {
        gt[k] += dscore * hr * slice[k];
        gslice[k] = dscore * hr * t[k] + l2 * slice[k];
      }
    }
  }
  for (int32_t i = 0; i < de_; ++i) gh[i] += l2 * h[i];
  for (int32_t j = 0; j < dr_; ++j) gr[j] += l2 * r[j];
  for (int32_t k = 0; k < de_; ++k) gt[k] += l2 * t[k];

  entity_adam_.UpdateRow(&entities_, head, gh.data());
  relation_adam_.UpdateRow(&relations_, relation, gr.data());
  entity_adam_.UpdateRow(&entities_, tail, gt.data());
  core_adam_.UpdateRow(&core_, 0, gw.data());
}

void TuckEr::CollectParameters(std::vector<NamedParameter>* out) {
  out->push_back({"entities", &entities_});
  out->push_back({"relations", &relations_});
  out->push_back({"core", &core_});
}

}  // namespace kgeval

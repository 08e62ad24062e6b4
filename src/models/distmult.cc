#include "models/distmult.h"

#include <vector>

#include "la/vector_ops.h"

namespace kgeval {

DistMult::DistMult(int32_t num_entities, int32_t num_relations,
                   ModelOptions options)
    : KgeModel(ModelType::kDistMult, num_entities, num_relations, options),
      entities_(num_entities, options.dim),
      relations_(num_relations, options.dim),
      entity_adam_(num_entities, options.dim, options.adam),
      relation_adam_(num_relations, options.dim, options.adam) {}

void DistMult::InitParameters(Rng* rng) {
  entities_.InitXavier(rng, options_.dim, options_.dim);
  relations_.InitXavier(rng, options_.dim, options_.dim);
}

void DistMult::BuildKernelQueries(const int32_t* anchors, size_t num_queries,
                                  int32_t relation,
                                  QueryDirection /*direction*/,
                                  Matrix* queries) const {
  // DistMult is symmetric in h/t: both directions reduce to a dot product
  // with the elementwise product of the anchor and relation embeddings.
  const size_t d = entities_.cols();
  const float* r = relations_.Row(relation);
  queries->Resize(num_queries, d);
  for (size_t q = 0; q < num_queries; ++q) {
    const float* a = entities_.Row(anchors[q]);
    float* row = queries->Row(q);
    for (size_t i = 0; i < d; ++i) row[i] = a[i] * r[i];
  }
}

void DistMult::UpdateTriple(int32_t head, int32_t relation, int32_t tail,
                            QueryDirection /*direction*/, float dscore) {
  const size_t d = entities_.cols();
  const float* h = entities_.Row(head);
  const float* r = relations_.Row(relation);
  const float* t = entities_.Row(tail);
  std::vector<float> gh(d), gr(d), gt(d);
  for (size_t i = 0; i < d; ++i) {
    gh[i] = dscore * r[i] * t[i];
    gr[i] = dscore * h[i] * t[i];
    gt[i] = dscore * h[i] * r[i];
  }
  entity_adam_.UpdateRow(&entities_, head, gh.data());
  relation_adam_.UpdateRow(&relations_, relation, gr.data());
  entity_adam_.UpdateRow(&entities_, tail, gt.data());
}

void DistMult::CollectParameters(std::vector<NamedParameter>* out) {
  out->push_back({"entities", &entities_});
  out->push_back({"relations", &relations_});
}

}  // namespace kgeval

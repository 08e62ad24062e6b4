#include "models/tcomplex.h"

#include <algorithm>
#include <vector>

#include "la/vector_ops.h"
#include "util/logging.h"

namespace kgeval {
namespace {

/// A time-aware model must know its timestamp vocabulary up front; 0 (the
/// static default) means one timestamp, under which TComplEx degenerates
/// to ComplEx with an extra learned per-"time" scale.
int32_t NormalizeTimestamps(int32_t num_timestamps) {
  return std::max<int32_t>(1, num_timestamps);
}

ModelOptions NormalizeOptions(ModelOptions options) {
  options.num_timestamps = NormalizeTimestamps(options.num_timestamps);
  return options;
}

}  // namespace

TComplEx::TComplEx(int32_t num_entities, int32_t num_relations,
                   ModelOptions options)
    : KgeModel(ModelType::kTComplEx, num_entities, num_relations,
               NormalizeOptions(options)),
      half_(options.dim / 2),
      num_timestamps_(NormalizeTimestamps(options.num_timestamps)),
      entities_(num_entities, options.dim),
      relations_(num_relations, options.dim),
      timestamps_(num_timestamps_, options.dim),
      entity_adam_(num_entities, options.dim, options.adam),
      relation_adam_(num_relations, options.dim, options.adam),
      timestamp_adam_(num_timestamps_, options.dim, options.adam) {}

void TComplEx::InitParameters(Rng* rng) {
  entities_.InitXavier(rng, options_.dim, options_.dim);
  relations_.InitXavier(rng, options_.dim, options_.dim);
  timestamps_.InitXavier(rng, options_.dim, options_.dim);
}

void TComplEx::BuildKernelQueries(const int32_t* anchors, size_t num_queries,
                                  int32_t relation, QueryDirection direction,
                                  Matrix* queries) const {
  const int32_t m = half_;
  // Decode the virtual kernel id into (relation, timestamp).
  const int32_t r = relation % num_relations_;
  const int32_t tau = relation / num_relations_;
  KGEVAL_DCHECK(tau < num_timestamps_);
  const float* rv = relations_.Row(r);
  const float* wv = timestamps_.Row(tau);
  // Like ComplEx with the composed relation r' = r (.) w_tau: fold anchor
  // and r' into a single query vector (q_re, q_im) per anchor.
  queries->Resize(num_queries, static_cast<size_t>(2 * m));
  for (size_t q = 0; q < num_queries; ++q) {
    const float* av = entities_.Row(anchors[q]);
    float* row = queries->Row(q);
    if (direction == QueryDirection::kTail) {
      // score = e.(ac' - bd') + f.(bc' + ad') with h=(a,b), r'=(c',d'),
      // t=(e,f).
      for (int32_t i = 0; i < m; ++i) {
        const float a = av[i], b = av[m + i];
        const float c = rv[i], d = rv[m + i];
        const float u = wv[i], w = wv[m + i];
        const float cp = c * u - d * w;
        const float dp = c * w + d * u;
        row[i] = a * cp - b * dp;
        row[m + i] = b * cp + a * dp;
      }
    } else {
      // score = a.(c'e + d'f) + b.(c'f - d'e) with t=(e,f) as anchor.
      for (int32_t i = 0; i < m; ++i) {
        const float e = av[i], f = av[m + i];
        const float c = rv[i], d = rv[m + i];
        const float u = wv[i], w = wv[m + i];
        const float cp = c * u - d * w;
        const float dp = c * w + d * u;
        row[i] = cp * e + dp * f;
        row[m + i] = cp * f - dp * e;
      }
    }
  }
}

void TComplEx::UpdateTriple(int32_t head, int32_t relation, int32_t tail,
                            QueryDirection /*direction*/, float dscore) {
  const int32_t m = half_;
  const int32_t r = relation % num_relations_;
  const int32_t tau = relation / num_relations_;
  KGEVAL_DCHECK(tau < num_timestamps_);
  const float* h = entities_.Row(head);
  const float* rv = relations_.Row(r);
  const float* wv = timestamps_.Row(tau);
  const float* t = entities_.Row(tail);
  std::vector<float> gh(2 * m), gr(2 * m), gw(2 * m), gt(2 * m);
  const float l2 = options_.l2;
  for (int32_t i = 0; i < m; ++i) {
    const float a = h[i], b = h[m + i];
    const float c = rv[i], d = rv[m + i];
    const float u = wv[i], w = wv[m + i];
    const float e = t[i], f = t[m + i];
    // Composed relation r' = r (.) w_tau; the h/t gradients are ComplEx's
    // with (c,d) -> (c',d').
    const float cp = c * u - d * w;
    const float dp = c * w + d * u;
    gh[i] = dscore * (cp * e + dp * f) + l2 * a;
    gh[m + i] = dscore * (cp * f - dp * e) + l2 * b;
    gt[i] = dscore * (a * cp - b * dp) + l2 * e;
    gt[m + i] = dscore * (b * cp + a * dp) + l2 * f;
    // Gradient w.r.t. the composed relation, then the complex chain rule:
    // g_r = g_r' . conj(w_tau), g_w = g_r' . conj(r).
    const float gcp = dscore * (a * e + b * f);
    const float gdp = dscore * (a * f - b * e);
    gr[i] = gcp * u + gdp * w + l2 * c;
    gr[m + i] = -gcp * w + gdp * u + l2 * d;
    gw[i] = gcp * c + gdp * d + l2 * u;
    gw[m + i] = -gcp * d + gdp * c + l2 * w;
  }
  entity_adam_.UpdateRow(&entities_, head, gh.data());
  relation_adam_.UpdateRow(&relations_, r, gr.data());
  timestamp_adam_.UpdateRow(&timestamps_, tau, gw.data());
  entity_adam_.UpdateRow(&entities_, tail, gt.data());
}

void TComplEx::CollectParameters(std::vector<NamedParameter>* out) {
  out->push_back({"entities", &entities_});
  out->push_back({"relations", &relations_});
  out->push_back({"timestamps", &timestamps_});
}

}  // namespace kgeval

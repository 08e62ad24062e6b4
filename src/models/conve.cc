#include <algorithm>
#include <memory>
#include <vector>

#include "la/vector_ops.h"
#include "models/model_impls.h"
#include "util/string_util.h"

namespace kgeval {
namespace {

constexpr int32_t kKernel = 3;
// 4 channels keeps the flattened FC input (and thus the per-update cost,
// which the FC layer dominates) small while retaining the conv stack.
constexpr int32_t kChannels = 4;
constexpr int32_t kWidth = 4;  // Reshape width.

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
  ConvE(int32_t num_entities, int32_t num_relations, ModelOptions options)
      : KgeModel(ModelType::kConvE, num_entities, num_relations, options),
        kh_(options.dim / kWidth),
        hc_(2 * kh_ - (kKernel - 1)),
        wc_(kWidth - (kKernel - 1)),
        flat_size_(kChannels * hc_ * wc_),
        filters_(kChannels, kKernel * kKernel),
        conv_bias_(1, kChannels, 0.0f),
        fc_(flat_size_, options.dim),
        fc_bias_(1, options.dim, 0.0f),
        entity_bias_(num_entities, 1, 0.0f),
        filter_adam_(kChannels, kKernel * kKernel, options.adam),
        conv_bias_adam_(1, kChannels, options.adam),
        fc_adam_(flat_size_, options.dim, options.adam),
        fc_bias_adam_(1, options.dim, options.adam),
        entity_bias_adam_(num_entities, 1, options.adam) {}

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

  void CollectParameters(std::vector<NamedParameter>* out) override {
    KgeModel::CollectParameters(out);
    out->push_back({"filters", &filters_});
    out->push_back({"conv_bias", &conv_bias_});
    out->push_back({"fc", &fc_});
    out->push_back({"fc_bias", &fc_bias_});
    out->push_back({"entity_bias", &entity_bias_});
  }

 protected:
  void InitParameters(Rng* rng) override {
    KgeModel::InitParameters(rng);
    filters_.InitXavier(rng, kKernel * kKernel, kChannels);
    fc_.InitXavier(rng, flat_size_, options_.dim);
  }

 private:
  struct Activations {
    std::vector<float> img;       // (2*kh) x kw input image.
    std::vector<float> conv_pre;  // C x hc x wc pre-activation.
    std::vector<float> flat;      // ReLU'd conv output, flattened (F).
    std::vector<float> psi_pre;   // d before the final ReLU.
    std::vector<float> psi;       // d.
  };

  /// Runs the feed-forward trunk for (anchor, relation-table row).
  void Forward(int32_t anchor, int32_t rel_row, Activations* acts) const;

  int32_t kh_;  // Reshape height = dim / kWidth.
  int32_t hc_;  // Conv output height = 2*kh - 2.
  int32_t wc_;  // Conv output width = kWidth - 2.
  int32_t flat_size_;

  Matrix filters_;      // kChannels x 9
  Matrix conv_bias_;    // 1 x kChannels
  Matrix fc_;           // flat_size x d
  Matrix fc_bias_;      // 1 x d
  Matrix entity_bias_;  // |E| x 1

  AdamState filter_adam_;
  AdamState conv_bias_adam_;
  AdamState fc_adam_;
  AdamState fc_bias_adam_;
  AdamState entity_bias_adam_;
};

void ConvE::Forward(int32_t anchor, int32_t rel_row,
                    Activations* acts) const {
  const int32_t d = options_.dim;
  const int32_t h_in = 2 * kh_;
  acts->img.assign(static_cast<size_t>(h_in) * kWidth, 0.0f);
  const float* a = entities_.Row(anchor);
  const float* r = relations_.Row(rel_row);
  // Top half: anchor embedding reshaped kh x kWidth; bottom half: relation.
  for (int32_t i = 0; i < d; ++i) acts->img[i] = a[i];
  for (int32_t i = 0; i < d; ++i) acts->img[d + i] = r[i];

  acts->conv_pre.assign(static_cast<size_t>(kChannels) * hc_ * wc_, 0.0f);
  acts->flat.assign(flat_size_, 0.0f);
  for (int32_t c = 0; c < kChannels; ++c) {
    const float* filt = filters_.Row(c);
    const float bias = conv_bias_.At(0, c);
    for (int32_t y = 0; y < hc_; ++y) {
      for (int32_t x = 0; x < wc_; ++x) {
        float acc = bias;
        for (int32_t dy = 0; dy < kKernel; ++dy) {
          for (int32_t dx = 0; dx < kKernel; ++dx) {
            acc += filt[dy * kKernel + dx] *
                   acts->img[(y + dy) * kWidth + (x + dx)];
          }
        }
        const int32_t f = (c * hc_ + y) * wc_ + x;
        acts->conv_pre[f] = acc;
        acts->flat[f] = acc > 0.0f ? acc : 0.0f;
      }
    }
  }

  acts->psi_pre.assign(d, 0.0f);
  for (int32_t o = 0; o < d; ++o) acts->psi_pre[o] = fc_bias_.At(0, o);
  for (int32_t f = 0; f < flat_size_; ++f) {
    const float act = acts->flat[f];
    if (act == 0.0f) continue;
    Axpy(act, fc_.Row(f), acts->psi_pre.data(), d);
  }
  acts->psi.resize(d);
  for (int32_t o = 0; o < d; ++o) {
    acts->psi[o] = acts->psi_pre[o] > 0.0f ? acts->psi_pre[o] : 0.0f;
  }
}

void ConvE::BuildKernelQueries(const int32_t* anchors, size_t num_queries,
                               int32_t relation, QueryDirection direction,
                               Matrix* queries) const {
  // Head queries use the reciprocal relation row (relation + |R|), the trick
  // that answers (?, r, t) as the tail query (t, r_reciprocal, ?).
  const int32_t rel_row = direction == QueryDirection::kTail
                              ? relation
                              : relation + num_relations_;
  const int32_t d = options_.dim;
  queries->Resize(num_queries, d);
  Activations acts;
  for (size_t q = 0; q < num_queries; ++q) {
    Forward(anchors[q], rel_row, &acts);
    std::copy(acts.psi.begin(), acts.psi.end(), queries->Row(q));
  }
}

void ConvE::UpdateTriple(int32_t head, int32_t relation, int32_t tail,
                         QueryDirection direction, float dscore) {
  // Tail queries run the trunk on (h, r) and treat t as the candidate; head
  // queries run it on (t, r_reciprocal) with h as the candidate.
  const bool tail_dir = direction == QueryDirection::kTail;
  const int32_t anchor = tail_dir ? head : tail;
  const int32_t cand = tail_dir ? tail : head;
  const int32_t rel_row = tail_dir ? relation : relation + num_relations_;

  Activations acts;
  Forward(anchor, rel_row, &acts);
  const int32_t d = options_.dim;

  // --- Candidate-side gradients. ------------------------------------------
  std::vector<float> gcand(d);
  const float* cand_row = entities_.Row(cand);
  for (int32_t o = 0; o < d; ++o) {
    gcand[o] = dscore * acts.psi[o];
  }
  const float gcand_bias = dscore;

  // --- Back through the final ReLU + dot product. --------------------------
  std::vector<float> dpsi(d);
  for (int32_t o = 0; o < d; ++o) {
    dpsi[o] = acts.psi_pre[o] > 0.0f ? dscore * cand_row[o] : 0.0f;
  }

  // --- FC layer. Rows whose ReLU input was clipped carry no gradient, so
  // they are skipped — roughly halves the dominant cost of a ConvE update.
  std::vector<float> dflat(flat_size_, 0.0f);
  std::vector<float> gfc_row(d);
  for (int32_t f = 0; f < flat_size_; ++f) {
    const float act = acts.flat[f];
    if (act == 0.0f) continue;
    const float* fc_row = fc_.Row(f);
    dflat[f] = Dot(fc_row, dpsi.data(), d);
    for (int32_t o = 0; o < d; ++o) {
      gfc_row[o] = act * dpsi[o];
    }
    fc_adam_.UpdateRow(&fc_, f, gfc_row.data());
  }
  fc_bias_adam_.UpdateRow(&fc_bias_, 0, dpsi.data());

  // --- Conv layer (through its ReLU). ---------------------------------------
  const int32_t h_in = 2 * kh_;
  std::vector<float> dimg(static_cast<size_t>(h_in) * kWidth, 0.0f);
  std::vector<float> gconv_bias(kChannels, 0.0f);
  std::vector<float> gfilt(kKernel * kKernel);
  for (int32_t c = 0; c < kChannels; ++c) {
    std::fill(gfilt.begin(), gfilt.end(), 0.0f);
    const float* filt = filters_.Row(c);
    for (int32_t y = 0; y < hc_; ++y) {
      for (int32_t x = 0; x < wc_; ++x) {
        const int32_t f = (c * hc_ + y) * wc_ + x;
        if (acts.conv_pre[f] <= 0.0f) continue;
        const float g = dflat[f];
        if (g == 0.0f) continue;
        gconv_bias[c] += g;
        for (int32_t dy = 0; dy < kKernel; ++dy) {
          for (int32_t dx = 0; dx < kKernel; ++dx) {
            const int32_t pixel = (y + dy) * kWidth + (x + dx);
            gfilt[dy * kKernel + dx] += g * acts.img[pixel];
            dimg[pixel] += g * filt[dy * kKernel + dx];
          }
        }
      }
    }
    filter_adam_.UpdateRow(&filters_, c, gfilt.data());
  }
  conv_bias_adam_.UpdateRow(&conv_bias_, 0, gconv_bias.data());

  // --- Input image -> anchor and relation embeddings: the image's first d
  // pixels are the anchor row, the next d the relation row. ----------------
  entity_adam_.UpdateRow(&entities_, cand, gcand.data());
  entity_bias_adam_.UpdateRow(&entity_bias_, cand, &gcand_bias);
  entity_adam_.UpdateRow(&entities_, anchor, dimg.data());
  relation_adam_.UpdateRow(&relations_, rel_row, dimg.data() + d);
}

}  // namespace

std::unique_ptr<KgeModel> model_impls::NewConvE(int32_t num_entities,
                                                int32_t num_relations,
                                                const ModelOptions& options) {
  return std::make_unique<ConvE>(num_entities, num_relations, options);
}

Status model_impls::CheckConvEDim(int32_t dim) {
  if (dim % kWidth != 0 || dim < 12) {
    return Status::InvalidArgument(
        StrFormat("ConvE dim must be >= 12 and divisible by %d, got %d",
                  kWidth, dim));
  }
  return Status::OK();
}

int64_t model_impls::ConvEExtraElementCount(int32_t num_entities,
                                            int32_t dim) {
  const int64_t d = dim;
  const int64_t flat =
      int64_t{kChannels} * (2 * (d / kWidth) - (kKernel - 1)) *
      (kWidth - (kKernel - 1));
  return int64_t{num_entities} + kChannels * (kKernel * kKernel + 1) +
         flat * d + d;
}

}  // namespace kgeval

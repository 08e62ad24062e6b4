#include "recommenders/pie.h"

#include <algorithm>
#include <vector>

#include "la/matrix.h"
#include "la/vector_ops.h"
#include "sched/task_group.h"
#include "util/rng.h"
#include "util/timer.h"

namespace kgeval {
namespace {

constexpr int32_t kDim = 32;        // Embedding width of the typing model.
constexpr int32_t kEpochs = 20;     // Passes over the observed memberships.
constexpr int32_t kNegatives = 4;   // Negative slots per positive.
constexpr float kLearningRate = 0.05f;
/// Sparsification: predicted probabilities below this are dropped from the
/// score matrix (they are the easy negatives anyway).
constexpr float kScoreThreshold = 0.05f;

}  // namespace

Result<RecommenderScores> PieRecommender::Fit(const Dataset& dataset) {
  WallTimer timer;
  const int32_t num_e = dataset.num_entities();
  const int64_t num_slots = 2LL * dataset.num_relations();
  const int32_t k = kDim;

  // Observed memberships (the self-supervision signal): entity -> slots.
  const CsrMatrix b = ObservedSlots(dataset, {Split::kTrain}).Transpose();

  Rng rng(seed_);
  Matrix feature_emb(num_slots, k);   // V: slot-as-feature embeddings.
  Matrix output_emb(num_slots, k);    // U: slot-as-label vectors.
  std::vector<float> output_bias(num_slots, 0.0f);
  feature_emb.InitXavier(&rng, k, k);
  output_emb.InitXavier(&rng, k, k);

  // Entity representation: mean of feature embeddings of its slots.
  auto compute_z = [&](int32_t e, float* z) {
    std::fill(z, z + k, 0.0f);
    const int64_t begin = b.RowBegin(e), end = b.RowEnd(e);
    if (begin == end) return;
    for (int64_t idx = begin; idx < end; ++idx) {
      Axpy(1.0f, feature_emb.Row(b.col_idx()[idx]), z, k);
    }
    Scale(1.0f / static_cast<float>(end - begin), z, k);
  };

  // SGD over observed (entity, slot) pairs with random negative slots.
  const float lr = kLearningRate;
  std::vector<float> z(k), gz(k);
  for (int32_t epoch = 0; epoch < kEpochs; ++epoch) {
    for (int32_t e = 0; e < num_e; ++e) {
      const int64_t begin = b.RowBegin(e), end = b.RowEnd(e);
      if (begin == end) continue;
      compute_z(e, z.data());
      std::fill(gz.begin(), gz.end(), 0.0f);
      auto step_slot = [&](int64_t slot, float label) {
        float* u = output_emb.Row(slot);
        const float logit = Dot(u, z.data(), k) + output_bias[slot];
        const float g = Sigmoid(logit) - label;  // dLoss/dlogit (BCE).
        output_bias[slot] -= lr * g;
        for (int32_t i = 0; i < k; ++i) {
          gz[i] += g * u[i];
          u[i] -= lr * g * z[i];
        }
      };
      for (int64_t idx = begin; idx < end; ++idx) {
        step_slot(b.col_idx()[idx], 1.0f);
        for (int32_t n = 0; n < kNegatives; ++n) {
          step_slot(static_cast<int64_t>(rng.NextBounded(num_slots)), 0.0f);
        }
      }
      // Backprop the accumulated z-gradient into the feature embeddings.
      const float scale =
          lr / static_cast<float>(end - begin);
      for (int64_t idx = begin; idx < end; ++idx) {
        Axpy(-scale, gz.data(), feature_emb.Row(b.col_idx()[idx]), k);
      }
    }
  }

  // Dense prediction pass, sparsified by the probability threshold. Observed
  // memberships are always kept at probability ~1.
  std::vector<std::vector<int32_t>> row_cols(num_e);
  std::vector<std::vector<float>> row_vals(num_e);
  ParallelFor(0, static_cast<size_t>(num_e), [&](size_t lo, size_t hi) {
    std::vector<float> ze(k);
    for (size_t e = lo; e < hi; ++e) {
      compute_z(static_cast<int32_t>(e), ze.data());
      auto& cols = row_cols[e];
      auto& vals = row_vals[e];
      int64_t seen_cursor = b.RowBegin(e);
      for (int64_t slot = 0; slot < num_slots; ++slot) {
        const bool seen = seen_cursor < b.RowEnd(e) &&
                          b.col_idx()[seen_cursor] == slot;
        if (seen) ++seen_cursor;
        const float p = Sigmoid(Dot(output_emb.Row(slot), ze.data(), k) +
                                output_bias[slot]);
        if (seen) {
          cols.push_back(static_cast<int32_t>(slot));
          vals.push_back(std::max(p, 0.99f));
        } else if (p >= kScoreThreshold) {
          cols.push_back(static_cast<int32_t>(slot));
          vals.push_back(p);
        }
      }
    }
  });

  std::vector<int64_t> row_ptr(num_e + 1, 0);
  for (int32_t e = 0; e < num_e; ++e) {
    row_ptr[e + 1] = row_ptr[e] + static_cast<int64_t>(row_cols[e].size());
  }
  std::vector<int32_t> col_idx(row_ptr[num_e]);
  std::vector<float> values(row_ptr[num_e]);
  for (int32_t e = 0; e < num_e; ++e) {
    std::copy(row_cols[e].begin(), row_cols[e].end(),
              col_idx.begin() + row_ptr[e]);
    std::copy(row_vals[e].begin(), row_vals[e].end(),
              values.begin() + row_ptr[e]);
  }
  const CsrMatrix scores(num_e, num_slots, std::move(row_ptr),
                         std::move(col_idx), std::move(values));
  return RecommenderScores{type(), scores.Transpose(), timer.Seconds()};
}

}  // namespace kgeval

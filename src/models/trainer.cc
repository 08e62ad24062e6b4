#include "models/trainer.h"

#include <cmath>
#include <filesystem>
#include <system_error>
#include <vector>

#include "la/vector_ops.h"
#include "models/checkpoint.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace kgeval {

Trainer::Trainer(const Dataset* dataset, TrainerOptions options)
    : dataset_(dataset), options_(options) {
  KGEVAL_CHECK(dataset_ != nullptr);
  KGEVAL_CHECK_GT(options_.negatives_per_positive, 0);
}

double Trainer::TrainEpoch(KgeModel* model, int32_t epoch) {
  const size_t n = dataset_->train().size();
  if (n == 0) return 0.0;
  std::vector<int32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<int32_t>(i);
  Rng shuffle_rng(options_.seed + 0x9E37 * static_cast<uint64_t>(epoch + 1));
  shuffle_rng.Shuffle(&order);

  Rng rng(options_.seed ^ (epoch * 0x517CC1B7ULL));
  const int32_t num_negatives = options_.negatives_per_positive;
  const int32_t num_entities = dataset_->num_entities();
  std::vector<int32_t> candidates(1 + num_negatives);
  std::vector<float> scores(1 + num_negatives);
  double loss = 0.0;
  for (const int32_t index : order) {
    const Triple& pos = dataset_->train()[index];
    for (QueryDirection dir : {QueryDirection::kTail, QueryDirection::kHead}) {
      const bool tail_dir = dir == QueryDirection::kTail;
      const int32_t anchor = tail_dir ? pos.head : pos.tail;
      const int32_t truth = tail_dir ? pos.tail : pos.head;
      candidates[0] = truth;
      for (int32_t k = 0; k < num_negatives; ++k) {
        int32_t neg = static_cast<int32_t>(rng.NextBounded(num_entities));
        if (neg == truth) {
          neg = static_cast<int32_t>((neg + 1) % num_entities);
        }
        candidates[1 + k] = neg;
      }
      model->ScoreCandidates(anchor, pos.relation, dir, candidates.data(),
                             candidates.size(), scores.data());
      // Positive term.
      loss -= LogSigmoid(scores[0]);
      const float dpos = Sigmoid(scores[0]) - 1.0f;
      model->UpdateTriple(pos.head, pos.relation, pos.tail, dir, dpos);
      // Negative terms.
      for (int32_t k = 0; k < num_negatives; ++k) {
        const float s_neg = scores[1 + k];
        loss -= LogSigmoid(-s_neg);
        const float dneg = Sigmoid(s_neg);
        Triple neg = pos;
        if (tail_dir) {
          neg.tail = candidates[1 + k];
        } else {
          neg.head = candidates[1 + k];
        }
        model->UpdateTriple(neg.head, pos.relation, neg.tail, dir, dneg);
      }
    }
  }
  return loss / static_cast<double>(n);
}

std::string CheckpointPath(const std::string& checkpoint_dir, int32_t epoch,
                           int32_t total_epochs) {
  // Width follows the run's largest epoch index, floored at the historical
  // 5 so existing sub-100000-epoch layouts keep their file names.
  int32_t width = 5;
  for (int64_t largest = static_cast<int64_t>(total_epochs) - 1;
       largest >= 100000; largest /= 10) {
    ++width;
  }
  return StrFormat("%s/epoch_%0*d.ckpt", checkpoint_dir.c_str(), width,
                   epoch);
}

Status Trainer::Train(KgeModel* model, const EpochCallback& callback) {
  if (model == nullptr) return Status::InvalidArgument("model is null");
  if (!options_.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.checkpoint_dir, ec);
    if (ec) {
      return Status::IoError(StrFormat("cannot create checkpoint dir %s: %s",
                                       options_.checkpoint_dir.c_str(),
                                       ec.message().c_str()));
    }
  }
  for (int32_t epoch = 0; epoch < options_.epochs; ++epoch) {
    TrainEpoch(model, epoch);
    if (!options_.checkpoint_dir.empty()) {
      // Written to a .tmp name and renamed into place: a WATCHer polling
      // the directory must never observe a half-written .ckpt file
      // (rename within one directory is atomic on POSIX filesystems).
      const std::string path =
          CheckpointPath(options_.checkpoint_dir, epoch, options_.epochs);
      const std::string tmp = path + ".tmp";
      KGEVAL_RETURN_NOT_OK(SaveModel(model, tmp));
      std::error_code rename_ec;
      std::filesystem::rename(tmp, path, rename_ec);
      if (rename_ec) {
        return Status::IoError(StrFormat("cannot rename %s to %s: %s",
                                         tmp.c_str(), path.c_str(),
                                         rename_ec.message().c_str()));
      }
    }
    if (callback) callback(epoch, *model);
  }
  return Status::OK();
}

}  // namespace kgeval

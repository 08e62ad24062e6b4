#ifndef KGEVAL_MODELS_TRAINER_H_
#define KGEVAL_MODELS_TRAINER_H_

#include <functional>
#include <string>

#include "graph/dataset.h"
#include "models/kge_model.h"
#include "util/status.h"

namespace kgeval {

/// Negative-sampling trainer options. The loss is the standard binary
/// cross-entropy with uniform entity corruption:
///   L = -log sigmoid(s_pos) - sum_neg log sigmoid(-s_neg),
/// applied in both query directions per positive (head and tail corruption).
struct TrainerOptions {
  int32_t epochs = 20;
  int32_t negatives_per_positive = 4;
  /// Has no effect: a training run always uses the calling thread. Kept
  /// only until its last setter is gone.
  int32_t num_threads = 0;
  uint64_t seed = 99;

  /// When non-empty, Train() snapshots the model to
  /// CheckpointPath(checkpoint_dir, epoch) after every epoch (the
  /// directory is created if missing) — the producer side of
  /// EvalSession::EstimateCheckpoints' from-disk monitoring loop. A failed
  /// save aborts training with its Status.
  std::string checkpoint_dir;
};

/// The snapshot path Train() writes for `epoch`: zero-padded so a
/// lexicographic listing of the directory is the epoch order. The pad is
/// 5 digits, widened when `total_epochs` (the run's TrainerOptions::epochs;
/// 0 = unknown) needs more — a 7-digit run zero-pads to 7 everywhere, so
/// "epoch_100000" can never sort between "epoch_00001" and "epoch_00002".
/// Callers reconstructing a training run's paths must pass the same
/// total_epochs the Trainer was configured with (≤ 100000-epoch runs are
/// unaffected either way). The service's SWEEP/WATCH ordering does not
/// depend on this: it orders by parsed epoch number
/// (CheckpointEpochKey), with lexicographic order only as the tie-break.
std::string CheckpointPath(const std::string& checkpoint_dir, int32_t epoch,
                           int32_t total_epochs = 0);

/// Drives epochs of stochastic training over a dataset's train split.
class Trainer {
 public:
  Trainer(const Dataset* dataset, TrainerOptions options);

  /// Runs one epoch of updates; returns the mean per-positive loss.
  double TrainEpoch(KgeModel* model, int32_t epoch);

  /// Runs options.epochs epochs. `callback`, when given, runs after each
  /// epoch (e.g., to estimate validation metrics — the paper's per-epoch
  /// evaluation loop).
  using EpochCallback =
      std::function<void(int32_t epoch, const KgeModel& model)>;
  Status Train(KgeModel* model, const EpochCallback& callback = nullptr);

 private:
  const Dataset* dataset_;
  TrainerOptions options_;
};

}  // namespace kgeval

#endif  // KGEVAL_MODELS_TRAINER_H_

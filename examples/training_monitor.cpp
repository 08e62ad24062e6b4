// Training monitor: the framework's practical use case from the paper's
// intro — watch a model's validation MRR during training (and early-stop)
// without ever paying for a full ranking, then verify the final number with
// one exact evaluation at the end.
//
// The monitoring loop runs inside an EvalSession: the 2|R| candidate pools
// are drawn ONCE and pinned, so every epoch's estimate (a) skips the
// per-estimate sampling cost and (b) ranks against identical pools — the
// per-epoch curve moves only when the model does, not when the draw does.
//
// With --from-disk the same monitoring happens post-hoc: the trainer only
// writes per-epoch snapshots, then EstimateCheckpoints sweeps the files
// against the pinned pools (loading on job threads, never holding more than
// worker-count models) and streams each epoch's estimate as it completes —
// the workflow for a training run that already happened, or one monitored
// by a separate process watching the checkpoint directory.
//
// Usage: training_monitor [preset] [max_epochs] [patience] [--from-disk]

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/eval_session.h"
#include "eval/full_evaluator.h"
#include "models/trainer.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "util/thread_pool.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace kgeval;
  const std::string preset = argc > 1 ? argv[1] : "codex-m";
  const int max_epochs = argc > 2 ? std::atoi(argv[2]) : 30;
  const int patience = argc > 3 ? std::atoi(argv[3]) : 5;
  const bool from_disk =
      argc > 4 && std::strcmp(argv[4], "--from-disk") == 0;

  SynthConfig config = GetPreset(preset, PresetScale::kScaled).ValueOrDie();
  SynthOutput synth = GenerateDataset(config).ValueOrDie();
  const Dataset& dataset = synth.dataset;
  const FilterIndex filter(dataset);

  FrameworkOptions fw_options;
  fw_options.recommender = RecommenderType::kLwd;
  fw_options.strategy = SamplingStrategy::kStatic;
  fw_options.sample_fraction = 0.1;
  auto session =
      EvalSession::Create(&dataset, &filter, fw_options, Split::kValid)
          .ValueOrDie();
  std::printf(
      "session ready in %.3fs (recommender fit + candidate sets) — pool "
      "draw %.3fs, paid once for the whole run\n",
      session->framework().build_seconds(),
      session->pools().sample_seconds);

  ModelOptions model_options;
  model_options.dim = 32;
  model_options.adam.learning_rate = 3e-3f;
  auto model = CreateModel(ModelType::kComplEx, dataset.num_entities(),
                           dataset.num_relations(), model_options)
                   .ValueOrDie();
  TrainerOptions trainer_options;
  trainer_options.negatives_per_positive = 8;

  double best_estimate = -1.0;
  double total_estimate_seconds = 0.0;
  int estimates = 0;

  if (from_disk) {
    // Phase 1: train to completion, writing one snapshot per epoch.
    const std::string ckpt_dir =
        (std::filesystem::temp_directory_path() /
         ("kgeval_monitor_ckpt_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(ckpt_dir);
    trainer_options.epochs = max_epochs;
    trainer_options.checkpoint_dir = ckpt_dir;
    Trainer trainer(&dataset, trainer_options);
    WallTimer train_timer;
    const Status trained = trainer.Train(
        model.get(), [](int32_t epoch, const KgeModel&) {
          std::printf("epoch %2d trained (snapshot written)\n", epoch);
        });
    if (!trained.ok()) {
      std::fprintf(stderr, "training failed: %s\n",
                   trained.ToString().c_str());
      return 1;
    }
    std::printf("trained %d epochs in %.3fs; monitoring from %s\n",
                max_epochs, train_timer.Seconds(), ckpt_dir.c_str());

    // Phase 2: sweep the snapshot files against the pinned pools,
    // streaming each epoch's estimate as its job completes.
    std::vector<std::string> paths;
    for (int epoch = 0; epoch < max_epochs; ++epoch) {
      paths.push_back(CheckpointPath(ckpt_dir, epoch));
    }
    CheckpointSweepStats stats;
    const std::vector<CheckpointEstimate> curve =
        session->EstimateCheckpoints(
            paths, EstimateRequest(),
            [](size_t index, const CheckpointEstimate& outcome) {
              if (outcome.status.ok()) {
                std::printf("  streamed: epoch %2zu est. valid MRR %.4f\n",
                            index, outcome.result.metrics.mrr);
              } else {
                std::printf("  streamed: epoch %2zu FAILED: %s\n", index,
                            outcome.status.ToString().c_str());
              }
            },
            &stats);
    total_estimate_seconds = stats.wall_seconds;

    // Retrospective early-stop analysis over the in-order curve.
    int best_epoch = -1, stop_epoch = -1, epochs_since_best = 0;
    for (size_t epoch = 0; epoch < curve.size(); ++epoch) {
      if (!curve[epoch].status.ok()) continue;
      ++estimates;
      const double estimate = curve[epoch].result.metrics.mrr;
      if (estimate > best_estimate) {
        best_estimate = estimate;
        best_epoch = static_cast<int>(epoch);
        epochs_since_best = 0;
      } else if (++epochs_since_best >= patience && stop_epoch < 0) {
        stop_epoch = static_cast<int>(epoch);
      }
    }
    std::printf(
        "sweep: %d snapshots in %.3fs (resident high-water %zu of %zu "
        "worker threads, %zu failed)\n"
        "best epoch %d (est. MRR %.4f); early stopping would have halted "
        "%s\n",
        estimates, stats.wall_seconds, stats.max_resident_models,
        GlobalThreadPool()->num_threads(), stats.failed, best_epoch,
        best_estimate,
        stop_epoch >= 0
            ? ("at epoch " + std::to_string(stop_epoch)).c_str()
            : "never (improving to the end)");
    std::filesystem::remove_all(ckpt_dir);
  } else {
    trainer_options.epochs = 1;  // Driven manually below.
    Trainer trainer(&dataset, trainer_options);
    int epochs_since_best = 0;
    for (int epoch = 0; epoch < max_epochs; ++epoch) {
      const double loss = trainer.TrainEpoch(model.get(), epoch);
      WallTimer timer;
      const double estimate = session->Estimate(*model).metrics.mrr;
      total_estimate_seconds += timer.Seconds();
      ++estimates;
      std::printf("epoch %2d  loss %.4f  est. valid MRR %.4f%s\n", epoch,
                  loss, estimate,
                  estimate > best_estimate ? "  (best)" : "");
      if (estimate > best_estimate) {
        best_estimate = estimate;
        epochs_since_best = 0;
      } else if (++epochs_since_best >= patience) {
        std::printf("early stop: no improvement for %d epochs\n", patience);
        break;
      }
    }
  }

  WallTimer full_timer;
  const double exact =
      EvaluateFullRanking(*model, dataset, filter, Split::kValid)
          .metrics.mrr;
  const double full_seconds = full_timer.Seconds();
  std::printf(
      "\nfinal exact valid MRR %.4f (best estimate %.4f)\n"
      "monitoring cost: %.3fs total for %d estimates vs %.3fs for ONE full "
      "evaluation\n"
      "sampling amortized: one pinned draw (%.3fs) served all %d estimates "
      "— %.4fs/epoch instead of %.3fs/epoch redrawn\n",
      exact, best_estimate, total_estimate_seconds, estimates, full_seconds,
      session->pools().sample_seconds, estimates,
      session->pools().sample_seconds / estimates,
      session->pools().sample_seconds);
  return 0;
}

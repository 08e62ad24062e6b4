// Quickstart: generate a typed KG, train a ComplEx model, and compare the
// paper's fast estimate of the filtered MRR against the exact full ranking.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/quickstart

#include <cstdio>

#include "core/framework.h"
#include "eval/full_evaluator.h"
#include "models/trainer.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "util/timer.h"

int main() {
  using namespace kgeval;

  // 1. A CoDEx-S-shaped synthetic KG (docs/ARCHITECTURE.md, "Data",
  // describes the generator that stands in for the downloaded benchmarks).
  SynthConfig config = GetPreset("codex-s", PresetScale::kScaled).ValueOrDie();
  SynthOutput synth = GenerateDataset(config).ValueOrDie();
  const Dataset& dataset = synth.dataset;
  std::printf("dataset: %s  |E|=%d |R|=%d train=%zu test=%zu\n",
              dataset.name().c_str(), dataset.num_entities(),
              dataset.num_relations(), dataset.train().size(),
              dataset.test().size());

  // 2. Train a KGC model.
  ModelOptions model_options;
  model_options.dim = 32;
  auto model = CreateModel(ModelType::kComplEx, dataset.num_entities(),
                           dataset.num_relations(), model_options)
                   .ValueOrDie();
  TrainerOptions trainer_options;
  trainer_options.epochs = 10;
  Trainer trainer(&dataset, trainer_options);
  const Status trained = trainer.Train(model.get());
  if (!trained.ok()) {
    std::fprintf(stderr, "training failed: %s\n", trained.ToString().c_str());
    return 1;
  }

  // 3. Exact filtered ranking (the expensive O(|E|^2) baseline)...
  FilterIndex filter(dataset);
  WallTimer full_timer;
  FullEvalResult full =
      EvaluateFullRanking(*model, dataset, filter, Split::kTest);
  const double full_seconds = full_timer.Seconds();
  std::printf("full ranking : %s  (%.3fs)\n",
              full.metrics.ToString().c_str(), full_seconds);

  // 4. ...vs the framework's estimate with L-WD-guided probabilistic
  // sampling of 10%% of the entities.
  FrameworkOptions fw_options;
  fw_options.recommender = RecommenderType::kLwd;
  fw_options.strategy = SamplingStrategy::kProbabilistic;
  fw_options.sample_fraction = 0.1;
  auto framework = EvaluationFramework::Build(&dataset, fw_options)
                       .ValueOrDie();
  EstimateResult estimate =
      framework->Estimate(*model, filter, Split::kTest);
  std::printf("framework    : %s  (%.3fs eval + %.3fs sampling)\n",
              estimate.metrics.ToString().c_str(), estimate.eval_seconds,
              estimate.sample_seconds);
  std::printf("MRR abs error: %.4f\n",
              std::abs(estimate.metrics.mrr - full.metrics.mrr));
  return 0;
}

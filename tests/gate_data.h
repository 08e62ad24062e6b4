#ifndef KGEVAL_TESTS_GATE_DATA_H_
#define KGEVAL_TESTS_GATE_DATA_H_

#include <cstdint>
#include <memory>
#include <string>

#include "graph/dataset.h"
#include "models/kge_model.h"
#include "models/trainer.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "util/logging.h"

namespace kgeval {

/// The data of the parity gates that run on a trained model: the scaled
/// codex-s preset and one training recipe (dim 32, Adam at 3e-3, eight
/// negatives per positive), so every suite builds the same inputs.
inline Dataset CodexS() {
  return GenerateDataset(
             GetPreset("codex-s", PresetScale::kScaled).ValueOrDie())
      .ValueOrDie()
      .dataset;
}

struct GateTraining {
  ModelType type = ModelType::kComplEx;
  int32_t epochs = 1;
  /// Seeds the initial embeddings; the trainer's stream is seed · 7919.
  uint64_t seed = 11;
  /// Writes a snapshot per epoch here when set.
  std::string checkpoint_dir;
};

inline std::unique_ptr<KgeModel> TrainGateModel(const Dataset& dataset,
                                                const GateTraining& recipe) {
  ModelOptions options;
  options.dim = 32;
  options.adam.learning_rate = 3e-3f;
  options.seed = recipe.seed;
  auto model = CreateModel(recipe.type, dataset.num_entities(),
                           dataset.num_relations(), options)
                   .ValueOrDie();
  TrainerOptions trainer_options;
  trainer_options.epochs = recipe.epochs;
  trainer_options.negatives_per_positive = 8;
  trainer_options.seed = recipe.seed * 7919;
  trainer_options.checkpoint_dir = recipe.checkpoint_dir;
  Trainer trainer(&dataset, trainer_options);
  KGEVAL_CHECK(trainer.Train(model.get()).ok());
  return model;
}

}  // namespace kgeval

#endif  // KGEVAL_TESTS_GATE_DATA_H_

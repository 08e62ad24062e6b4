#include "bench/bench_common.h"

#include <cstdio>

#include "util/logging.h"
#include "util/string_util.h"

namespace kgeval {
namespace bench {

std::vector<std::string> Datasets(const BenchArgs& args,
                                  std::vector<std::string> all,
                                  std::vector<std::string> fast) {
  if (!args.only_dataset.empty()) return {args.only_dataset};
  return args.fast ? fast : all;
}

SynthOutput LoadPreset(const std::string& name, const BenchArgs& args) {
  const PresetScale scale =
      args.paper_scale ? PresetScale::kPaper : PresetScale::kScaled;
  SynthConfig config = GetPreset(name, scale).ValueOrDie();
  return GenerateDataset(config).ValueOrDie();
}

int32_t Epochs(const BenchArgs& args, int32_t fast, int32_t full) {
  if (args.epochs > 0) return args.epochs;
  return args.fast ? fast : full;
}

std::unique_ptr<KgeModel> TrainModel(const Dataset& dataset, int32_t epochs) {
  constexpr uint64_t kSeed = 11;
  ModelOptions options;
  options.dim = 32;
  options.adam.learning_rate = 3e-3f;
  options.seed = kSeed;
  auto model = CreateModel(ModelType::kComplEx, dataset.num_entities(),
                           dataset.num_relations(), options)
                   .ValueOrDie();
  TrainerOptions trainer_options;
  trainer_options.epochs = epochs;
  trainer_options.negatives_per_positive = 8;
  trainer_options.seed = kSeed * 7919;
  Trainer trainer(&dataset, trainer_options);
  KGEVAL_CHECK(trainer.Train(model.get()).ok());
  return model;
}

std::unique_ptr<EvaluationFramework> BuildFramework(const Dataset& dataset,
                                                    SamplingStrategy strategy,
                                                    double fraction) {
  FrameworkOptions options;
  options.strategy = strategy;
  options.sample_fraction = fraction;
  return EvaluationFramework::Build(&dataset, options).ValueOrDie();
}

std::optional<SampledCandidates> KpPools(const EvaluationFramework& framework,
                                         Split split, uint64_t seed) {
  const SamplingStrategy strategy = framework.options().strategy;
  if (strategy == SamplingStrategy::kRandom) return std::nullopt;
  const Dataset& dataset = *framework.dataset();
  Rng rng(seed);
  return DrawCandidates(strategy, &framework.sets(), dataset.num_entities(),
                        framework.SampleSize(), NeededSlots(dataset, split),
                        2 * dataset.num_relations(), &rng);
}

void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n\n", title.c_str());
}

void PrintNote(const std::string& text) {
  std::printf("note: %s\n", text.c_str());
}

std::string F(double value, int digits) {
  return StrFormat("%.*f", digits, value);
}

std::string Pct(double fraction, int digits) {
  return StrFormat("%.*f%%", digits, 100.0 * fraction);
}

}  // namespace bench
}  // namespace kgeval

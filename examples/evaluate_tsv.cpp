// End-to-end on a real dataset directory: load train/valid/test TSVs (the
// standard FB15k-237/CoDEx layout), train a model, estimate its filtered
// metrics with the framework, verify against the exact ranking, and save a
// model checkpoint.
//
// Usage: evaluate_tsv <dataset_dir> [model] [epochs] [checkpoint_out]
//
// When no directory is given, a demo directory is synthesized first so the
// example always runs out of the box.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/framework.h"
#include "eval/full_evaluator.h"
#include "graph/io.h"
#include "models/checkpoint.h"
#include "models/trainer.h"
#include "synth/config.h"
#include "synth/generator.h"

int main(int argc, char** argv) {
  using namespace kgeval;
  std::string dir = argc > 1 ? argv[1] : "";
  const std::string model_name = argc > 2 ? argv[2] : "ComplEx";
  const int epochs = argc > 3 ? std::atoi(argv[3]) : 15;
  const std::string checkpoint = argc > 4 ? argv[4] : "";

  if (dir.empty()) {
    dir = (std::filesystem::temp_directory_path() / "kgeval_demo_tsv")
              .string();
    std::filesystem::create_directories(dir);
    const SynthOutput synth =
        GenerateDataset(
            GetPreset("codex-s", PresetScale::kScaled).ValueOrDie())
            .ValueOrDie();
    const Status saved = SaveDatasetToTsv(synth.dataset, dir);
    if (!saved.ok()) {
      std::fprintf(stderr, "cannot write demo dataset: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("no directory given; wrote a demo dataset to %s\n",
                dir.c_str());
  }

  auto dataset_or = LoadDatasetFromTsv(dir);
  if (!dataset_or.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 dataset_or.status().ToString().c_str());
    return 1;
  }
  const Dataset& dataset = dataset_or.ValueOrDie();
  std::printf("loaded %s: |E|=%d |R|=%d train=%zu valid=%zu test=%zu%s\n",
              dir.c_str(), dataset.num_entities(), dataset.num_relations(),
              dataset.train().size(), dataset.valid().size(),
              dataset.test().size(),
              dataset.has_types() ? " (+types)" : "");

  auto type_or = ParseModelType(model_name);
  if (!type_or.ok()) {
    std::fprintf(stderr, "%s\n", type_or.status().ToString().c_str());
    return 1;
  }
  ModelOptions model_options;
  model_options.dim = 32;
  model_options.adam.learning_rate = 3e-3f;
  auto model = CreateModel(type_or.ValueOrDie(), dataset.num_entities(),
                           dataset.num_relations(), model_options)
                   .ValueOrDie();
  TrainerOptions trainer_options;
  trainer_options.epochs = epochs;
  trainer_options.negatives_per_positive = 8;
  Trainer trainer(&dataset, trainer_options);
  std::printf("training %s for %d epochs...\n", model->name(), epochs);
  (void)trainer.Train(model.get());

  const FilterIndex filter(dataset);
  FrameworkOptions fw_options;
  fw_options.recommender =
      dataset.has_types() ? RecommenderType::kLwdT : RecommenderType::kLwd;
  fw_options.strategy = SamplingStrategy::kProbabilistic;
  fw_options.sample_fraction = 0.1;
  auto framework =
      EvaluationFramework::Build(&dataset, fw_options).ValueOrDie();
  const SampledEvalResult estimate =
      framework->Estimate(*model, filter, Split::kTest);
  std::printf("estimated (P, %s, 10%%): %s\n",
              RecommenderTypeName(fw_options.recommender),
              estimate.metrics.ToString().c_str());
  const FullEvalResult exact =
      EvaluateFullRanking(*model, dataset, filter, Split::kTest);
  std::printf("exact full ranking    : %s\n",
              exact.metrics.ToString().c_str());
  std::printf("MRR abs error %.4f\n",
              std::abs(estimate.metrics.mrr - exact.metrics.mrr));

  if (!checkpoint.empty()) {
    const Status saved = SaveModel(model.get(), checkpoint);
    std::printf("checkpoint %s: %s\n", checkpoint.c_str(),
                saved.ToString().c_str());
  }
  return 0;
}

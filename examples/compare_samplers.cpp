// Compares the three candidate-sampling strategies of the paper (uniform
// Random, Static, Probabilistic) against the exact full ranking, across a
// sweep of sample sizes — a miniature of Figure 3b.
//
// Usage: compare_samplers [preset] [epochs]
//   preset  one of fb15k, fb15k237, yago310, wikikg2, codex-s/m/l
//           (default codex-m)
//   epochs  training epochs for the ComplEx model (default 25)

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/framework.h"
#include "eval/full_evaluator.h"
#include "models/trainer.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "util/string_util.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace kgeval;
  const std::string preset = argc > 1 ? argv[1] : "codex-m";
  const int epochs = argc > 2 ? std::atoi(argv[2]) : 25;

  SynthConfig config = GetPreset(preset, PresetScale::kScaled).ValueOrDie();
  SynthOutput synth = GenerateDataset(config).ValueOrDie();
  const Dataset& dataset = synth.dataset;
  std::printf("dataset %s: |E|=%d |R|=%d train=%zu\n",
              dataset.name().c_str(), dataset.num_entities(),
              dataset.num_relations(), dataset.train().size());

  ModelOptions model_options;
  model_options.dim = 32;
  auto model = CreateModel(ModelType::kComplEx, dataset.num_entities(),
                           dataset.num_relations(), model_options)
                   .ValueOrDie();
  TrainerOptions trainer_options;
  trainer_options.epochs = epochs;
  Trainer trainer(&dataset, trainer_options);
  (void)trainer.Train(model.get());

  FilterIndex filter(dataset);
  FullEvalResult full =
      EvaluateFullRanking(*model, dataset, filter, Split::kTest);
  std::printf("true (full ranking): %s\n\n", full.metrics.ToString().c_str());

  TextTable table({"fraction", "Random MRR", "Static MRR", "Prob. MRR",
                   "|err| R", "|err| S", "|err| P"});
  for (double fraction : {0.01, 0.02, 0.05, 0.1, 0.2}) {
    double mrr[3] = {0, 0, 0};
    for (SamplingStrategy strategy :
         {SamplingStrategy::kRandom, SamplingStrategy::kStatic,
          SamplingStrategy::kProbabilistic}) {
      FrameworkOptions options;
      options.strategy = strategy;
      options.recommender = RecommenderType::kLwd;
      options.sample_fraction = fraction;
      auto framework =
          EvaluationFramework::Build(&dataset, options).ValueOrDie();
      EstimateResult estimate =
          framework->Estimate(*model, filter, Split::kTest);
      mrr[static_cast<int>(strategy)] = estimate.metrics.mrr;
    }
    table.AddRow({StrFormat("%.2f", fraction), StrFormat("%.4f", mrr[0]),
                  StrFormat("%.4f", mrr[1]), StrFormat("%.4f", mrr[2]),
                  StrFormat("%.4f", std::abs(mrr[0] - full.metrics.mrr)),
                  StrFormat("%.4f", std::abs(mrr[1] - full.metrics.mrr)),
                  StrFormat("%.4f", std::abs(mrr[2] - full.metrics.mrr))});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

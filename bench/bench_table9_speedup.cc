// Reproduces Table 9 / Table 11: average evaluation speed-up (with standard
// deviations) of KP and of the sampled ranking estimates over the full
// filtered evaluation, per dataset. --json additionally writes
// BENCH_table9.json so the perf trajectory is machine-readable.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/framework.h"
#include "eval/full_evaluator.h"
#include "kp/kp_metric.h"
#include "la/kernels/kernels.h"
#include "stats/correlation.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

struct Table9Row {
  std::string method;
  std::string sampling;
  std::string dataset;
  double speedup_mean = 0.0;
  double speedup_std = 0.0;
  double full_s = 0.0;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// Writes BENCH_table9.json in the working directory: the Table 9 speed-up
// rows, one object per (method, sampling, dataset).
void WriteJson(const std::vector<Table9Row>& table9) {
  const char* path = "BENCH_table9.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"kernels\": \"%s\",\n  \"table9\": [\n",
               JsonEscape(kgeval::ActiveScoreKernelName()).c_str());
  for (size_t i = 0; i < table9.size(); ++i) {
    const Table9Row& r = table9[i];
    std::fprintf(
        f,
        "    {\"method\": \"%s\", \"sampling\": \"%s\", \"dataset\": "
        "\"%s\", \"speedup_mean\": %.3f, \"speedup_std\": %.3f, "
        "\"full_eval_s\": %.6f}%s\n",
        JsonEscape(r.method).c_str(), JsonEscape(r.sampling).c_str(),
        JsonEscape(r.dataset).c_str(), r.speedup_mean, r.speedup_std,
        r.full_s, i + 1 < table9.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kgeval;
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  std::printf("score kernels: %s\n", ActiveScoreKernelName());
  std::vector<std::string> datasets = {"codex-s", "codex-m",  "codex-l",
                                       "fb15k",   "fb15k237", "yago310",
                                       "wikikg2"};
  if (args.fast) datasets = {"codex-s", "codex-m"};
  // An explicit --dataset always wins, including over --fast's list.
  if (!args.only_dataset.empty()) datasets = {args.only_dataset};
  const int reps = args.fast ? 3 : 5;

  bench::PrintHeader("Table 9: average speed-up of evaluation (higher is "
                     "better), mean +/- std over repetitions");
  std::vector<Table9Row> table9_rows;
  TextTable table({"Method", "Sampling", "Dataset", "Speed-up",
                   "Full eval (s)"});
  for (const std::string& name : datasets) {
    const SynthOutput synth = bench::LoadPreset(name, args);
    const Dataset& dataset = synth.dataset;
    const FilterIndex filter(dataset);
    bench::TrainSpec spec;
    spec.epochs = args.fast ? 2 : 4;
    if (args.epochs > 0) spec.epochs = args.epochs;
    auto model = bench::TrainModel(dataset, spec);

    // Full evaluation timing baseline.
    std::vector<double> full_times;
    for (int rep = 0; rep < reps; ++rep) {
      WallTimer timer;
      EvaluateFullRanking(*model, dataset, filter, Split::kTest);
      full_times.push_back(timer.Seconds());
    }
    const double full_mean = Mean(full_times);

    table.AddSeparator();
    for (SamplingStrategy strategy :
         {SamplingStrategy::kRandom, SamplingStrategy::kProbabilistic,
          SamplingStrategy::kStatic}) {
      FrameworkOptions options;
      options.strategy = strategy;
      options.recommender = RecommenderType::kLwd;
      // The paper's setting: 10% of entities (8% cap on wikikg2).
      options.sample_fraction = name == "wikikg2" ? 0.08 : 0.1;
      auto framework =
          EvaluationFramework::Build(&dataset, options).ValueOrDie();

      std::vector<double> rank_speedups, kp_speedups;
      for (int rep = 0; rep < reps; ++rep) {
        WallTimer timer;
        framework->Estimate(*model, filter, Split::kTest);
        const double estimate_time = timer.Seconds();
        rank_speedups.push_back(full_mean / estimate_time);

        KpOptions kp_options;
        kp_options.num_samples = 1500;
        kp_options.seed = 100 + rep;
        SampledCandidates pools;
        const SampledCandidates* pool_ptr = nullptr;
        Rng rng(17 + rep);
        if (strategy != SamplingStrategy::kRandom) {
          pools = DrawCandidates(strategy, &framework->sets(),
                                 dataset.num_entities(),
                                 framework->SampleSize(),
                                 NeededSlots(dataset, Split::kTest),
                                 2 * dataset.num_relations(), &rng);
          pool_ptr = &pools;
        }
        WallTimer kp_timer;
        ComputeKp(*model, dataset, Split::kTest, kp_options, pool_ptr);
        kp_speedups.push_back(full_mean / kp_timer.Seconds());
      }
      table9_rows.push_back({"KP", SamplingStrategyName(strategy), name,
                             Mean(kp_speedups), StdDev(kp_speedups),
                             full_mean});
      table9_rows.push_back({"Ranking", SamplingStrategyName(strategy), name,
                             Mean(rank_speedups), StdDev(rank_speedups),
                             full_mean});
      table.AddRow({"KP", SamplingStrategyName(strategy), name,
                    StrFormat("%.1f +/- %.1f", Mean(kp_speedups),
                              StdDev(kp_speedups)),
                    bench::F(full_mean, 3)});
      table.AddRow({"Ranking", SamplingStrategyName(strategy), name,
                    StrFormat("%.1f +/- %.1f", Mean(rank_speedups),
                              StdDev(rank_speedups)),
                    bench::F(full_mean, 3)});
    }
  }
  std::printf("%s", table.ToString().c_str());
  bench::PrintNote(
      "paper shape: modest speed-ups (2-15x) on the small datasets where "
      "the full evaluation is already fast, growing to two orders of "
      "magnitude on wikikg2");
  if (args.json) WriteJson(table9_rows);
  return 0;
}

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

namespace kgeval {
namespace bench {

void RunTable9(const BenchArgs& args) {
  std::printf("score kernels: %s\n", ActiveScoreKernelName());
  const std::vector<std::string> datasets =
      Datasets(args,
               {"codex-s", "codex-m", "codex-l", "fb15k", "fb15k237",
                "yago310", "wikikg2"},
               {"codex-s", "codex-m"});
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
    auto model = bench::TrainModel(dataset, Epochs(args, 2, 4));

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
      // The paper's setting: 10% of entities (8% cap on wikikg2).
      auto framework = BuildFramework(dataset, strategy,
                                      name == "wikikg2" ? 0.08 : 0.1);

      std::vector<double> rank_speedups, kp_speedups;
      for (int rep = 0; rep < reps; ++rep) {
        WallTimer timer;
        framework->Estimate(*model, filter, Split::kTest);
        const double estimate_time = timer.Seconds();
        rank_speedups.push_back(full_mean / estimate_time);

        KpOptions kp_options;
        kp_options.num_samples = 1500;
        kp_options.seed = 100 + rep;
        const std::optional<SampledCandidates> pools =
            KpPools(*framework, Split::kTest, 17 + rep);
        WallTimer kp_timer;
        ComputeKp(*model, dataset, Split::kTest, kp_options,
                  pools ? &*pools : nullptr);
        kp_speedups.push_back(full_mean / kp_timer.Seconds());
      }
      for (const auto& [method, speedups] :
           {std::pair{"KP", &kp_speedups},
            std::pair{"Ranking", &rank_speedups}}) {
        const Table9Row row = {method, SamplingStrategyName(strategy), name,
                               Mean(*speedups), StdDev(*speedups), full_mean};
        table9_rows.push_back(row);
        table.AddRow({row.method, row.sampling, row.dataset,
                      StrFormat("%.1f +/- %.1f", row.speedup_mean,
                                row.speedup_std),
                      bench::F(full_mean, 3)});
      }
    }
  }
  std::printf("%s", table.ToString().c_str());
  bench::PrintNote(
      "paper shape: modest speed-ups (2-15x) on the small datasets where "
      "the full evaluation is already fast, growing to two orders of "
      "magnitude on wikikg2");
  if (args.json) WriteJson(table9_rows);
}

}  // namespace bench
}  // namespace kgeval

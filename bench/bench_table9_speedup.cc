// Reproduces Table 9 / Table 11: average evaluation speed-up (with standard
// deviations) of KP and of the sampled ranking estimates over the full
// filtered evaluation, per dataset. Also compares the sampled evaluator's
// engines, scalar triple-major vs prepared+fused, per model. --json
// additionally writes
// BENCH_table9.json so the perf trajectory is machine-readable.

#include <algorithm>
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

struct EngineRow {
  const char* model;
  std::string dataset;
  double scalar_s = 0.0;
  double prepared_s = 0.0;
  bool parity = false;
};

struct Table9Row {
  std::string method;
  std::string sampling;
  std::string dataset;
  double speedup_mean = 0.0;
  double speedup_std = 0.0;
  double full_s = 0.0;
};

// Times the two sampled-evaluation engines on one synthetic dataset, per
// model: scalar triple-major (the parity oracle) and the prepared+fused
// engine (pool gathered once per slot, one query construction per block for
// pool + truths). Both share pools, so their ranks must agree exactly.
void ReportEngineComparison(const kgeval::bench::BenchArgs& args,
                            std::vector<EngineRow>* rows) {
  using namespace kgeval;
  bench::PrintHeader(
      "Sampled-evaluation engines: scalar vs prepared+fused");
  const std::string dataset_name = args.fast ? "codex-s" : "codex-m";
  const SynthOutput synth = bench::LoadPreset(dataset_name, args);
  const Dataset& dataset = synth.dataset;
  const FilterIndex filter(dataset);
  // Engine deltas on the light models are a few percent of a few
  // milliseconds, so time min-of-N (jitter-robust) over more repetitions
  // than the wall-clock tables use.
  const int reps = args.fast ? 11 : 15;
  const int64_t n_s = static_cast<int64_t>(0.1 * dataset.num_entities());

  TextTable table({"Model", "Dataset", "Scalar (s)", "Prepared (s)",
                   "vs scalar", "Rank parity"});
  for (ModelType type :
       {ModelType::kTransE, ModelType::kDistMult, ModelType::kComplEx,
        ModelType::kRescal, ModelType::kRotatE, ModelType::kTuckEr,
        ModelType::kConvE}) {
    ModelOptions options;
    options.dim = 32;
    auto model = CreateModel(type, dataset.num_entities(),
                             dataset.num_relations(), options)
                     .ValueOrDie();
    Rng rng(91);
    const SampledCandidates pools = DrawCandidates(
        SamplingStrategy::kRandom, nullptr, dataset.num_entities(), n_s,
        NeededSlots(dataset, Split::kTest), 2 * dataset.num_relations(),
        &rng);
    // One warm-up pass per engine (also the parity check), then timed
    // repetitions.
    SampledEvalResult scalar =
        EvaluateSampledScalar(*model, dataset, filter, Split::kTest, pools);
    SampledEvalResult prepared =
        EvaluateSampled(*model, dataset, filter, Split::kTest, pools);
    const bool parity = scalar.ranks == prepared.ranks;
    // Each engine is timed in its own burst (not round-robin) so one
    // engine's cache/allocator footprint doesn't bleed into the next
    // engine's measurement.
    std::vector<double> scalar_times, prepared_times;
    for (int rep = 0; rep < reps; ++rep) {
      WallTimer timer;
      EvaluateSampledScalar(*model, dataset, filter, Split::kTest, pools);
      scalar_times.push_back(timer.Seconds());
    }
    for (int rep = 0; rep < reps; ++rep) {
      WallTimer timer;
      EvaluateSampled(*model, dataset, filter, Split::kTest, pools);
      prepared_times.push_back(timer.Seconds());
    }
    EngineRow row;
    row.model = ModelTypeName(type);
    row.dataset = dataset_name;
    row.scalar_s = *std::min_element(scalar_times.begin(),
                                     scalar_times.end());
    row.prepared_s = *std::min_element(prepared_times.begin(),
                                       prepared_times.end());
    row.parity = parity;
    rows->push_back(row);
    table.AddRow({row.model, row.dataset, bench::F(row.scalar_s, 4),
                  bench::F(row.prepared_s, 4),
                  StrFormat("%.1fx", row.scalar_s / row.prepared_s),
                  parity ? "exact" : "MISMATCH"});
  }
  std::printf("%s", table.ToString().c_str());
  bench::PrintNote(
      "both engines score identical pools and produce bit-identical ranks; "
      "the prepared engine gathers each slot's pool once per evaluation and "
      "fuses pool+truth scoring into one query construction per block "
      "(largest edge for ConvE/TuckER, whose query construction "
      "dominates)");
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// Writes BENCH_table9.json in the working directory: the engine-comparison
// rows plus the Table 9 speed-up rows, one stable schema per section.
void WriteJson(const std::vector<EngineRow>& engines,
               const std::vector<Table9Row>& table9) {
  const char* path = "BENCH_table9.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"kernels\": \"%s\",\n  \"engines\": [\n",
               JsonEscape(kgeval::ActiveScoreKernelName()).c_str());
  for (size_t i = 0; i < engines.size(); ++i) {
    const EngineRow& r = engines[i];
    std::fprintf(
        f,
        "    {\"model\": \"%s\", \"dataset\": \"%s\", \"scalar_s\": %.6f, "
        "\"prepared_s\": %.6f, \"speedup_vs_scalar\": %.3f, "
        "\"rank_parity\": %s}%s\n",
        JsonEscape(r.model).c_str(), JsonEscape(r.dataset).c_str(),
        r.scalar_s, r.prepared_s, r.scalar_s / r.prepared_s,
        r.parity ? "true" : "false", i + 1 < engines.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"table9\": [\n");
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
  std::vector<EngineRow> engine_rows;
  ReportEngineComparison(args, &engine_rows);
  std::vector<std::string> datasets = {"codex-s", "codex-m",  "codex-l",
                                       "fb15k",   "fb15k237", "yago310",
                                       "wikikg2"};
  if (args.fast) datasets = {"codex-s", "codex-m"};
  // An explicit --dataset always wins, including over --fast's list (the
  // CI smoke relies on --fast --dataset=codex-s staying tiny).
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
  if (args.json) WriteJson(engine_rows, table9_rows);
  return 0;
}

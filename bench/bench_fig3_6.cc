// Figures 3a-c and 6a-c on wikikg2: the sampled estimates against the
// sample size (one sweep behind 3a, 3b and 6) and across training (3c).

#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_common.h"
#include "core/eval_session.h"
#include "core/framework.h"
#include "eval/full_evaluator.h"
#include "models/trainer.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/timer.h"

namespace kgeval {
namespace bench {
namespace {

constexpr SamplingStrategy kRandom = SamplingStrategy::kRandom;
constexpr SamplingStrategy kStatic = SamplingStrategy::kStatic;
constexpr SamplingStrategy kProbabilistic = SamplingStrategy::kProbabilistic;

/// What one sample size measured.
struct Cell {
  std::map<SamplingStrategy, double> seconds;  // Timed Estimate().
  std::map<SamplingStrategy, RankingMetrics> metrics;
  double adaptive_seconds = 0.0;  // Only set once an adaptive pass ran.
  EstimateResult adaptive;
};

}  // namespace

// Reproduces Figures 3a, 3b and 6 (a-c), three readings of one experiment
// on the wikikg2 test set: for Random / Static / Probabilistic sampling at
// a range of sample sizes, the evaluation time (3a, with the full
// evaluation as the reference line), the filtered-MRR estimate (3b) and
// the filtered Hits@1 / Hits@3 / Hits@10 estimates (6a-c) against the true
// values, plus an adaptive Probabilistic pass (3a's time, 3b's estimate).
//
// One model is trained, and each (sample size, strategy) cell is estimated
// once, on a framework built for it alone: a framework's RNG advances with
// every draw, so a fresh one per cell draws the same pools whichever
// figures are selected. Each figure keeps its own sample sizes.
void RunSamplingSweep(const BenchArgs& args) {
  const std::string preset =
      args.only_dataset.empty() ? "wikikg2" : args.only_dataset;
  const SynthOutput synth = bench::LoadPreset(preset, args);
  const Dataset& dataset = synth.dataset;
  const FilterIndex filter(dataset);
  auto model = bench::TrainModel(dataset, Epochs(args, 2, 6));

  WallTimer full_timer;
  const FullEvalResult full =
      EvaluateFullRanking(*model, dataset, filter, Split::kTest);
  const double full_seconds = full_timer.Seconds();

  // Measures a sample size on first use; the adaptive pass runs only for
  // the figures that read it.
  std::map<double, Cell> cells;
  const auto measure = [&](double fraction, bool adaptive) -> const Cell& {
    Cell& cell = cells[fraction];
    for (SamplingStrategy strategy : {kRandom, kStatic, kProbabilistic}) {
      if (cell.metrics.count(strategy) != 0) continue;
      auto framework = BuildFramework(dataset, strategy, fraction);
      WallTimer timer;
      cell.metrics[strategy] =
          framework->Estimate(*model, filter, Split::kTest).metrics;
      cell.seconds[strategy] = timer.Seconds();
    }
    if (adaptive && cell.adaptive.total_queries == 0) {
      // Probabilistic pools at the same fraction, but the pass stops as
      // soon as its MRR half-width reaches --half-width.
      auto framework = BuildFramework(dataset, kProbabilistic, fraction);
      EstimateRequest request;
      request.adaptive.emplace();
      request.adaptive->target_half_width = args.half_width;
      WallTimer timer;
      cell.adaptive =
          framework->Estimate(*model, filter, Split::kTest, request);
      cell.adaptive_seconds = timer.Seconds();
    }
    return cell;
  };

  if (Selected(args, "fig3a")) {
    const std::vector<double> fractions =
        args.fast ? std::vector<double>{0.025, 0.1}
                  : std::vector<double>{0.01, 0.025, 0.05, 0.1, 0.2, 0.4};
    bench::PrintHeader(
        StrFormat("Figure 3a: evaluation time vs sample size (%s)",
                  preset.c_str()));
    std::printf("full evaluation: %.3f s (true MRR %.4f)\n\n", full_seconds,
                full.metrics.mrr);
    TextTable table({"Sample size (% of |E|)", "Random (s)", "Static (s)",
                     "Probabilistic (s)", "Adaptive (s)"});
    for (double fraction : fractions) {
      const Cell& cell = measure(fraction, true);
      table.AddRow({bench::F(100.0 * fraction, 1),
                    bench::F(cell.seconds.at(kRandom), 3),
                    bench::F(cell.seconds.at(kStatic), 3),
                    bench::F(cell.seconds.at(kProbabilistic), 3),
                    bench::F(cell.adaptive_seconds, 3)});
    }
    std::printf("%s", table.ToString().c_str());
    bench::PrintNote(
        "paper shape: all strategies sit far below the full-evaluation "
        "line; Static grows sub-linearly because its pools are capped at "
        "the candidate-set size, Probabilistic stays flat once the "
        "positive-score support is exhausted; Adaptive undercuts "
        "Probabilistic by stopping at the confidence target instead of "
        "scoring every query");
  }

  if (Selected(args, "fig3b")) {
    const std::vector<double> fractions =
        args.fast ? std::vector<double>{0.02, 0.1}
                  : std::vector<double>{0.005, 0.01, 0.02, 0.05, 0.1, 0.15,
                                        0.2};
    bench::PrintHeader(StrFormat(
        "Figure 3b: filtered MRR estimate vs sample size (%s); true MRR = "
        "%.4f",
        preset.c_str(), full.metrics.mrr));
    TextTable table({"Sample size (% of |E|)", "Probabilistic", "Random",
                     "Static", "Adaptive (Prob.)", "True MRR"});
    for (double fraction : fractions) {
      const Cell& cell = measure(fraction, true);
      // The adaptive cell carries its interval and the share of queries
      // it needed.
      table.AddRow(
          {bench::F(100.0 * fraction, 1),
           bench::F(cell.metrics.at(kProbabilistic).mrr, 4),
           bench::F(cell.metrics.at(kRandom).mrr, 4),
           bench::F(cell.metrics.at(kStatic).mrr, 4),
           StrFormat("%.4f+/-%.4f (%.0f%%)", cell.adaptive.metrics.mrr,
                     cell.adaptive.ci.mrr,
                     100.0 *
                         static_cast<double>(cell.adaptive.evaluated_queries) /
                         static_cast<double>(cell.adaptive.total_queries)),
           bench::F(full.metrics.mrr, 4)});
    }
    std::printf("%s", table.ToString().c_str());
    bench::PrintNote(
        "paper shape: Random stays far above the true value across the "
        "whole sweep; Probabilistic locks onto the truth at ~2% of |E|; "
        "Static converges from above as its sets are subsampled less; "
        "Adaptive tracks Probabilistic while scoring only the share of "
        "queries its confidence target needs");
  }

  if (Selected(args, "fig6")) {
    const std::vector<double> fractions =
        args.fast ? std::vector<double>{0.02, 0.1}
                  : std::vector<double>{0.005, 0.01, 0.02, 0.05, 0.1, 0.2};
    const std::pair<MetricKind, const char*> panels[] = {
        {MetricKind::kHits1, "Figure 6a: Hits@1 vs sample size"},
        {MetricKind::kHits3, "Figure 6b: Hits@3 vs sample size"},
        {MetricKind::kHits10, "Figure 6c: Hits@10 vs sample size"}};
    for (const auto& [metric, title] : panels) {
      bench::PrintHeader(StrFormat("%s (%s); true value %.4f", title,
                                   preset.c_str(), full.metrics.Get(metric)));
      TextTable table({"Sample size (% of |E|)", "Probabilistic", "Static",
                       "Random", "True"});
      for (double fraction : fractions) {
        const Cell& cell = measure(fraction, false);
        table.AddRow({bench::F(100.0 * fraction, 1),
                      bench::F(cell.metrics.at(kProbabilistic).Get(metric), 4),
                      bench::F(cell.metrics.at(kStatic).Get(metric), 4),
                      bench::F(cell.metrics.at(kRandom).Get(metric), 4),
                      bench::F(full.metrics.Get(metric), 4)});
      }
      std::printf("%s", table.ToString().c_str());
    }
    bench::PrintNote(
        "paper shape: identical pattern to the filtered MRR — Random "
        "saturates towards 1 at small samples, the guided strategies track "
        "the true values");
  }
}

// Reproduces Figure 3c: the estimated validation MRR across training on
// wikikg2 — the practical use case of the framework: monitoring a model
// during training without paying for full evaluations.
//
// Each sampling strategy monitors through an EvalSession: its candidate
// pools are drawn once and pinned, so (a) the per-epoch estimate pays no
// sampling cost and (b) every epoch ranks against identical pools — the
// curve's movement is training progress, not pool-draw noise.
void RunFig3c(const BenchArgs& args) {
  const std::string preset =
      args.only_dataset.empty() ? "wikikg2" : args.only_dataset;
  const int32_t epochs = Epochs(args, 3, 8);

  const SynthOutput synth = bench::LoadPreset(preset, args);
  const Dataset& dataset = synth.dataset;
  const FilterIndex filter(dataset);

  std::map<SamplingStrategy, std::unique_ptr<EvalSession>> sessions;
  double pinned_sample_seconds = 0.0;
  for (SamplingStrategy strategy :
       {SamplingStrategy::kRandom, SamplingStrategy::kStatic,
        SamplingStrategy::kProbabilistic}) {
    FrameworkOptions options;
    options.strategy = strategy;
    options.recommender = RecommenderType::kLwd;
    // ~ the paper's n_s = 200,000 on 2.5M entities (~8%).
    options.sample_fraction = 0.08;
    sessions[strategy] =
        EvalSession::Create(&dataset, &filter, options, Split::kValid)
            .ValueOrDie();
    pinned_sample_seconds += sessions[strategy]->pools().sample_seconds;
  }

  ModelOptions model_options;
  model_options.dim = 32;
  model_options.adam.learning_rate = 3e-3f;
  auto model = CreateModel(ModelType::kComplEx, dataset.num_entities(),
                           dataset.num_relations(), model_options)
                   .ValueOrDie();
  TrainerOptions trainer_options;
  trainer_options.epochs = epochs;
  trainer_options.negatives_per_positive = 8;

  bench::PrintHeader(StrFormat(
      "Figure 3c: estimated validation MRR across training (%s, ComplEx)",
      preset.c_str()));
  TextTable table({"Step (triples seen)", "Probabilistic", "Random",
                   "Static", "True MRR"});
  FullEvalOptions full_options;
  full_options.max_triples = 3000;
  EstimateRequest request;  // The estimates rank the same prefix.
  request.max_triples = full_options.max_triples;
  Trainer trainer(&dataset, trainer_options);
  const Status status = trainer.Train(
      model.get(), [&](int32_t epoch, const KgeModel& m) {
        std::map<SamplingStrategy, double> mrr;
        for (auto& [strategy, session] : sessions) {
          mrr[strategy] = session->Estimate(m, request).metrics.mrr;
        }
        const double truth = EvaluateFullRanking(m, dataset, filter,
                                                 Split::kValid, full_options)
                                 .metrics.mrr;
        table.AddRow({FormatWithCommas(static_cast<long long>(epoch + 1) *
                                       dataset.train().size()),
                      bench::F(mrr[kProbabilistic], 4),
                      bench::F(mrr[kRandom], 4), bench::F(mrr[kStatic], 4),
                      bench::F(truth, 4)});
      });
  KGEVAL_CHECK(status.ok());
  std::printf("%s", table.ToString().c_str());
  bench::PrintNote(
      "paper shape: the Probabilistic curve coincides with the true MRR "
      "across training; Random tracks the trend but at a large upward "
      "offset — fine for early stopping, useless as an absolute number");
  bench::PrintNote(StrFormat(
      "pinned pools: the 3 sessions drew their 2|R| pools once (%.3fs "
      "total), amortized to %.4fs per epoch over %d epochs — a per-epoch "
      "redraw would pay the full %.3fs every epoch and decorrelate "
      "consecutive points",
      pinned_sample_seconds, pinned_sample_seconds / epochs, epochs,
      pinned_sample_seconds));
}

}  // namespace bench
}  // namespace kgeval

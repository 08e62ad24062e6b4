// The traced run's per-layer ladder: each layer's public entry point timed
// on the workload's own data, from the kernels up to an in-process replay
// of the served commands. Every measurement sits inside a span, so the
// trace file shows where the ladder's own time went too.

#include <cstdio>
#include <functional>

#include "core/candidate_sets.h"
#include "eval/full_evaluator.h"
#include "la/kernels/kernels.h"
#include "perfbench/src/pipeline.h"
#include "recommenders/recommender.h"
#include "sched/task_group.h"
#include "service/command.h"
#include "service/eval_service.h"
#include "util/rng.h"

namespace perfbench {

using namespace kgeval;

namespace {

/// Median over `batches` of the seconds per call of `fn`, each batch
/// calling it until `batch_s` has passed.
double SecondsPerCall(const std::function<void()>& fn, double batch_s = 0.02,
                      int batches = 5) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    int64_t calls = 0;
    const double start = NowSeconds();
    double elapsed = 0.0;
    do {
      fn();
      ++calls;
      elapsed = NowSeconds() - start;
    } while (elapsed < batch_s);
    per_call.push_back(elapsed / static_cast<double>(calls));
  }
  return Median(per_call);
}

std::vector<double> SpanDurations(const std::string& name) {
  std::vector<double> out;
  for (const Tracer::Record& r : Tracer::Get().records()) {
    if (r.name == name) out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-9);
  }
  return out;
}

void MeasureKernels(Report* report) {
  Span span("la.kernels");
  const ScoreKernels& k = ActiveScoreKernels();
  constexpr size_t kQueries = 16, kDim = 64, kCands = 2048;
  Rng rng(5);
  std::vector<float> queries(kQueries * kDim), tile(kDim * kCands),
      out(kQueries * kCands);
  for (float& v : queries) v = static_cast<float>(rng.NextDouble() - 0.5);
  for (float& v : tile) v = static_cast<float>(rng.NextDouble() - 0.5);
  const double cells = static_cast<double>(kQueries * kCands * kDim);
  report->Set("la.kernel_ns_per_cand_dim.dot",
              1e9 / cells * SecondsPerCall([&] {
                k.dot(queries.data(), kQueries, kDim, tile.data(), kCands,
                      out.data());
              }));
  report->Set("la.kernel_ns_per_cand_dim.l1",
              1e9 / cells * SecondsPerCall([&] {
                k.neg_l1(queries.data(), kQueries, kDim, tile.data(), kCands,
                         out.data());
              }));
  report->Set("la.kernel_ns_per_cand_dim.cdist",
              1e9 / cells * SecondsPerCall([&] {
                k.neg_complex_dist(queries.data(), kQueries, kDim,
                                   tile.data(), kCands, 0.0f, out.data());
              }));
}

/// PrepareCandidates / ScoreBlock per model and FilteredRank, on the
/// largest tail-query pool of the pinned draw and the test queries of its
/// relation.
void MeasureScoring(const InProcessSystem& system,
                    const HarnessModels& models, Report* report) {
  Span span("models.scoring");
  const Dataset& ds = system.dataset();
  const int32_t num_r = ds.num_relations();
  const SampledCandidates& pools = system.session->pools();
  int32_t slot = num_r;
  for (int32_t s = num_r; s < 2 * num_r; ++s) {
    if (pools.pools[static_cast<size_t>(s)].size() >
        pools.pools[static_cast<size_t>(slot)].size()) {
      slot = s;
    }
  }
  const int32_t relation = slot - num_r;
  const std::vector<int32_t>& pool = pools.pools[static_cast<size_t>(slot)];
  std::vector<Triple> queries;
  for (const Triple& t : ds.test()) {
    if (t.relation == relation) queries.push_back(t);
  }
  constexpr size_t kBlock = 256;
  std::vector<int32_t> anchors, truths;
  for (size_t i = 0; i < kBlock && !queries.empty(); ++i) {
    anchors.push_back(queries[i % queries.size()].head);
    truths.push_back(queries[i % queries.size()].tail);
  }
  const size_t nq = anchors.size();
  const size_t n = pool.size();
  std::vector<float> scores(nq * n), truth_scores(nq);
  for (size_t m = 0; m < models.trained.size(); ++m) {
    const KgeModel& model = *models.trained[m];
    CandidateBlock block;
    const double prepare_s = SecondsPerCall(
        [&] { model.PrepareCandidates(pool.data(), n, &block); });
    report->Set(std::string("models.prepare_us_per_kcand.") + model.name(),
                1e6 * prepare_s / (static_cast<double>(n) / 1000.0));
    const double block_s = SecondsPerCall([&] {
      model.ScoreBlock(anchors.data(), truths.data(), nq, relation,
                       QueryDirection::kTail, block, scores.data(),
                       truth_scores.data());
    });
    report->Set(std::string("models.score_block_ns_per_cand.") + model.name(),
                1e9 * block_s / static_cast<double>(nq * n));
    if (m == 0) {
      // A captured sorted pool row: query q's scores against the pool.
      size_t q = 0;
      const double rank_s = SecondsPerCall([&] {
        const std::vector<int32_t>* answers =
            system.filter->TailsFor(anchors[q], relation);
        FilteredRank(pool.data(), scores.data() + q * n, n, truths[q],
                     truth_scores[q], *answers, TieBreak::kMean,
                     block.sorted);
        q = (q + 1) % nq;
      });
      report->Set("eval.filtered_rank_ns_per_cand",
                  1e9 * rank_s / static_cast<double>(n));
    }
  }
}

void MeasureSetupLayers(InProcessSystem* system, Report* report) {
  Span span("setup.layers");
  const Dataset& ds = system->dataset();
  report->Set("synth.generate_s", Median(SpanDurations("synth.generate")));
  report->Set("graph.filter_build_s",
              Median(SpanDurations("graph.filter_build")));
  std::vector<double> fit_s, sets_s, draw_s;
  for (int rep = 0; rep < 3; ++rep) {
    RecommenderScores scores;
    {
      Span s("recommenders.fit");
      const double start = NowSeconds();
      scores = CreateRecommender(RecommenderType::kLwd)->Fit(ds).ValueOrDie();
      fit_s.push_back(NowSeconds() - start);
    }
    {
      Span s("core.candidate_sets");
      const double start = NowSeconds();
      BuildProbabilisticSets(scores, ds, true);
      sets_s.push_back(NowSeconds() - start);
    }
    {
      // Advances the framework's draw counter only; the session's pinned
      // pools are untouched.
      Span s("core.draw_pools");
      const double start = NowSeconds();
      system->session->framework().DrawPools(Split::kTest);
      draw_s.push_back(NowSeconds() - start);
    }
  }
  report->Set("recommenders.fit_s", Median(fit_s));
  report->Set("core.candidate_sets_s", Median(sets_s));
  report->Set("core.draw_pools_ms", 1e3 * Median(draw_s));
}

void MeasureCounts(const InProcessSystem& system,
                   const RankingResults& ranking, Report* report) {
  double fixed = 0.0, adaptive = 0.0, rounds = 0.0;
  for (size_t m = 0; m < ranking.estimate.size(); ++m) {
    fixed += static_cast<double>(ranking.estimate[m].scored_candidates);
    adaptive += static_cast<double>(ranking.adaptive[m].scored_candidates);
    rounds += static_cast<double>(ranking.adaptive[m].rounds);
  }
  report->Set("core.scored_candidates", fixed);
  report->Set("core.pool_size",
              static_cast<double>(system.session->framework().SampleSize()));
  report->Set("core.adaptive_rounds",
              rounds / static_cast<double>(ranking.adaptive.size()));
  report->Set("core.adaptive_scored_frac", adaptive / fixed);
}

void MeasureSched(Report* report) {
  Span span("sched.task_group");
  constexpr int kTasks = 64;
  report->Set("sched.task_group_roundtrip_us",
              1e6 * SecondsPerCall([] {
                TaskGroup group;
                for (int i = 0; i < kTasks; ++i) group.Submit([] {});
                group.Wait();
              }));
}

/// The served commands replayed in-process: parse, then EvalService::
/// Execute on a service holding the same LOAD, no socket; and the served
/// session's EstimateOnPools on its own.
void MeasureService(const Workload& workload, const Dataset& serve_dataset,
                    const HarnessModels& serve_models,
                    const ServedResults& served, Report* report) {
  Span span("service.replay");
  std::vector<std::string> lines = served.replay_lines;
  if (lines.size() > 48) lines.resize(48);
  if (lines.empty()) return;
  size_t i = 0;
  report->Set("service.parse_us", 1e6 * SecondsPerCall([&] {
                                    ParseCommandLine(lines[i]);
                                    i = (i + 1) % lines.size();
                                  }));

  EvalService service;
  auto emit = [](const std::string&) { return true; };
  {
    Span s("service.load");
    service.Execute(
        ParseCommandLine("LOAD " + workload.serve_preset + " test")
            .ValueOrDie(),
        emit);
  }
  std::vector<double> execute_s;
  for (size_t r = 0; r < lines.size(); ++r) {
    ParsedCommand cmd;
    {
      Span s("service.parse", static_cast<int64_t>(r));
      cmd = ParseCommandLine(lines[r]).ValueOrDie();
    }
    Span s("service.execute", static_cast<int64_t>(r));
    const double start = NowSeconds();
    service.Execute(cmd, emit);
    execute_s.push_back(NowSeconds() - start);
  }
  const double execute_ms = 1e3 * Median(execute_s);
  report->Set("service.execute_eval_ms", execute_ms);
  report->Set("net.served_minus_direct_ms", served.eval_p50_ms - execute_ms);

  const FilterIndex filter(serve_dataset);
  auto session = EvalSession::Create(&serve_dataset, &filter,
                                     EvalService::ServiceFrameworkOptions(),
                                     Split::kTest)
                     .ValueOrDie();
  std::vector<double> estimate_s;
  for (int rep = 0; rep < 2; ++rep) {
    for (const KgeModel* model : serve_models.all()) {
      Span s("core.estimate_on_pools");
      const double start = NowSeconds();
      session->framework().EstimateOnPools(*model, filter, Split::kTest,
                                           session->pools());
      estimate_s.push_back(NowSeconds() - start);
    }
  }
  report->Set("core.estimate_on_pools_ms", 1e3 * Median(estimate_s));
}

}  // namespace

void RunLayerLadder(const Workload& workload, const Args& /*args*/,
                    InProcessSystem* system, const HarnessModels& models,
                    const RankingResults& ranking,
                    const Dataset& serve_dataset,
                    const HarnessModels& serve_models,
                    const ServedResults& served, Report* report) {
  Span root("phase.layers");
  MeasureSetupLayers(system, report);
  MeasureKernels(report);
  MeasureScoring(*system, models, report);
  MeasureCounts(*system, ranking, report);
  MeasureSched(report);
  MeasureService(workload, serve_dataset, serve_models, served, report);
  report->Set("models.ckpt_save_ms",
              1e3 * Median(SpanDurations("models.ckpt_save")));
  report->Set("models.ckpt_load_ms",
              1e3 * Median(SpanDurations("models.ckpt_load")));
}

}  // namespace perfbench

// In-process phases: harness models, set-up, ranking, checkpoint publish +
// sweep, and their correctness gates.

#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>

#include "core/sampled_evaluator.h"
#include "eval/full_evaluator.h"
#include "models/checkpoint.h"
#include "models/trainer.h"
#include "stats/correlation.h"
#include "perfbench/src/pipeline.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace perfbench {

using namespace kgeval;
namespace fs = std::filesystem;

namespace {

// Training recipe of the harness models. Changing it changes every
// accuracy figure, so it is versioned into the cache key.
constexpr const char* kRecipeVersion = "r1";
constexpr float kLearningRate = 0.01f;
constexpr int32_t kEpochs = 1;
constexpr int32_t kNegatives = 4;

// Queries the warm-up full ranking touches, and the scalar parity prefix.
constexpr int64_t kWarmupFullTriples = 64;
constexpr int64_t kParityTriples = 200;

constexpr double kAdaptiveHalfWidth = 0.01;

AdaptiveEvalOptions AdaptiveOptions(uint64_t shuffle_seed) {
  AdaptiveEvalOptions options;
  options.target_half_width = kAdaptiveHalfWidth;
  options.shuffle_seed = shuffle_seed;
  return options;
}

std::string ScaleName(PresetScale scale) {
  return scale == PresetScale::kPaper ? "paper" : "scaled";
}

}  // namespace

uint64_t MixSeed(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<const KgeModel*> HarnessModels::all() const {
  std::vector<const KgeModel*> out;
  for (size_t i = 0; i < trained.size(); ++i) {
    out.push_back(initial[i].get());
    out.push_back(trained[i].get());
  }
  return out;
}

std::unique_ptr<SynthOutput> GeneratePreset(const std::string& preset,
                                            PresetScale scale) {
  SynthConfig config = GetPreset(preset, scale).ValueOrDie();
  return std::make_unique<SynthOutput>(
      GenerateDataset(config).ValueOrDie());
}

std::string FileChecksum(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "-";
  uint64_t h = 0xcbf29ce484222325ULL;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 0x100000001b3ULL;
    }
  }
  return StrFormat("%016llx", static_cast<unsigned long long>(h));
}

double SelfPeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

HarnessModels PrepareHarnessModels(
    const std::string& preset, PresetScale scale, const std::string& cache_dir,
    const std::function<const Dataset&()>& dataset, bool* trained) {
  const fs::path dir = fs::path(cache_dir) /
                       (preset + "-" + ScaleName(scale) + "-" +
                        kRecipeVersion);
  const std::vector<ModelType>& types = HarnessModelTypes();
  auto path_of = [&](ModelType type, int epoch) {
    return (dir / StrFormat("%s_e%d.ckpt", ModelTypeName(type), epoch))
        .string();
  };
  bool cached = true;
  for (ModelType type : types) {
    for (int epoch = 0; epoch <= kEpochs; epoch += kEpochs) {
      cached = cached && fs::exists(path_of(type, epoch));
    }
  }
  *trained = !cached;
  if (!cached) {
    const double start = NowSeconds();
    const Dataset& ds = dataset();
    fs::create_directories(dir);
    for (size_t i = 0; i < types.size(); ++i) {
      ModelOptions options;
      options.dim = HarnessDim(types[i]);
      options.adam.learning_rate = kLearningRate;
      options.seed = 5 + i;
      auto model = CreateModel(types[i], ds.num_entities(),
                               ds.num_relations(), options)
                       .ValueOrDie();
      // Written to a temporary name and renamed, so an interrupted run
      // never leaves a truncated checkpoint that looks cached.
      const std::string e0 = path_of(types[i], 0);
      KGEVAL_CHECK(SaveModel(model.get(), e0 + ".tmp").ok());
      TrainerOptions trainer;
      trainer.epochs = kEpochs;
      trainer.negatives_per_positive = kNegatives;
      trainer.num_threads = 1;  // Hogwild chunks race: not reproducible.
      trainer.seed = 9 + i;
      KGEVAL_CHECK(Trainer(&ds, trainer).Train(model.get()).ok());
      const std::string e1 = path_of(types[i], kEpochs);
      KGEVAL_CHECK(SaveModel(model.get(), e1 + ".tmp").ok());
      fs::rename(e0 + ".tmp", e0);
      fs::rename(e1 + ".tmp", e1);
    }
    std::printf("harness models: trained %s/%s in %.1f s (excluded from "
                "every metric)\n",
                preset.c_str(), ScaleName(scale).c_str(),
                NowSeconds() - start);
  }
  HarnessModels models;
  for (ModelType type : types) {
    for (int epoch = 0; epoch <= kEpochs; epoch += kEpochs) {
      const std::string path = path_of(type, epoch);
      auto loaded = LoadModel(path);
      KGEVAL_CHECK(loaded.ok());
      std::printf("harness checkpoint %s %s\n", path.c_str(),
                  FileChecksum(path).c_str());
      models.paths.push_back(path);
      (epoch == 0 ? models.initial : models.trained)
          .push_back(std::move(loaded).ValueOrDie());
    }
  }
  return models;
}

std::vector<double> SetUpInProcess(const Workload& workload, const Args& args,
                                   const HarnessModels& models, int reps,
                                   InProcessSystem* system) {
  FrameworkOptions options;
  options.seed = MixSeed(args.seed, 1);
  const AdaptiveEvalOptions adaptive = AdaptiveOptions(MixSeed(args.seed, 2));
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    // Tear down the previous repetition first, so set-up never runs with
    // two systems resident.
    system->session.reset();
    system->filter.reset();
    system->synth.reset();
    Span root("setup.inproc");
    const double start = NowSeconds();
    {
      Span span("synth.generate");
      system->synth =
          GeneratePreset(workload.inproc_preset, workload.inproc_scale);
    }
    const Dataset& ds = system->dataset();
    {
      Span span("graph.filter_build");
      system->filter = std::make_unique<FilterIndex>(ds);
    }
    {
      Span span("core.session_create");
      system->session = EvalSession::Create(&ds, system->filter.get(),
                                            options, Split::kTest)
                            .ValueOrDie();
    }
    // Warm calls before any timed series: lazy pool start-up, kernel
    // dispatch, allocator growth. Their cost stays in set-up time, so work
    // moved into lazy initialization still shows.
    const EvaluationFramework& fw = system->session->framework();
    for (const auto& model : models.trained) {
      Span span("core.warmup");
      fw.EstimateOnPools(*model, *system->filter, Split::kTest,
                         system->session->pools());
      fw.EstimateAdaptiveOnPools(*model, *system->filter, Split::kTest,
                                 system->session->pools(), adaptive);
      FullEvalOptions full;
      full.max_triples = kWarmupFullTriples;
      EvaluateFullRanking(*model, ds, *system->filter, Split::kTest, full);
    }
    seconds.push_back(NowSeconds() - start);
  }
  return seconds;
}

void RunInProcessGates(const InProcessSystem& system,
                       const HarnessModels& models, Report* report) {
  const Dataset& ds = system.dataset();
  const EvaluationFramework& fw = system.session->framework();
  const SampledCandidates& pools = system.session->pools();
  for (const auto& model : models.trained) {
    // Prepared fused engine vs the scalar reference, on a prefix.
    SampledEvalOptions prefix;
    prefix.max_triples = kParityTriples;
    const SampledEvalResult scalar = EvaluateSampledScalar(
        *model, ds, *system.filter, Split::kTest, pools, prefix);
    const SampledEvalResult prepared = fw.EstimateOnPools(
        *model, *system.filter, Split::kTest, pools, kParityTriples);
    report->Gate("scalar_rank_parity", scalar.ranks == prepared.ranks,
                 model->name());

    const AdaptiveEvalOptions adaptive = AdaptiveOptions(17);
    const AdaptiveEvalResult a = fw.EstimateAdaptiveOnPools(
        *model, *system.filter, Split::kTest, pools, adaptive);
    const AdaptiveEvalResult b = fw.EstimateAdaptiveOnPools(
        *model, *system.filter, Split::kTest, pools, adaptive);
    report->Gate("adaptive_deterministic",
                 a.ranks == b.ranks && a.rounds == b.rounds &&
                     a.metrics.mrr == b.metrics.mrr && a.ci.mrr == b.ci.mrr,
                 model->name());
  }
}

namespace {

/// One timed series of the in-process phase.
struct Series {
  Series(const char* name, double share, int min_reps)
      : name(name), share(share), min_reps(min_reps) {}
  const char* name;
  double share;
  int min_reps;
  std::function<void(int rep)> run;
  std::vector<double> seconds;  // The value each repetition timed.
  double spent = 0.0;           // Wall time the series has used.
};

/// Runs the series interleaved until together they have spent `until_s`
/// seconds (over every call so far) and each has its minimum repetitions:
/// the next repetition always goes to the series furthest behind its
/// share. Every series therefore samples the whole window, so a slow
/// stretch of the machine lands on all of them alike instead of on
/// whichever ran then.
void Interleave(std::vector<Series>* series, double until_s) {
  for (;;) {
    double spent = 0.0;
    for (const Series& s : *series) spent += s.spent;
    const bool over = spent >= until_s;
    Series* next = nullptr;
    for (Series& s : *series) {
      const bool short_of_min =
          static_cast<int>(s.seconds.size()) < s.min_reps;
      if (over && !short_of_min) continue;
      if (next == nullptr || s.spent / s.share < next->spent / next->share) {
        next = &s;
      }
    }
    if (next == nullptr) break;
    const double t0 = NowSeconds();
    next->run(static_cast<int>(next->seconds.size()));
    next->spent += NowSeconds() - t0;
  }
}

void PrintSeries(const Series& s) {
  std::printf("  %-9s %4zu reps  min %10.3f  median %10.3f  max %10.3f ms\n",
              s.name, s.seconds.size(), 1e3 * Percentile(s.seconds, 0.0),
              1e3 * Median(s.seconds), 1e3 * Percentile(s.seconds, 1.0));
}

}  // namespace

RankingResults RunInProcess(const Workload& workload, const Args& args,
                            const InProcessSystem& system,
                            const HarnessModels& models, int slices,
                            const std::function<void(int slice)>& between,
                            Report* report) {
  const Dataset& ds = system.dataset();
  const FilterIndex& filter = *system.filter;
  const EvaluationFramework& fw = system.session->framework();
  const SampledCandidates& pools = system.session->pools();
  const size_t n = models.trained.size();
  const std::vector<const KgeModel*> all = models.all();

  // References the timed repetitions are checked against: full-ranking
  // MRRs come from the first full repetition; the sampled estimates and
  // the sweep oracle (direct estimates of the in-memory models every
  // checkpoint was written from) are computed here, untimed.
  auto references = std::make_unique<Span>("phase.inproc");
  RankingResults results;
  std::vector<SampledEvalResult> direct;
  for (const KgeModel* model : all) {
    Span span("core.estimate_on_pools");
    direct.push_back(fw.EstimateOnPools(*model, filter, Split::kTest, pools));
  }
  for (size_t m = 0; m < n; ++m) results.estimate.push_back(direct[2 * m + 1]);

  // Publishing writes each repetition into a fresh directory; the sweep
  // reads one published set.
  const fs::path base = fs::path(args.work_dir) / "publish";
  auto publish = [&](const fs::path& dir) {
    {
      Span span("fs.directories");
      fs::remove_all(dir);
      fs::create_directories(dir);
    }
    std::vector<std::string> paths;
    for (size_t i = 0; i < all.size(); ++i) {
      report->Attempt();
      const std::string path =
          (dir / StrFormat("ckpt_%02zu.ckpt", i)).string();
      Span span("models.ckpt_save");
      // SaveModel takes a mutable model (CollectParameters); it only reads.
      const Status st = SaveModel(const_cast<KgeModel*>(all[i]), path);
      if (!st.ok()) report->Fail("SaveModel " + st.ToString());
      paths.push_back(path);
    }
    return paths;
  };
  const std::vector<std::string> sweep_paths = publish(base / "sweep");
  references.reset();

  Tracer& tracer = Tracer::Get();
  const bool tracing = tracer.enabled();
  std::vector<double> estimate_traced_s, estimate_untraced_s, gaps;
  size_t max_resident = 0;
  std::vector<Series> series;
  // The lambdas below capture their own series' slot: no reallocation.
  series.reserve(5);
  series.emplace_back("full", workload.full_share, workload.min_full_reps);
  series.back().run = [&, &out = series.back().seconds](int rep) {
    double sum = 0.0;
    for (size_t m = 0; m < n; ++m) {
      report->Attempt();
      Span span("eval.full_ranking");
      const double start = NowSeconds();
      const FullEvalResult full =
          EvaluateFullRanking(*models.trained[m], ds, filter, Split::kTest);
      sum += NowSeconds() - start;
      if (rep == 0) {
        results.full_mrr.push_back(full.metrics.mrr);
      } else if (full.metrics.mrr != results.full_mrr[m]) {
        report->Fail("full ranking not repeatable");
      }
    }
    out.push_back(sum);
  };
  series.emplace_back("estimate", workload.estimate_share,
                    workload.min_estimate_reps);
  series.back().run = [&, &out = series.back().seconds](int rep) {
    // In the traced run every other repetition runs untraced; the two
    // medians give the tracing overhead. The untraced repetitions still
    // sit inside one span, so the reconciliation does not count them as
    // unaccounted time.
    std::unique_ptr<Span> untraced;
    if (tracing && rep % 2 == 1) {
      untraced = std::make_unique<Span>("trace.untraced_rep");
      tracer.set_enabled(false);
    }
    double sum = 0.0;
    for (size_t m = 0; m < n; ++m) {
      report->Attempt();
      Span span("core.estimate_on_pools");
      const double start = NowSeconds();
      const SampledEvalResult r =
          fw.EstimateOnPools(*models.trained[m], filter, Split::kTest, pools);
      sum += NowSeconds() - start;
      report->Gate("estimate_repeatable",
                   r.ranks == results.estimate[m].ranks,
                   models.trained[m]->name());
    }
    tracer.set_enabled(tracing);
    out.push_back(sum);
    (rep % 2 == 0 ? estimate_traced_s : estimate_untraced_s).push_back(sum);
  };
  series.emplace_back("adaptive", workload.adaptive_share,
                    workload.min_adaptive_reps);
  series.back().run = [&, &out = series.back().seconds](int rep) {
    // Each repetition reshuffles the adaptive schedule, so the
    // early-stopping gap is averaged over many independent stopping points.
    const AdaptiveEvalOptions options =
        AdaptiveOptions(MixSeed(args.seed, 1000 + static_cast<uint64_t>(rep)));
    double sum = 0.0;
    for (size_t m = 0; m < n; ++m) {
      report->Attempt();
      Span span("core.adaptive");
      const double start = NowSeconds();
      AdaptiveEvalResult r = fw.EstimateAdaptiveOnPools(
          *models.trained[m], filter, Split::kTest, pools, options);
      sum += NowSeconds() - start;
      const double fixed = results.estimate[m].metrics.mrr;
      gaps.push_back(std::abs(r.metrics.mrr - fixed) / fixed);
      if (rep == 0) results.adaptive.push_back(std::move(r));
    }
    out.push_back(sum);
  };
  series.emplace_back("publish", 0.25 * workload.checkpoint_share,
                    4 * workload.min_checkpoint_reps);
  series.back().run = [&, &out = series.back().seconds](int rep) {
    const fs::path dir = base / std::to_string(rep);
    const double start = NowSeconds();
    publish(dir);
    out.push_back(NowSeconds() - start);
    Span span("fs.directories");
    fs::remove_all(dir);
  };
  series.emplace_back("sweep", 0.75 * workload.checkpoint_share,
                    workload.min_checkpoint_reps);
  series.back().run = [&, &out = series.back().seconds](int) {
    CheckpointSweepStats stats;
    report->Attempt(static_cast<int64_t>(sweep_paths.size()));
    Span span("core.sweep");
    const double start = NowSeconds();
    const std::vector<CheckpointEstimate> outcomes =
        system.session->EstimateCheckpoints(sweep_paths, 0, nullptr, &stats);
    out.push_back(NowSeconds() - start);
    max_resident = std::max(max_resident, stats.max_resident_models);
    for (size_t i = 0; i < outcomes.size(); ++i) {
      report->Gate("sweep_matches_direct",
                   outcomes[i].status.ok() &&
                       outcomes[i].result.ranks == direct[i].ranks &&
                       outcomes[i].result.metrics.mrr ==
                           direct[i].metrics.mrr,
                   sweep_paths[i]);
    }
  };
  double budget = 0.0;
  for (const Series& s : series) budget += s.share * args.seconds;
  for (int slice = 0; slice < slices; ++slice) {
    {
      Span span("phase.inproc");
      Interleave(&series, budget * (slice + 1) / slices);
    }
    between(slice);
  }
  {
    // Any series still short of its minimum repetitions.
    Span span("phase.inproc");
    Interleave(&series, 0.0);
  }
  for (const Series& s : series) PrintSeries(s);
  const std::vector<double>& full_s = series[0].seconds;

  double mape = 0.0;
  for (size_t m = 0; m < n; ++m) {
    mape += std::abs(results.estimate[m].metrics.mrr - results.full_mrr[m]) /
            results.full_mrr[m];
    std::printf("model %-8s full MRR %.6f  sampled %.6f  adaptive %.6f "
                "(%lld rounds)\n",
                models.trained[m]->name(), results.full_mrr[m],
                results.estimate[m].metrics.mrr,
                results.adaptive[m].metrics.mrr,
                static_cast<long long>(results.adaptive[m].rounds));
  }
  const double k = static_cast<double>(all.size());
  report->Set("full_eval_ms", 1e3 * Median(full_s));
  report->Set("estimate_ms", 1e3 * Median(series[1].seconds));
  report->Set("adaptive_ms", 1e3 * Median(series[2].seconds));
  report->Set("estimate_mape_pct", 100.0 * mape / static_cast<double>(n));
  report->Set("adaptive_gap_pct", 100.0 * kgeval::Mean(gaps));
  report->Set("publish_ckpt_per_s", k / Median(series[3].seconds));
  report->Set("sweep_ckpt_per_s", k / Median(series[4].seconds));
  // Queries x |E| per second of exhaustive ranking.
  report->Set("eval.full_cands_per_s",
              static_cast<double>(n) * 2.0 *
                  static_cast<double>(ds.test().size()) *
                  static_cast<double>(ds.num_entities()) / Median(full_s));
  report->Set("core.sweep_max_resident", static_cast<double>(max_resident));
  report->Set("models.ckpt_mb",
              static_cast<double>(fs::file_size(sweep_paths.front())) / 1e6);
  if (tracing) {
    report->Set("trace.overhead_pct",
                100.0 * (Median(estimate_traced_s) /
                             Median(estimate_untraced_s) -
                         1.0));
    // Serial cost of the sweep's work, for its overlap ratio.
    Span span("phase.inproc");
    double serial = 0.0;
    for (const std::string& path : sweep_paths) {
      const double start = NowSeconds();
      std::unique_ptr<KgeModel> model;
      {
        Span span("models.ckpt_load");
        model = fw.LoadCheckpoint(path).ValueOrDie();
      }
      {
        Span span("core.estimate_on_pools");
        fw.EstimateOnPools(*model, filter, Split::kTest, pools);
      }
      serial += NowSeconds() - start;
    }
    report->Set("core.sweep_overlap", serial / Median(series[4].seconds));
  }
  fs::remove_all(base);
  return results;
}

}  // namespace perfbench

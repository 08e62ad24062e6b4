// perfbench: the repository benchmark harness. One invocation runs one
// workload and prints, as the last line of stdout, one JSON object with the
// keys correct / attempted / failed / metrics. Normally started through
// perfbench/run.py, which builds it first:
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             --server=PATH --work-dir=DIR --cache-dir=DIR
//             [--trace-file=PATH] [--commit=ID] [--tiny]
//   perfbench --list          (workloads and metric registry, as JSON)

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "la/kernels/kernels.h"
#include "perfbench/src/pipeline.h"
#include "util/thread_pool.h"

namespace {

using namespace perfbench;
using kgeval::PresetScale;

struct Flags {
  Args args;
  std::string cache_dir;
  std::string trace_file;
  std::string commit = "unknown";
  bool list = false;
};

bool Value(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (std::strcmp(argv[i], "--list") == 0) {
      f.list = true;
    } else if (std::strcmp(argv[i], "--tiny") == 0) {
      f.args.tiny = true;
    } else if (Value(argv[i], "--workload", &v)) {
      f.args.workload = v;
    } else if (Value(argv[i], "--seed", &v)) {
      f.args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Value(argv[i], "--seconds", &v)) {
      f.args.seconds = std::atof(v.c_str());
    } else if (Value(argv[i], "--trace", &v)) {
      f.args.trace = v == "1";
    } else if (Value(argv[i], "--server", &v)) {
      f.args.server = v;
    } else if (Value(argv[i], "--work-dir", &v)) {
      f.args.work_dir = v;
    } else if (Value(argv[i], "--cache-dir", &v)) {
      f.cache_dir = v;
    } else if (Value(argv[i], "--trace-file", &v)) {
      f.trace_file = v;
    } else if (Value(argv[i], "--commit", &v)) {
      f.commit = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", argv[i]);
      std::exit(2);
    }
  }
  return f;
}

void PrintList() {
  auto specs = [](const std::vector<MetricSpec>& list) {
    std::string s = "[";
    for (size_t i = 0; i < list.size(); ++i) {
      s += std::string(i ? ", " : "") + "{\"name\": \"" + list[i].name +
           "\", \"unit\": \"" + list[i].unit + "\", \"better\": \"" +
           list[i].better + "\"}";
    }
    return s + "]";
  };
  std::string workloads = "[";
  for (const std::string& name : WorkloadNames()) {
    workloads += std::string(workloads.size() > 1 ? ", " : "") + "\"" +
                 name + "\"";
  }
  std::printf("{\"workloads\": %s], \"end_to_end\": %s, \"per_layer\": %s}\n",
              workloads.c_str(), specs(EndToEndMetrics()).c_str(),
              specs(PerLayerMetrics()).c_str());
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Results from a different machine, kernel path or build are not
/// comparable; every result carries what it ran on.
void PrintProvenance(const Flags& f) {
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"cpu\": \"%s\", \"nproc\": %u, \"kernels\": \"%s\", "
      "\"pool_width\": %zu, \"build_type\": \"%s\", \"flags\": \"%s\", "
      "\"commit\": \"%s\"}\n",
      f.args.workload.c_str(), static_cast<unsigned long long>(f.args.seed),
      f.args.seconds, f.args.trace ? 1 : 0, CpuModel().c_str(),
      std::thread::hardware_concurrency(), kgeval::ActiveScoreKernelName(),
      kgeval::GlobalThreadPool()->num_threads(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_FLAGS, f.commit.c_str());
}

/// The tiny self-check variant of a workload: scaled codex-s everywhere
/// and the minimum repetitions.
Workload Tiny(Workload w) {
  w.inproc_preset = "codex-s";
  w.inproc_scale = PresetScale::kScaled;
  w.serve_preset = "codex-s";
  w.setup_reps = 2;
  w.slices = 2;
  w.min_full_reps = 1;
  w.min_estimate_reps = 2;
  w.min_adaptive_reps = 2;
  w.min_checkpoint_reps = 1;
  return w;
}

/// Sums each phase root's self time (time inside a phase that no layer
/// span covers) against the phase totals, and prints the breakdown. The
/// open-loop phase is paced: its gaps between requests are idle by design,
/// not unaccounted work, so it is printed but left out of the sum.
void Reconcile(Report* report) {
  const Tracer& tracer = Tracer::Get();
  std::set<std::string> roots;
  for (const Tracer::Record& r : tracer.records()) {
    if (r.parent < 0) roots.insert(r.name);
  }
  const auto self = tracer.SelfSecondsByName();
  const auto totals = tracer.TotalsByName();
  double total = 0.0, unaccounted = 0.0;
  std::printf("\nlayer reconciliation (span self time, s):\n");
  for (const std::string& root : roots) {
    if (root != "phase.open_loop") {
      total += totals.at(root).first;
      unaccounted += self.at(root);
    }
    std::printf("  %-28s total %9.3f  unaccounted %8.4f\n", root.c_str(),
                totals.at(root).first, self.at(root));
  }
  for (const auto& [name, seconds] : self) {
    if (roots.count(name) == 0) {
      std::printf("    %-34s self %9.4f  (%lld spans)\n", name.c_str(),
                  seconds, static_cast<long long>(totals.at(name).second));
    }
  }
  report->Set("trace.unaccounted_pct", 100.0 * unaccounted / total);
  report->Set("trace.spans", static_cast<double>(tracer.records().size()));
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  if (flags.list) {
    PrintList();
    return 0;
  }
  const Workload* found = FindWorkload(flags.args.workload);
  if (found == nullptr || flags.args.server.empty() ||
      flags.args.work_dir.empty() || flags.cache_dir.empty() ||
      flags.args.seconds <= 0.0) {
    std::fprintf(stderr,
                 "perfbench: need --workload (one of the --list names), "
                 "--server, --work-dir, --cache-dir and a positive "
                 "--seconds\n");
    return 2;
  }
  const Args& args = flags.args;
  const Workload workload = args.tiny ? Tiny(*found) : *found;
  std::filesystem::create_directories(args.work_dir);
  kgeval::SetGlobalThreadPoolThreads(
      std::max(1u, std::thread::hardware_concurrency()));
  PrintProvenance(flags);

  // Harness models first. A run that had to train them starts itself
  // afresh, so what is measured (peak RSS included) never depends on
  // whether the model cache was warm.
  std::unique_ptr<kgeval::SynthOutput> serve_synth =
      GeneratePreset(workload.serve_preset, PresetScale::kScaled);
  bool trained_inproc = false, trained_serve = false;
  HarnessModels models;
  {
    std::unique_ptr<kgeval::SynthOutput> prep;
    models = PrepareHarnessModels(
        workload.inproc_preset, workload.inproc_scale, flags.cache_dir,
        [&]() -> const kgeval::Dataset& {
          prep = GeneratePreset(workload.inproc_preset, workload.inproc_scale);
          return prep->dataset;
        },
        &trained_inproc);
  }
  HarnessModels serve_models = PrepareHarnessModels(
      workload.serve_preset, PresetScale::kScaled, flags.cache_dir,
      [&]() -> const kgeval::Dataset& { return serve_synth->dataset; },
      &trained_serve);
  if (trained_inproc || trained_serve) {
    std::fflush(stdout);
    execv("/proc/self/exe", argv);
    std::perror("perfbench: re-exec after training");
    return 1;
  }

  Report report;
  Tracer::Get().set_enabled(args.trace);
  InProcessSystem system;
  const std::vector<double> inproc_setup =
      SetUpInProcess(workload, args, models, workload.setup_reps, &system);
  RunInProcessGates(system, models, &report);
  ServedPhase served_phase(workload, args, serve_synth->dataset, serve_models,
                           &report);
  const bool served_ready = served_phase.SetUp(workload.setup_reps);
  const RankingResults ranking = RunInProcess(
      workload, args, system, models, workload.slices,
      [&](int slice) { served_phase.RunSlice(slice, workload.slices); },
      &report);
  const ServedResults served = served_phase.Finish();
  if (!served_ready) report.Fail("served phases did not run");

  // Set-up is one in-process set-up plus one server start to LOAD reply and
  // warm EVALs; the median over the repetitions.
  if (served.setup_s.size() == inproc_setup.size()) {
    std::vector<double> setup;
    for (size_t i = 0; i < inproc_setup.size(); ++i) {
      setup.push_back(inproc_setup[i] + served.setup_s[i]);
    }
    report.Set("setup_s", Median(setup));
  }
  report.Set("peak_rss_mb",
             SelfPeakRssMb() + report.Get("server_peak_rss_mb"));

  if (args.trace) {
    RunLayerLadder(workload, args, &system, models, ranking,
                   serve_synth->dataset, serve_models, served, &report);
    Tracer::Get().set_enabled(false);
    Reconcile(&report);
    if (!flags.trace_file.empty()) {
      std::filesystem::create_directories(
          std::filesystem::path(flags.trace_file).parent_path());
      if (Tracer::Get().Write(flags.trace_file)) {
        std::printf("spans written to %s\n", flags.trace_file.c_str());
      }
    }
  }
  return report.Finish(args.trace);
}

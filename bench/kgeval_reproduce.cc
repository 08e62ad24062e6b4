// Reproduces the paper's tables and figures on the synthetic presets: every
// target in the order below, or only the ones --only names. Figures 3a, 3b
// and 6 read one experiment, so their three targets share one sampling
// sweep that runs once, at the first of them selected.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace kgeval {
namespace bench {
namespace {

using Runner = void (*)(const BenchArgs&);

const std::pair<const char*, Runner> kTargets[] = {
    {"table2", RunTable2},       {"table3", RunTable3},
    {"table4", RunTable4},       {"table5", RunTable5},
    {"table6_7_8", RunTable678}, {"table9", RunTable9},
    {"fig3a", RunSamplingSweep}, {"fig3b", RunSamplingSweep},
    {"fig3c", RunFig3c},         {"fig4", RunFig4},
    {"fig6", RunSamplingSweep},  {"ablations", RunAblations}};

bool IsTarget(const std::string& name) {
  return std::any_of(std::begin(kTargets), std::end(kTargets),
                     [&](const auto& target) { return name == target.first; });
}

void Usage(const char* argv0) {
  std::string targets;
  for (const auto& [name, run] : kTargets) targets += std::string(" ") + name;
  std::string datasets;
  for (const std::string& name : PresetNames()) datasets += " " + name;
  std::fprintf(stderr,
               "usage: %s [--only=TARGET[,TARGET...]] [--paper-scale] "
               "[--fast] [--epochs=N]\n"
               "       [--dataset=NAME] [--json] [--half-width=X] "
               "[--threads=N]\n"
               "--epochs and --threads take positive integers, --half-width "
               "a finite number in (0, 1).\n"
               "targets:%s\n"
               "datasets:%s\n",
               argv0, targets.c_str(), datasets.c_str());
}

/// Parses all of `text` as a positive int32. Rejects a sign, whitespace,
/// trailing characters and overflow.
bool ParsePositive(const std::string& text, int32_t* out) {
  int32_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value <= 0) return false;
  *out = value;
  return true;
}

/// Parses all of `text` as a finite half-width in (0, 1).
bool ParseHalfWidth(const std::string& text, double* out) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
      value <= 0.0 || value >= 1.0) {
    return false;
  }
  *out = value;
  return true;
}

/// Accepts `text` iff it names a dataset preset.
bool ParseDataset(const std::string& text, std::string* out) {
  const std::vector<std::string> names = PresetNames();
  if (std::find(names.begin(), names.end(), text) == names.end()) {
    return false;
  }
  *out = text;
  return true;
}

/// Parses all of `text` as comma-separated target names. An empty list or
/// name is not a target, so it fails like an unknown one.
bool ParseTargets(const std::string& text, std::vector<std::string>* out) {
  std::vector<std::string> names = SplitString(text, ',');
  if (!std::all_of(names.begin(), names.end(), IsTarget)) return false;
  *out = std::move(names);
  return true;
}

/// Parses the flags; an unknown flag, a malformed value, an unknown target
/// or an unknown dataset prints the usage and exits 2. Applies --threads
/// (or its KGEVAL_THREADS fallback) to the global worker pool before any
/// target creates it.
BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool ok = true;
    if (arg.rfind("--only=", 0) == 0) {
      ok = ParseTargets(arg.substr(std::strlen("--only=")), &args.only);
    } else if (arg == "--paper-scale") {
      args.paper_scale = true;
    } else if (arg == "--fast") {
      args.fast = true;
    } else if (arg.rfind("--epochs=", 0) == 0) {
      ok = ParsePositive(arg.substr(std::strlen("--epochs=")), &args.epochs);
    } else if (arg.rfind("--dataset=", 0) == 0) {
      ok = ParseDataset(arg.substr(std::strlen("--dataset=")),
                        &args.only_dataset);
    } else if (arg == "--json") {
      args.json = true;
    } else if (arg.rfind("--half-width=", 0) == 0) {
      ok = ParseHalfWidth(arg.substr(std::strlen("--half-width=")),
                          &args.half_width);
    } else if (arg.rfind("--threads=", 0) == 0) {
      ok = ParsePositive(arg.substr(std::strlen("--threads=")),
                         &args.threads);
    } else {
      ok = false;
    }
    if (!ok) {
      Usage(argv[0]);
      std::exit(2);
    }
  }
  // Without the flag the pool falls back to KGEVAL_THREADS, then
  // hardware_concurrency.
  if (args.threads > 0) {
    SetGlobalThreadPoolThreads(static_cast<size_t>(args.threads));
  }
  return args;
}

}  // namespace

bool Selected(const BenchArgs& args, const std::string& target) {
  return args.only.empty() ||
         std::find(args.only.begin(), args.only.end(), target) !=
             args.only.end();
}

}  // namespace bench
}  // namespace kgeval

int main(int argc, char** argv) {
  using namespace kgeval::bench;
  const BenchArgs args = ParseArgs(argc, argv);
  std::vector<Runner> ran;
  for (const auto& [name, run] : kTargets) {
    if (!Selected(args, name) ||
        std::find(ran.begin(), ran.end(), run) != ran.end()) {
      continue;
    }
    ran.push_back(run);
    run(args);
  }
  return 0;
}

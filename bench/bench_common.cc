#include "bench/bench_common.h"

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace kgeval {
namespace bench {

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--paper-scale] [--fast] [--epochs=N] "
               "[--dataset=NAME] [--json]\n"
               "       [--half-width=X] [--threads=N] [--from-disk]\n"
               "--epochs and --threads take positive integers, --half-width "
               "a finite number in (0, 1).\n",
               argv0);
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

}  // namespace

BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool ok = true;
    if (arg == "--paper-scale") {
      args.paper_scale = true;
    } else if (arg == "--fast") {
      args.fast = true;
    } else if (arg.rfind("--epochs=", 0) == 0) {
      ok = ParsePositive(arg.substr(std::strlen("--epochs=")), &args.epochs);
    } else if (arg.rfind("--dataset=", 0) == 0) {
      args.only_dataset = arg.substr(std::strlen("--dataset="));
    } else if (arg == "--json") {
      args.json = true;
    } else if (arg.rfind("--half-width=", 0) == 0) {
      ok = ParseHalfWidth(arg.substr(std::strlen("--half-width=")),
                          &args.half_width);
    } else if (arg.rfind("--threads=", 0) == 0) {
      ok = ParsePositive(arg.substr(std::strlen("--threads=")),
                         &args.threads);
    } else if (arg == "--from-disk") {
      args.from_disk = true;
    } else {
      ok = false;
    }
    if (!ok) {
      Usage(argv[0]);
      std::exit(2);
    }
  }
  // ParseArgs runs first thing in every bench main(), before the lazy
  // global pool exists, so the override is still applicable. Without the
  // flag the pool falls back to KGEVAL_THREADS, then hardware_concurrency.
  if (args.threads > 0) {
    SetGlobalThreadPoolThreads(static_cast<size_t>(args.threads));
  }
  return args;
}

SynthOutput LoadPreset(const std::string& name, const BenchArgs& args) {
  const PresetScale scale =
      args.paper_scale ? PresetScale::kPaper : PresetScale::kScaled;
  SynthConfig config = GetPreset(name, scale).ValueOrDie();
  return GenerateDataset(config).ValueOrDie();
}

std::unique_ptr<KgeModel> TrainModel(const Dataset& dataset,
                                     const TrainSpec& spec) {
  ModelOptions options;
  options.dim = spec.dim;
  options.adam.learning_rate = spec.learning_rate;
  options.seed = spec.seed;
  auto model = CreateModel(spec.type, dataset.num_entities(),
                           dataset.num_relations(), options)
                   .ValueOrDie();
  TrainerOptions trainer_options;
  trainer_options.epochs = spec.epochs;
  trainer_options.negatives_per_positive = spec.negatives;
  trainer_options.seed = spec.seed * 7919;
  Trainer trainer(&dataset, trainer_options);
  KGEVAL_CHECK(trainer.Train(model.get()).ok());
  return model;
}

std::string MakeScratchDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      (name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n\n", title.c_str());
}

void PrintNote(const std::string& text) {
  std::printf("note: %s\n", text.c_str());
}

std::string F(double value, int digits) {
  return StrFormat("%.*f", digits, value);
}

std::string Pct(double fraction, int digits) {
  return StrFormat("%.*f%%", digits, 100.0 * fraction);
}

}  // namespace bench
}  // namespace kgeval

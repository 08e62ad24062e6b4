#ifndef KGEVAL_BENCH_BENCH_COMMON_H_
#define KGEVAL_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>

#include "models/kge_model.h"
#include "models/trainer.h"
#include "synth/config.h"
#include "synth/generator.h"

namespace kgeval {
namespace bench {

/// Flags shared by every bench binary:
///   --paper-scale     use Table 4 dataset sizes instead of the scaled ones
///   --fast            trim epochs/repetitions for a smoke run
///   --epochs=N        override the training epoch count
///   --dataset=NAME    restrict multi-dataset benches to one preset
///   --json            also write the bench's BENCH_<name>.json (machine-
///                     readable results; only benches that support it)
///   --half-width=X    adaptive evaluation's target confidence half-width,
///                     finite and in (0, 1) (benches with an adaptive mode;
///                     default 0.01)
///   --threads=N       worker-pool size (default: KGEVAL_THREADS env var,
///                     then hardware_concurrency) — makes bench numbers
///                     comparable across machines and CI runners
///   --from-disk       checkpoint-streaming mode (benches that support it):
///                     train once writing per-epoch snapshots, then sweep
///                     the files with EstimateCheckpoints instead of
///                     estimating models resident in memory
struct BenchArgs {
  bool paper_scale = false;
  bool fast = false;
  int32_t epochs = -1;
  std::string only_dataset;
  bool json = false;
  double half_width = 0.01;
  int32_t threads = 0;
  bool from_disk = false;
};

/// Parses the shared flags; an unknown flag or a malformed value prints the
/// usage and exits 2. Applies --threads (or its KGEVAL_THREADS fallback) to
/// the global worker pool immediately, so call this before any parallel
/// work.
BenchArgs ParseArgs(int argc, char** argv);

/// Generates the named preset at the scale selected by `args`.
SynthOutput LoadPreset(const std::string& name, const BenchArgs& args);

/// A model + training recipe used by the benches.
struct TrainSpec {
  ModelType type = ModelType::kComplEx;
  int32_t dim = 32;
  float learning_rate = 3e-3f;
  int32_t epochs = 12;
  int32_t negatives = 8;
  uint64_t seed = 11;
};

/// Trains a fresh model on dataset.train(). Dies on invalid specs (benches
/// are not recoverable anyway).
std::unique_ptr<KgeModel> TrainModel(const Dataset& dataset,
                                     const TrainSpec& spec);

/// Fresh pid-suffixed scratch directory under the system temp dir (any
/// previous contents removed): concurrent bench runs on one machine —
/// parallel CI jobs, say — must not clobber each other's files. Callers
/// remove it when done.
std::string MakeScratchDir(const std::string& name);

/// Section header: "==== title ====".
void PrintHeader(const std::string& title);

/// Wrapped free-text note under a table.
void PrintNote(const std::string& text);

/// Compact numeric formatting for table cells.
std::string F(double value, int digits = 3);
std::string Pct(double fraction, int digits = 1);

}  // namespace bench
}  // namespace kgeval

#endif  // KGEVAL_BENCH_BENCH_COMMON_H_

#ifndef KGEVAL_BENCH_BENCH_COMMON_H_
#define KGEVAL_BENCH_BENCH_COMMON_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/framework.h"
#include "models/kge_model.h"
#include "models/trainer.h"
#include "synth/config.h"
#include "synth/generator.h"

namespace kgeval {
namespace bench {

/// Flags of kgeval_reproduce:
///   --only=T[,T...]   run only the named targets (default: every target)
///   --paper-scale     use Table 4 dataset sizes instead of the scaled ones
///   --fast            trim epochs/repetitions for a smoke run
///   --epochs=N        override the training epoch count
///   --dataset=NAME    run every target on this one preset; wins over the
///                     dataset lists of --fast
///   --json            also write BENCH_table9.json (Table 9's machine-
///                     readable results)
///   --half-width=X    adaptive evaluation's target confidence half-width,
///                     finite and in (0, 1) (Figures 3a/3b; default 0.01)
///   --threads=N       worker-pool size (default: KGEVAL_THREADS env var,
///                     then hardware_concurrency) — makes bench numbers
///                     comparable across machines and CI runners
struct BenchArgs {
  bool paper_scale = false;
  bool fast = false;
  int32_t epochs = -1;
  std::string only_dataset;
  bool json = false;
  double half_width = 0.01;
  int32_t threads = 0;
  std::vector<std::string> only;  // Empty: every target.
};

/// True when `target` is to run: --only names it, or --only is absent.
bool Selected(const BenchArgs& args, const std::string& target);

/// The targets. Each prints one or more of the paper's tables/figures;
/// RunSamplingSweep serves fig3a, fig3b and fig6 and prints the selected
/// ones.
void RunTable2(const BenchArgs& args);
void RunTable3(const BenchArgs& args);
void RunTable4(const BenchArgs& args);
void RunTable5(const BenchArgs& args);
void RunTable678(const BenchArgs& args);
void RunTable9(const BenchArgs& args);
void RunSamplingSweep(const BenchArgs& args);
void RunFig3c(const BenchArgs& args);
void RunFig4(const BenchArgs& args);
void RunAblations(const BenchArgs& args);

/// The presets a multi-dataset target runs on: --dataset's one preset if
/// given (it wins over --fast), else `fast` under --fast, else `all`.
std::vector<std::string> Datasets(const BenchArgs& args,
                                  std::vector<std::string> all,
                                  std::vector<std::string> fast);

/// Generates the named preset at the scale selected by `args`.
SynthOutput LoadPreset(const std::string& name, const BenchArgs& args);

/// A target's training epochs: --epochs if given, else `fast` under
/// --fast, else `full`.
int32_t Epochs(const BenchArgs& args, int32_t fast, int32_t full);

/// Trains a fresh ComplEx (dim 32, Adam lr 3e-3, 8 negatives per positive,
/// seed 11) on dataset.train() for `epochs` epochs.
std::unique_ptr<KgeModel> TrainModel(const Dataset& dataset, int32_t epochs);

/// Builds an L-WD framework drawing `fraction` of |E| with `strategy`.
/// Build() seeds the framework's RNG, so a fresh framework draws the same
/// pools every time.
std::unique_ptr<EvaluationFramework> BuildFramework(const Dataset& dataset,
                                                    SamplingStrategy strategy,
                                                    double fraction);

/// KP's negative pools for `framework`'s strategy on `split`: none for
/// Random (KP then samples uniformly), else one draw over the framework's
/// candidate sets from Rng(seed), leaving the framework's own RNG alone.
std::optional<SampledCandidates> KpPools(const EvaluationFramework& framework,
                                         Split split, uint64_t seed);

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

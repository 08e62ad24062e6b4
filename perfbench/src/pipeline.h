// The phases every workload runs, in order: harness models (untimed),
// in-process set-up, ranking, checkpoint publish + sweep, served traffic,
// and — in the traced run only — the per-layer ladder.
#ifndef KGEVAL_PERFBENCH_PIPELINE_H_
#define KGEVAL_PERFBENCH_PIPELINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/eval_session.h"
#include "graph/dataset.h"
#include "models/kge_model.h"
#include "perfbench/src/bench.h"
#include "synth/generator.h"

namespace perfbench {

/// Bit-deterministic harness models for one dataset: each HarnessModelTypes()
/// entry at epoch 0 (its initialization) and after training, kept in memory
/// and as checkpoint files (`paths`: e0 then e1 per type). Training is
/// single-threaded with fixed seeds (Hogwild chunks would race), and is
/// cached on disk under `cache_dir` since it is preparation, not measured.
struct HarnessModels {
  std::vector<std::unique_ptr<kgeval::KgeModel>> initial;
  std::vector<std::unique_ptr<kgeval::KgeModel>> trained;
  std::vector<std::string> paths;
  /// initial and trained interleaved like `paths`.
  std::vector<const kgeval::KgeModel*> all() const;
};

/// Generates `preset` at `scale` (the preset's own seed: datasets are fixed
/// like public benchmark datasets; --seed varies the draws and traffic).
std::unique_ptr<kgeval::SynthOutput> GeneratePreset(const std::string& preset,
                                                    kgeval::PresetScale scale);

/// Loads the harness models for (preset, scale) from `cache_dir`, training
/// and saving them first when absent. `dataset` is only called on a cache
/// miss, which sets `*trained`. Prints one checksum line per checkpoint.
HarnessModels PrepareHarnessModels(
    const std::string& preset, kgeval::PresetScale scale,
    const std::string& cache_dir,
    const std::function<const kgeval::Dataset&()>& dataset, bool* trained);

/// The in-process system after set-up: dataset, filter, and a session with
/// its pinned pool draw, all warm.
struct InProcessSystem {
  std::unique_ptr<kgeval::SynthOutput> synth;
  std::unique_ptr<kgeval::FilterIndex> filter;
  std::unique_ptr<kgeval::EvalSession> session;
  const kgeval::Dataset& dataset() const { return synth->dataset; }
};

/// Per-model results of the first ranking repetition, for the accuracy
/// metrics and the layer ladder.
struct RankingResults {
  std::vector<double> full_mrr;
  std::vector<kgeval::SampledEvalResult> estimate;
  std::vector<kgeval::AdaptiveEvalResult> adaptive;
};

/// Runs the in-process set-up `reps` times (keeping the last system) and
/// returns each repetition's seconds.
std::vector<double> SetUpInProcess(const Workload& workload, const Args& args,
                                   const HarnessModels& models, int reps,
                                   InProcessSystem* system);

/// Rank-parity, repeatability and determinism gates on the set-up system.
void RunInProcessGates(const InProcessSystem& system,
                       const HarnessModels& models, Report* report);

/// The in-process measurement window: EvaluateFullRanking,
/// EstimateOnPools and EstimateAdaptiveOnPools per model, SaveModel of
/// every harness model into fresh directories, and EstimateCheckpoints
/// sweeps of one published set, interleaved. The window is cut into
/// `slices`; `between(slice)` runs after each (the served slices), so every
/// metric samples the whole run. Sets the ranking, accuracy and checkpoint
/// metrics.
RankingResults RunInProcess(const Workload& workload, const Args& args,
                            const InProcessSystem& system,
                            const HarnessModels& models, int slices,
                            const std::function<void(int slice)>& between,
                            Report* report);

/// What the served phase leaves for the layer ladder.
struct ServedResults {
  std::vector<double> setup_s;
  double eval_p50_ms = 0.0;
  /// The request lines Phase A sent, in order (replayed in-process by the
  /// traced run).
  std::vector<std::string> replay_lines;
};

/// The served phases against a kgeval-server child: set-up (spawn, LOAD,
/// warm EVALs) repeated, then slices of the closed-loop phase and of one
/// seeded open-loop schedule. Every served EVAL is checked byte-for-byte
/// against a direct evaluation.
class ServedPhase {
 public:
  ServedPhase(const Workload& workload, const Args& args,
              const kgeval::Dataset& serve_dataset,
              const HarnessModels& serve_models, Report* report);
  ~ServedPhase();
  ServedPhase(const ServedPhase&) = delete;
  ServedPhase& operator=(const ServedPhase&) = delete;

  /// Starts the server `reps` times, keeping the last one; false (with the
  /// failure reported) when it cannot.
  bool SetUp(int reps);
  /// Closed loop for 1/slices of its share, then slice `slice` of the
  /// open-loop schedule.
  void RunSlice(int slice, int slices);
  /// Sets the served metrics, reads STATS, and stops the server.
  ServedResults Finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Traced run only: the per-layer ladder on the workload's own data.
void RunLayerLadder(const Workload& workload, const Args& args,
                    InProcessSystem* system, const HarnessModels& models,
                    const RankingResults& ranking,
                    const kgeval::Dataset& serve_dataset,
                    const HarnessModels& serve_models,
                    const ServedResults& served, Report* report);

/// Peak resident set of this process, in MB.
double SelfPeakRssMb();

/// FNV-1a of a file's bytes ("-" when unreadable).
std::string FileChecksum(const std::string& path);

}  // namespace perfbench

#endif  // KGEVAL_PERFBENCH_PIPELINE_H_

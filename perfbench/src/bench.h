// Shared declarations of the perfbench harness: run arguments, workload
// configuration, the metric registry, the result report, and the span
// tracer the traced run (--trace 1) records around every library call.
#ifndef KGEVAL_PERFBENCH_BENCH_H_
#define KGEVAL_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "models/kge_model.h"
#include "synth/config.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Arguments and workloads
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  /// Path of the kgeval-server binary to spawn.
  std::string server;
  /// Scratch directory for checkpoints and logs (inside the checkout).
  std::string work_dir;
  /// Tiny presets and short phases: the harness self-check.
  bool tiny = false;
};

/// One workload. Every workload runs the same pipeline — harness models,
/// set-up, in-process ranking, checkpoint publish + sweep, served traffic —
/// so every end-to-end metric is measured on each; the workload picks the
/// dataset, the scale, and how the measured seconds are shared out.
struct Workload {
  std::string name;
  std::string inproc_preset;
  kgeval::PresetScale inproc_scale = kgeval::PresetScale::kScaled;
  /// LOADed by the server at its own (scaled) preset size.
  std::string serve_preset;
  /// Shares of --seconds for each measured phase; the open-loop phase gets
  /// what remains.
  double full_share = 0.0;
  double estimate_share = 0.0;
  double adaptive_share = 0.0;
  double checkpoint_share = 0.0;
  double closed_loop_share = 0.0;
  /// Slices the measured window is cut into; each slice runs a share of
  /// every phase.
  int slices = 4;
  /// Offered EVAL rate of the open-loop phase (EVALs per second), fixed so
  /// a faster build sees the same load and shows lower latency: a fifth to
  /// a third of the closed-loop rate on a 4-core AVX-512 Xeon.
  double open_loop_rate = 0.0;
  /// Set-up repetitions (in-process set-up plus a server start each).
  int setup_reps = 3;
  /// Minimum repetitions of each timed series, whatever the time share.
  int min_full_reps = 3;
  int min_estimate_reps = 10;
  int min_adaptive_reps = 30;
  int min_checkpoint_reps = 5;

  /// Sum of the shares above.
  double measured_share() const {
    return full_share + estimate_share + adaptive_share + checkpoint_share +
           closed_loop_share;
  }
};

const Workload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// The four harness model types: one per kernel reduction plus RESCAL, the
/// matrix model.
const std::vector<kgeval::ModelType>& HarnessModelTypes();
int32_t HarnessDim(kgeval::ModelType type);

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double Median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> values, double p);
double NowSeconds();
/// Derives an independent 64-bit seed from (a, b).
uint64_t MixSeed(uint64_t a, uint64_t b);

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "lower" / "higher"
};

const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// Everything a run reports: metric values, operation counts, and the
/// correctness gates. A failed gate check counts as a failed operation and
/// makes the run exit non-zero.
class Report {
 public:
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;

  void Attempt(int64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& what, int64_t n = 1);

  /// Records one check of gate `gate`; a false `ok` prints `detail`.
  void Gate(const std::string& gate, bool ok, const std::string& detail = "");

  /// Prints the gate summary and the metric table (name, value, unit,
  /// direction), then the result line as the last line of stdout. Returns
  /// the process exit code.
  int Finish(bool trace) const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::pair<int64_t, int64_t>> gates_;  // pass, fail
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans are opened and closed
/// on the harness's main thread only (library calls fan out internally,
/// but every call is made from here), so parents are a simple stack.
/// Disabled, a Span costs one branch.
class Tracer {
 public:
  struct Record {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    int64_t request = -1;  // Replayed/served command id, -1 otherwise.
  };

  static Tracer& Get();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int32_t Open(const char* name, int64_t request);
  void Close(int32_t id);
  /// Records an already-finished span (served requests, timed by the load
  /// generator) under the currently open span.
  void Add(const char* name, double start_s, double end_s, int64_t request);

  const std::vector<Record>& records() const { return records_; }

  /// Self time of every span (duration minus the union of its children's
  /// intervals), summed per span name, in seconds.
  std::map<std::string, double> SelfSecondsByName() const;
  /// Summed duration and count per span name.
  std::map<std::string, std::pair<double, int64_t>> TotalsByName() const;

  /// Writes every span as JSON lines to `path`.
  bool Write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<int32_t> stack_;
};

/// RAII span; a no-op while tracing is off.
class Span {
 public:
  explicit Span(const char* name, int64_t request = -1) {
    Tracer& t = Tracer::Get();
    if (t.enabled()) id_ = t.Open(name, request);
  }
  ~Span() {
    if (id_ >= 0) Tracer::Get().Close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int32_t id_ = -1;
};

}  // namespace perfbench

#endif  // KGEVAL_PERFBENCH_BENCH_H_

// Workload definitions, statistics helpers, the metric registry, the
// result report and the span tracer.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "perfbench/src/bench.h"

namespace perfbench {

using kgeval::ModelType;
using kgeval::PresetScale;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

namespace {

std::vector<Workload> BuildWorkloads() {
  std::vector<Workload> out;
  {
    // Paper-scale codex-m: exhaustive filtered ranking of four models is
    // ~6 s per repetition, so kernels, tile prepare, the full evaluator and
    // filtered ranking do nearly all of the work. Its checkpoints are
    // multi-MB, so publish + sweep move real bytes. The served part LOADs
    // codex-m at the server's own (scaled) size.
    Workload w;
    w.name = "table9-codexm";
    w.inproc_preset = "codex-m";
    w.inproc_scale = PresetScale::kPaper;
    w.serve_preset = "codex-m";
    w.full_share = 0.36;
    w.estimate_share = 0.08;
    w.adaptive_share = 0.09;
    w.checkpoint_share = 0.07;
    w.closed_loop_share = 0.07;
    w.open_loop_rate = 40.0;
    w.min_estimate_reps = 8;
    w.min_checkpoint_reps = 4;
    out.push_back(w);
  }
  {
    // Scaled fb15k237 behind the real server: the net/service layers,
    // executor queueing and small-pool sampled scoring dominate. The
    // in-process phases run on the very dataset and checkpoints the server
    // evaluates.
    Workload w;
    w.name = "serve-fb15k237";
    w.inproc_preset = "fb15k237";
    w.inproc_scale = PresetScale::kScaled;
    w.serve_preset = "fb15k237";
    w.full_share = 0.10;
    w.estimate_share = 0.06;
    w.adaptive_share = 0.05;
    w.checkpoint_share = 0.06;
    w.closed_loop_share = 0.15;
    w.open_loop_rate = 50.0;
    w.setup_reps = 5;
    out.push_back(w);
  }
  return out;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload>* workloads =
      new std::vector<Workload>(BuildWorkloads());
  return *workloads;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : Workloads()) names.push_back(w.name);
  return names;
}

const std::vector<ModelType>& HarnessModelTypes() {
  static const std::vector<ModelType> types = {
      ModelType::kComplEx, ModelType::kTransE, ModelType::kRotatE,
      ModelType::kRescal};
  return types;
}

int32_t HarnessDim(ModelType type) {
  // RESCAL's relation matrices are dim x dim; 32 keeps its cost in line
  // with the vector models at 64.
  return type == ModelType::kRescal ? 32 : 64;
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx =
      static_cast<size_t>(std::max(1.0, rank)) - 1;  // nearest rank
  return values[std::min(idx, values.size() - 1)];
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Metric registry
// ---------------------------------------------------------------------------

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"full_eval_ms", "ms", "lower"},
      {"estimate_ms", "ms", "lower"},
      {"adaptive_ms", "ms", "lower"},
      {"estimate_mape_pct", "%", "lower"},
      {"adaptive_gap_pct", "%", "lower"},
      {"evals_per_s", "1/s", "higher"},
      {"sweep_ckpt_per_s", "1/s", "higher"},
      {"publish_ckpt_per_s", "1/s", "higher"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"synth.generate_s", "s", "lower"},
        {"graph.filter_build_s", "s", "lower"},
        {"recommenders.fit_s", "s", "lower"},
        {"core.candidate_sets_s", "s", "lower"},
        {"core.draw_pools_ms", "ms", "lower"},
        {"la.kernel_ns_per_cand_dim.dot", "ns", "lower"},
        {"la.kernel_ns_per_cand_dim.l1", "ns", "lower"},
        {"la.kernel_ns_per_cand_dim.cdist", "ns", "lower"},
    };
    static const char* kPrepare[] = {
        "models.prepare_us_per_kcand.ComplEx",
        "models.prepare_us_per_kcand.TransE",
        "models.prepare_us_per_kcand.RotatE",
        "models.prepare_us_per_kcand.RESCAL"};
    static const char* kScore[] = {
        "models.score_block_ns_per_cand.ComplEx",
        "models.score_block_ns_per_cand.TransE",
        "models.score_block_ns_per_cand.RotatE",
        "models.score_block_ns_per_cand.RESCAL"};
    for (const char* name : kPrepare) s.push_back({name, "us", "lower"});
    for (const char* name : kScore) s.push_back({name, "ns", "lower"});
    const std::vector<MetricSpec> rest = {
        {"eval.filtered_rank_ns_per_cand", "ns", "lower"},
        {"eval.full_cands_per_s", "1/s", "higher"},
        {"core.scored_candidates", "count", "lower"},
        {"core.pool_size", "count", "lower"},
        {"core.adaptive_rounds", "count", "lower"},
        {"core.adaptive_scored_frac", "ratio", "lower"},
        {"core.estimate_on_pools_ms", "ms", "lower"},
        {"sched.task_group_roundtrip_us", "us", "lower"},
        {"models.ckpt_save_ms", "ms", "lower"},
        {"models.ckpt_load_ms", "ms", "lower"},
        {"models.ckpt_mb", "MB", "lower"},
        {"core.sweep_overlap", "ratio", "higher"},
        {"core.sweep_max_resident", "count", "lower"},
        {"service.parse_us", "us", "lower"},
        {"service.execute_eval_ms", "ms", "lower"},
        {"service.stats.shed", "count", "lower"},
        {"service.stats.errors", "count", "lower"},
        {"service.stats.deadlines", "count", "lower"},
        {"net.served_minus_direct_ms", "ms", "lower"},
        // Open-loop latencies. Not end-to-end metrics: on a shared 4-vCPU
        // VM their run-to-run spread (up to 0.30 of the median over ten runs
        // for p50, 0.19-0.54 for the tails) exceeds any usable regression
        // bound.
        {"net.eval_p50_ms", "ms", "lower"},
        {"net.eval_p99_ms", "ms", "lower"},
        {"net.ping_p99_ms", "ms", "lower"},
        {"loadgen.late_p99_ms", "ms", "lower"},
        {"trace.unaccounted_pct", "%", "lower"},
        {"trace.overhead_pct", "%", "lower"},
        {"trace.spans", "count", "lower"},
    };
    s.insert(s.end(), rest.begin(), rest.end());
    return s;
  }();
  return specs;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::Set(const std::string& name, double value) {
  values_[name] = value;
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? std::nan("") : it->second;
}

void Report::Fail(const std::string& what, int64_t n) {
  failed_ += n;
  std::fprintf(stderr, "perfbench: FAILED %s (%lld)\n", what.c_str(),
               static_cast<long long>(n));
}

void Report::Gate(const std::string& gate, bool ok,
                  const std::string& detail) {
  auto& counts = gates_[gate];
  ++attempted_;
  if (ok) {
    ++counts.first;
  } else {
    ++counts.second;
    Fail("gate " + gate + (detail.empty() ? "" : ": " + detail));
  }
}

int Report::Finish(bool trace) const {
  const std::vector<MetricSpec>& specs =
      trace ? PerLayerMetrics() : EndToEndMetrics();
  bool complete = true;
  std::printf("\n%-44s %18s  %-6s %s\n", "metric", "value", "unit",
              "better");
  for (const MetricSpec& spec : specs) {
    const double v = Get(spec.name);
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   spec.name);
      complete = false;
      continue;
    }
    std::printf("%-44s %18.6f  %-6s %s\n", spec.name, v, spec.unit,
                spec.better);
  }
  std::printf("\n");
  for (const auto& [gate, counts] : gates_) {
    std::printf("gate %-28s %s (%lld passed, %lld failed)\n", gate.c_str(),
                counts.second == 0 ? "pass" : "FAIL",
                static_cast<long long>(counts.first),
                static_cast<long long>(counts.second));
  }
  const bool correct = complete && failed_ == 0 && !gates_.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const double v = Get(spec.name);
    if (!std::isfinite(v)) continue;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (!first) json += ", ";
    first = false;
    json += "\"" + std::string(spec.name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + spec.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

int32_t Tracer::Open(const char* name, int64_t request) {
  Record r;
  r.name = name;
  r.start_ns = NowNs();
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.request = request;
  records_.push_back(std::move(r));
  const int32_t id = static_cast<int32_t>(records_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::Close(int32_t id) {
  records_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::Add(const char* name, double start_s, double end_s,
                 int64_t request) {
  if (!enabled_) return;
  Record r;
  r.name = name;
  r.start_ns = static_cast<int64_t>(start_s * 1e9);
  r.end_ns = static_cast<int64_t>(end_s * 1e9);
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.request = request;
  records_.push_back(std::move(r));
}

std::map<std::string, double> Tracer::SelfSecondsByName() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      records_.size());
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      children[static_cast<size_t>(r.parent)].push_back(
          {r.start_ns, r.end_ns});
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's: served
    // requests overlap one another, so a plain sum would over-count.
    int64_t covered = 0;
    int64_t cur_start = 0, cur_end = -1;
    for (auto [s, e] : kids) {
      s = std::max(s, r.start_ns);
      e = std::min(e, r.end_ns);
      if (e <= s) continue;
      if (s > cur_end) {
        if (cur_end > cur_start) covered += cur_end - cur_start;
        cur_start = s;
        cur_end = e;
      } else {
        cur_end = std::max(cur_end, e);
      }
    }
    if (cur_end > cur_start) covered += cur_end - cur_start;
    out[r.name] += static_cast<double>(r.end_ns - r.start_ns - covered) * 1e-9;
  }
  return out;
}

std::map<std::string, std::pair<double, int64_t>> Tracer::TotalsByName()
    const {
  std::map<std::string, std::pair<double, int64_t>> out;
  for (const Record& r : records_) {
    auto& slot = out[r.name];
    slot.first += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    ++slot.second;
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %d, \"request\": %lld}\n",
                 i, r.name.c_str(),
                 static_cast<double>(r.start_ns - origin) * 1e-3,
                 static_cast<double>(r.end_ns - origin) * 1e-3, r.parent,
                 static_cast<long long>(r.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

// Served phases: kgeval-server as a child process over loopback TCP, a
// closed-loop throughput phase and a paced open-loop latency phase, with
// every EVAL reply checked byte-for-byte against a direct evaluation.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>

#include "net/net_util.h"
#include "perfbench/src/pipeline.h"
#include "service/eval_service.h"
#include "service/line_client.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace kgeval;

namespace {

constexpr const char* kHost = "127.0.0.1";
constexpr double kAdaptiveHalfWidth = 0.02;
/// p99 (nearest rank) with at least ten samples beyond it.
constexpr int kMinOpenLoopEvals = 1000;
/// EVAL connections of the open-loop phase; one more carries the PINGs.
constexpr size_t kOpenLoopEvalConns = 3;
constexpr size_t kClosedLoopConns = 4;
constexpr int kServerNice = 10;
/// The open-loop arrival times are one fixed Poisson trace, so every run
/// offers the same bursts (a p99 over ~1000 arrivals moves with them);
/// --seed varies which checkpoint and mode each arrival requests.
constexpr uint64_t kArrivalSeed = 0x5eed;

// ---------------------------------------------------------------------------
// The server child
// ---------------------------------------------------------------------------

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns the binary on an ephemeral port and waits for its LISTENING
  /// line. Returns "" on success, the failure otherwise.
  std::string Start(const std::string& binary, size_t threads,
                    const std::string& log_path) {
    int out[2];
    if (pipe(out) != 0) return "pipe failed";
    // Everything the child needs is built before fork: only
    // async-signal-safe calls happen between fork and exec.
    const std::string threads_flag = StrFormat("--threads=%zu", threads);
    std::vector<std::string> argv_s = {binary, "--port=0", threads_flag,
                                       StrFormat("--host=%s", kHost)};
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) return "fork failed";
    if (pid_ == 0) {
      // The server must not outlive the harness, even if it crashes.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(127);
      // The load generator shares the cores with the server. A lower server
      // priority lets the generator's wakeups (its send times and reply
      // timestamps) preempt the server's compute threads, so a latency is
      // the server's and not the client's own scheduling delay.
      setpriority(PRIO_PROCESS, 0, kServerNice);
      dup2(out[1], STDOUT_FILENO);
      if (log_fd >= 0) dup2(log_fd, STDERR_FILENO);
      close(out[0]);
      close(out[1]);
      execv(argv[0], argv.data());
      _exit(127);
    }
    if (log_fd >= 0) close(log_fd);
    close(out[1]);
    stdout_fd_ = out[0];
    std::string line;
    const double deadline = NowSeconds() + 60.0;
    while (NowSeconds() < deadline) {
      struct pollfd p = {stdout_fd_, POLLIN, 0};
      if (poll(&p, 1, 100) <= 0) continue;
      char c;
      const ssize_t n = read(stdout_fd_, &c, 1);
      if (n <= 0) return "server exited before LISTENING";
      if (c != '\n') {
        line.push_back(c);
        continue;
      }
      if (line.rfind("LISTENING ", 0) == 0) {
        port_ = static_cast<uint16_t>(std::atoi(line.c_str() + 10));
        return port_ != 0 ? "" : "bad LISTENING line";
      }
      line.clear();
    }
    return "timed out waiting for LISTENING";
  }

  /// High-water resident set (VmHWM), in MB.
  double PeakRssMb() const {
    std::ifstream status(StrFormat("/proc/%d/status", static_cast<int>(pid_)));
    std::string key;
    while (status >> key) {
      if (key == "VmHWM:") {
        double kb = 0.0;
        status >> kb;
        return kb / 1024.0;
      }
    }
    return std::nan("");
  }

  /// SIGTERM, then SIGKILL after a grace period; always reaps the child.
  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      const double deadline = NowSeconds() + 10.0;
      while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (NowSeconds() > deadline) {
          kill(pid_, SIGKILL);
          waitpid(pid_, &status, 0);
          break;
        }
        usleep(2000);
      }
      pid_ = -1;
    }
    if (stdout_fd_ >= 0) {
      close(stdout_fd_);
      stdout_fd_ = -1;
    }
  }

  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// Expected replies
// ---------------------------------------------------------------------------

std::string Fmt17(double v) { return StrFormat("%.17g", v); }

std::map<std::string, std::string> ParseKeyValues(const std::string& line) {
  std::map<std::string, std::string> out;
  size_t pos = 0;
  while (pos < line.size()) {
    size_t end = line.find(' ', pos);
    if (end == std::string::npos) end = line.size();
    const std::string token = line.substr(pos, end - pos);
    const size_t eq = token.find('=');
    if (eq != std::string::npos) out[token.substr(0, eq)] = token.substr(eq + 1);
    pos = end + 1;
  }
  return out;
}

/// The metric fields of an EVAL reply, joined; eval_s (wall time) is left
/// out by construction.
std::string ReplyFields(const std::string& line, bool adaptive) {
  auto kv = ParseKeyValues(line);
  std::string s = kv["mrr"] + "|" + kv["ci"] + "|" + kv["hits1"] + "|" +
                  kv["hits3"] + "|" + kv["hits10"] + "|" + kv["queries"] +
                  "|" + kv["scored"];
  if (adaptive) s += "|" + kv["converged"] + "|" + kv["rounds"];
  return s;
}

/// Direct evaluation of every served checkpoint on a reconstruction of the
/// session LOAD builds (same preset, ServiceFrameworkOptions, first draw).
/// expected[2 * ckpt + adaptive].
std::vector<std::string> ExpectedReplies(const Dataset& dataset,
                                         const std::vector<std::string>& paths) {
  const FilterIndex filter(dataset);
  auto session = EvalSession::Create(&dataset, &filter,
                                     EvalService::ServiceFrameworkOptions(),
                                     Split::kTest)
                     .ValueOrDie();
  const EvaluationFramework& fw = session->framework();
  std::vector<std::string> expected;
  for (const std::string& path : paths) {
    const SampledEvalResult r =
        fw.EstimateCheckpointOnPools(path, filter, Split::kTest,
                                     session->pools())
            .ValueOrDie();
    expected.push_back(Fmt17(r.metrics.mrr) + "|" + Fmt17(r.ci.mrr) + "|" +
                       Fmt17(r.metrics.hits1) + "|" + Fmt17(r.metrics.hits3) +
                       "|" + Fmt17(r.metrics.hits10) + "|" +
                       std::to_string(r.metrics.num_queries) + "|" +
                       std::to_string(r.scored_candidates));
    AdaptiveEvalOptions adaptive;
    adaptive.target_half_width = kAdaptiveHalfWidth;
    const AdaptiveEvalResult a =
        fw.EstimateAdaptiveCheckpointOnPools(path, filter, Split::kTest,
                                             session->pools(), adaptive)
            .ValueOrDie();
    expected.push_back(Fmt17(a.metrics.mrr) + "|" + Fmt17(a.ci.mrr) + "|" +
                       Fmt17(a.metrics.hits1) + "|" + Fmt17(a.metrics.hits3) +
                       "|" + Fmt17(a.metrics.hits10) + "|" +
                       std::to_string(a.evaluated_queries) + "|" +
                       std::to_string(a.scored_candidates) + "|" +
                       std::to_string(a.converged ? 1 : 0) + "|" +
                       std::to_string(a.rounds));
  }
  return expected;
}

// ---------------------------------------------------------------------------
// Load generator
// ---------------------------------------------------------------------------

struct Request {
  bool ping = false;
  bool adaptive = false;
  size_t ckpt = 0;
  double due = 0.0;  // Seconds since the phase started.
  int64_t id = 0;
};

std::string RequestLine(const Request& r,
                        const std::vector<std::string>& paths) {
  if (r.ping) return "PING";
  return "EVAL " + paths[r.ckpt] +
         (r.adaptive ? StrFormat(" %g", kAdaptiveHalfWidth) : "");
}

/// The EVAL mix: two fixed-budget EVALs for every adaptive one, over the
/// checkpoints in seeded random order.
class EvalMix {
 public:
  EvalMix(uint64_t seed, size_t num_ckpts) : rng_(seed), n_(num_ckpts) {}
  Request Next() {
    Request r;
    r.adaptive = count_ % 3 == 2;
    r.ckpt = static_cast<size_t>(rng_.NextBounded(n_));
    r.id = count_++;
    return r;
  }

 private:
  Rng rng_;
  size_t n_;
  int64_t count_ = 0;
};

/// One pipelined connection driven from the single generator thread.
struct Conn {
  int fd = -1;
  std::string in;
  std::deque<Request> pending;
  ~Conn() {
    if (fd >= 0) close(fd);
  }
};

/// What the generator saw.
struct PhaseStats {
  std::vector<double> eval_ms, ping_ms, late_ms;
  /// Closed loop: wall time from the first send until the last reply.
  double window_s = 0.0;
};

class LoadGenerator {
 public:
  LoadGenerator(uint16_t port, const std::vector<std::string>& paths,
                const std::vector<std::string>& expected, Report* report)
      : port_(port), paths_(&paths), expected_(&expected), report_(report) {}

  bool Connect(size_t n) {
    conns_.clear();
    for (size_t i = 0; i < n; ++i) {
      auto conn = std::make_unique<Conn>();
      auto fd = ConnectTcp(kHost, port_);
      if (!fd.ok()) return false;
      conn->fd = fd.ValueOrDie();
      SetTcpNoDelay(conn->fd);
      conns_.push_back(std::move(conn));
    }
    // Banners.
    for (auto& c : conns_) {
      std::string line;
      if (!ReadLineBlocking(c.get(), &line) || line.rfind("KGEVAL ", 0) != 0) {
        return false;
      }
    }
    return true;
  }

  /// Closed loop: every connection keeps exactly one EVAL in flight until
  /// `seconds` have passed; then the last replies drain. Throughput is the
  /// EVALs completed over the time from the first send to the last reply.
  PhaseStats ClosedLoop(double seconds, EvalMix* mix) {
    PhaseStats stats;
    const double t0 = NowSeconds();
    const double end = t0 + seconds;
    phase_start_ = t0;
    for (;;) {
      const double now = NowSeconds();
      bool outstanding = false;
      for (auto& c : conns_) {
        if (c->pending.empty() && now < end) {
          Request r = mix->Next();
          r.due = now - t0;
          if (!Send(c.get(), r)) return stats;
        }
        outstanding = outstanding || !c->pending.empty();
      }
      if (!outstanding) break;
      if (!PollOnce(0.1, &stats)) return stats;
    }
    stats.window_s = NowSeconds() - t0;
    return stats;
  }

  /// Open loop: sends `schedule` (EVALs on the first kOpenLoopEvalConns
  /// connections, least-outstanding first; PINGs on the last) at its due
  /// times whatever the replies do. Latency counts from the due time.
  PhaseStats OpenLoop(const std::vector<Request>& schedule) {
    PhaseStats stats;
    const double t0 = NowSeconds();
    phase_start_ = t0;
    size_t next = 0;
    const double hard_end =
        t0 + (schedule.empty() ? 0.0 : schedule.back().due) + 60.0;
    for (;;) {
      double now = NowSeconds();
      while (next < schedule.size() && schedule[next].due <= now - t0) {
        const Request& r = schedule[next];
        Conn* target = conns_.back().get();
        if (!r.ping) {
          target = conns_.front().get();
          for (size_t i = 0; i < kOpenLoopEvalConns; ++i) {
            if (conns_[i]->pending.size() < target->pending.size()) {
              target = conns_[i].get();
            }
          }
        }
        stats.late_ms.push_back(1e3 * (now - t0 - r.due));
        if (!Send(target, r)) return stats;
        ++next;
        now = NowSeconds();
      }
      bool outstanding = false;
      for (auto& c : conns_) outstanding = outstanding || !c->pending.empty();
      if (next == schedule.size() && !outstanding) break;
      if (now > hard_end) {
        report_->Fail("open-loop replies timed out");
        return stats;
      }
      const double wait =
          next < schedule.size() ? schedule[next].due - (now - t0) : 0.1;
      if (!PollOnce(std::max(0.0, wait), &stats)) return stats;
    }
    return stats;
  }

 private:
  bool Send(Conn* c, Request r) {
    const std::string line = RequestLine(r, *paths_) + "\n";
    report_->Attempt();
    size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::send(c->fd, line.data() + off, line.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        report_->Fail("send: " + std::string(strerror(errno)));
        return false;
      }
      off += static_cast<size_t>(n);
    }
    c->pending.push_back(r);
    return true;
  }

  bool ReadLineBlocking(Conn* c, std::string* line) {
    const double deadline = NowSeconds() + 30.0;
    while (NowSeconds() < deadline) {
      const size_t nl = c->in.find('\n');
      if (nl != std::string::npos) {
        *line = c->in.substr(0, nl);
        c->in.erase(0, nl + 1);
        return true;
      }
      struct pollfd p = {c->fd, POLLIN, 0};
      if (poll(&p, 1, 100) <= 0) continue;
      char buf[4096];
      const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      c->in.append(buf, static_cast<size_t>(n));
    }
    return false;
  }

  /// Waits up to `timeout_s` for replies and completes every full line.
  bool PollOnce(double timeout_s, PhaseStats* stats) {
    std::vector<struct pollfd> fds;
    for (auto& c : conns_) fds.push_back({c->fd, POLLIN, 0});
    struct timespec ts;
    ts.tv_sec = static_cast<time_t>(timeout_s);
    ts.tv_nsec = static_cast<long>((timeout_s - static_cast<double>(ts.tv_sec)) * 1e9);
    const int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      report_->Fail("ppoll failed");
      return false;
    }
    for (size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn* c = conns_[i].get();
      char buf[16384];
      const ssize_t n = ::recv(c->fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
        report_->Fail("connection closed by server");
        return false;
      }
      if (n < 0) continue;
      c->in.append(buf, static_cast<size_t>(n));
      const double now = NowSeconds();
      size_t nl;
      while ((nl = c->in.find('\n')) != std::string::npos) {
        const std::string line = c->in.substr(0, nl);
        c->in.erase(0, nl + 1);
        if (!LineClient::IsTerminal(line)) continue;
        if (c->pending.empty()) {
          report_->Fail("unsolicited reply: " + line);
          return false;
        }
        const Request r = c->pending.front();
        c->pending.pop_front();
        Complete(r, line, now, stats);
      }
    }
    return true;
  }

  void Complete(const Request& r, const std::string& line, double now,
                PhaseStats* stats) {
    const double latency_ms = 1e3 * (now - phase_start_ - r.due);
    Tracer::Get().Add(r.ping ? "net.ping" : "net.eval",
                      phase_start_ + r.due, now, r.id);
    if (line.rfind("OK", 0) != 0) {
      report_->Fail("served " + RequestLine(r, *paths_) + ": " + line);
      return;
    }
    if (r.ping) {
      stats->ping_ms.push_back(latency_ms);
      return;
    }
    stats->eval_ms.push_back(latency_ms);
    const std::string& want = (*expected_)[2 * r.ckpt + (r.adaptive ? 1 : 0)];
    const std::string got = ReplyFields(line, r.adaptive);
    report_->Gate("served_parity", got == want,
                  "served " + got + " direct " + want);
  }

  uint16_t port_;
  const std::vector<std::string>* paths_;
  const std::vector<std::string>* expected_;
  Report* report_;
  std::vector<std::unique_ptr<Conn>> conns_;
  double phase_start_ = 0.0;
};

/// Poisson arrivals on one fixed trace (kArrivalSeed): `evals` EVALs at
/// `rate` per second drawn from the seeded mix, and PINGs at the same rate
/// over the same span.
std::vector<Request> OpenLoopSchedule(uint64_t mix_seed, double rate,
                                      int evals, size_t num_ckpts) {
  Rng rng(kArrivalSeed);
  EvalMix mix(mix_seed, num_ckpts);
  std::vector<Request> out;
  double t = 0.0;
  for (int i = 0; i < evals; ++i) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    Request r = mix.Next();
    r.due = t;
    out.push_back(r);
  }
  const double span = t;
  t = 0.0;
  int64_t id = evals;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t > span) break;
    Request r;
    r.ping = true;
    r.due = t;
    r.id = id++;
    out.push_back(r);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Request& a, const Request& b) {
                     return a.due < b.due;
                   });
  return out;
}

/// LOADs the preset over a control connection and warms every checkpoint
/// with one fixed and one adaptive EVAL (parity-checked like the rest).
bool LoadAndWarm(uint16_t port, const std::string& preset,
                 const std::vector<std::string>& paths,
                 const std::vector<std::string>& expected, Report* report) {
  auto client_or = LineClient::Connect(kHost, port, 120.0);
  if (!client_or.ok()) {
    report->Fail("connect: " + client_or.status().ToString());
    return false;
  }
  LineClient client = std::move(client_or).ValueOrDie();
  auto banner = client.ReadLine();
  auto request = [&](const std::string& line) -> std::string {
    report->Attempt();
    if (!client.SendLine(line).ok()) return "ERR transport";
    auto reply = client.ReadReply();
    return reply.ok() ? reply.ValueOrDie().back() : "ERR transport";
  };
  if (!banner.ok()) return false;
  std::string load;
  {
    Span span("net.load");
    load = request("LOAD " + preset + " test");
  }
  if (load.rfind("OK", 0) != 0) {
    report->Fail("LOAD: " + load);
    return false;
  }
  Span span("net.warmup");
  for (size_t i = 0; i < paths.size(); ++i) {
    for (int adaptive = 0; adaptive < 2; ++adaptive) {
      Request r;
      r.ckpt = i;
      r.adaptive = adaptive == 1;
      const std::string reply = request(RequestLine(r, paths));
      report->Gate("served_parity",
                   reply.rfind("OK", 0) == 0 &&
                       ReplyFields(reply, r.adaptive) ==
                           expected[2 * i + static_cast<size_t>(adaptive)],
                   reply);
    }
  }
  client.SendLine("QUIT");
  return true;
}

}  // namespace

struct ServedPhase::Impl {
  Impl(const Workload& w, const Args& a, const Dataset& dataset,
       const HarnessModels& models, Report* r)
      : workload(w),
        args(a),
        paths(models.paths),
        expected(ExpectedReplies(dataset, models.paths)),
        report(r),
        mix(MixSeed(a.seed, 3), models.paths.size()),
        gen(0, paths, expected, r) {}

  const Workload& workload;
  const Args& args;
  const std::vector<std::string>& paths;
  const std::vector<std::string> expected;
  Report* report;
  ServerProcess server;
  EvalMix mix;
  LoadGenerator gen;
  bool ready = false;
  std::vector<Request> schedule;
  size_t scheduled = 0;  // Requests of `schedule` already sent.
  PhaseStats closed, open;
  ServedResults results;
};

ServedPhase::ServedPhase(const Workload& workload, const Args& args,
                         const Dataset& serve_dataset,
                         const HarnessModels& serve_models, Report* report)
    : impl_(std::make_unique<Impl>(workload, args, serve_dataset,
                                   serve_models, report)) {}

ServedPhase::~ServedPhase() = default;

bool ServedPhase::SetUp(int reps) {
  Impl& s = *impl_;
  const size_t threads = GlobalThreadPool()->num_threads();
  const std::string log = s.args.work_dir + "/server.log";
  for (int rep = 0; rep < reps; ++rep) {
    s.server.Stop();
    Span span("setup.server");
    const double start = NowSeconds();
    std::string error;
    {
      Span spawn("service.spawn");
      error = s.server.Start(s.args.server, threads, log);
    }
    if (!error.empty()) {
      s.report->Fail("kgeval-server: " + error);
      return false;
    }
    if (!LoadAndWarm(s.server.port(), s.workload.serve_preset, s.paths,
                     s.expected, s.report)) {
      return false;
    }
    s.results.setup_s.push_back(NowSeconds() - start);
  }
  s.gen = LoadGenerator(s.server.port(), s.paths, s.expected, s.report);
  if (!s.gen.Connect(kClosedLoopConns)) {
    s.report->Fail("load generator connect");
    return false;
  }
  const double open_s =
      std::max(0.0, (1.0 - s.workload.measured_share()) * s.args.seconds);
  int evals =
      static_cast<int>(std::lround(s.workload.open_loop_rate * open_s));
  if (!s.args.tiny) evals = std::max(evals, kMinOpenLoopEvals);
  evals = std::max(evals, 20);
  s.schedule = OpenLoopSchedule(MixSeed(s.args.seed, 4),
                                s.workload.open_loop_rate, evals,
                                s.paths.size());
  s.ready = true;
  return true;
}

void ServedPhase::RunSlice(int slice, int slices) {
  Impl& s = *impl_;
  if (!s.ready) return;
  {
    Span span("phase.closed_loop");
    const PhaseStats st = s.gen.ClosedLoop(
        s.workload.closed_loop_share * s.args.seconds / slices, &s.mix);
    s.closed.window_s += st.window_s;
    s.closed.eval_ms.insert(s.closed.eval_ms.end(), st.eval_ms.begin(),
                            st.eval_ms.end());
  }
  // The next contiguous segment of the one seeded schedule, re-based to
  // start now.
  const size_t end = s.schedule.size() * static_cast<size_t>(slice + 1) /
                     static_cast<size_t>(slices);
  std::vector<Request> segment(s.schedule.begin() + s.scheduled,
                               s.schedule.begin() + end);
  const double origin = s.scheduled == 0 ? 0.0 : s.schedule[s.scheduled - 1].due;
  for (Request& r : segment) r.due -= origin;
  s.scheduled = end;
  Span span("phase.open_loop");
  const PhaseStats st = s.gen.OpenLoop(segment);
  s.open.eval_ms.insert(s.open.eval_ms.end(), st.eval_ms.begin(),
                        st.eval_ms.end());
  s.open.ping_ms.insert(s.open.ping_ms.end(), st.ping_ms.begin(),
                        st.ping_ms.end());
  s.open.late_ms.insert(s.open.late_ms.end(), st.late_ms.begin(),
                        st.late_ms.end());
}

ServedResults ServedPhase::Finish() {
  Impl& s = *impl_;
  if (!s.ready) return s.results;
  Report* report = s.report;
  const PhaseStats& closed = s.closed;
  const PhaseStats& open = s.open;
  if (closed.window_s > 0.0) {
    report->Set("evals_per_s",
                static_cast<double>(closed.eval_ms.size()) / closed.window_s);
  }
  EvalMix replay(MixSeed(s.args.seed, 3), s.paths.size());
  for (size_t i = 0; i < closed.eval_ms.size(); ++i) {
    s.results.replay_lines.push_back(RequestLine(replay.Next(), s.paths));
  }
  std::printf("served: closed loop %zu EVALs in %.1f s; open loop %zu EVALs "
              "+ %zu PINGs at %.0f EVAL/s: EVAL p50 %.3f p99 %.3f ms, PING "
              "p99 %.3f ms, generator late p50 %.3f p99 %.3f max %.3f ms\n",
              closed.eval_ms.size(), closed.window_s, open.eval_ms.size(),
              open.ping_ms.size(), s.workload.open_loop_rate,
              Percentile(open.eval_ms, 0.5), Percentile(open.eval_ms, 0.99),
              Percentile(open.ping_ms, 0.99), Percentile(open.late_ms, 0.5),
              Percentile(open.late_ms, 0.99), Percentile(open.late_ms, 1.0));
  s.results.eval_p50_ms = Percentile(open.eval_ms, 0.50);
  report->Set("net.eval_p50_ms", s.results.eval_p50_ms);
  report->Set("net.eval_p99_ms", Percentile(open.eval_ms, 0.99));
  report->Set("net.ping_p99_ms", Percentile(open.ping_ms, 0.99));
  report->Set("loadgen.late_p99_ms", Percentile(open.late_ms, 0.99));

  // Server-side counters. A shed, error or deadline also came back as an
  // ERR reply, which already failed its request.
  auto client = LineClient::Connect(kHost, s.server.port(), 30.0);
  std::string stats_line;
  if (client.ok() && client.ValueOrDie().ReadLine().ok() &&
      client.ValueOrDie().SendLine("STATS").ok()) {
    auto reply = client.ValueOrDie().ReadReply();
    if (reply.ok()) stats_line = reply.ValueOrDie().back();
  }
  auto kv = ParseKeyValues(stats_line);
  if (stats_line.rfind("OK", 0) != 0) {
    report->Fail("STATS: " + stats_line);
  } else {
    for (const char* key : {"shed", "errors", "deadlines"}) {
      report->Set(std::string("service.stats.") + key,
                  std::atof(kv[key].c_str()));
    }
  }
  report->Set("server_peak_rss_mb", s.server.PeakRssMb());
  s.server.Stop();
  return s.results;
}

}  // namespace perfbench

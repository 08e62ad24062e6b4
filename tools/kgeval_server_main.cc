// kgeval-server: the evaluation service daemon. Binds the port, prints
// "LISTENING <port>" (scripts parse this — with --port=0 it is the only
// way to learn the bound port), then serves until SIGINT/SIGTERM.
//
// The wire protocol is documented in docs/PROTOCOL.md; the architecture in
// docs/ARCHITECTURE.md. Smallest useful session:
//
//   $ kgeval-server --port=7471 --preload=codex-s &
//   $ printf 'EVAL /tmp/ckpt/epoch_00003.ckpt\nQUIT\n' | nc 127.0.0.1 7471

#include <signal.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "la/kernels/kernels.h"
#include "service/eval_server.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace {

using namespace kgeval;

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host=ADDR] [--port=N] [--threads=N] "
               "[--executors=N] [--preload=DATASET] [--deadline=S]\n"
               "       [--idle-timeout=S] [--max-queued=N]\n"
               "  --host=ADDR       bind address (default 127.0.0.1)\n"
               "  --port=N          TCP port; 0 picks an ephemeral one "
               "(default 7471)\n"
               "  --threads=N       worker-pool width (default: "
               "KGEVAL_THREADS, then hardware)\n"
               "  --executors=N     concurrent command cap (default: "
               "max(2, threads))\n"
               "  --preload=NAME    run LOAD <NAME> before accepting "
               "traffic\n"
               "  --deadline=S      per-command deadline for EVAL/SWEEP/"
               "WATCH, seconds (default 0 = none)\n"
               "  --idle-timeout=S  close connections idle this long "
               "(default 0 = never)\n"
               "  --max-queued=N    executor backlog before ERR busy "
               "(default 256, 0 = unlimited)\n"
               "Numeric values must be plain non-negative decimals in range "
               "for their flag.\n"
               "\n"
               "KGEVAL_KERNELS=NAME forces a score-kernel implementation: "
               "scalar, avx2 or\n"
               "avx512 (auto or unset probes the CPU).\n"
               "KGEVAL_FAULTS=<spec> arms fault-injection points at "
               "startup (testing only; see docs/ARCHITECTURE.md).\n",
               argv0);
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

/// Parses all of `text` as a decimal integer in range for the unsigned
/// field T. Rejects an empty string, a sign, whitespace, trailing
/// characters and overflow.
template <typename T>
bool ParseCount(const std::string& text, T* out) {
  T value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

/// Parses all of `text` as a finite, non-negative number of seconds.
bool ParseSeconds(const std::string& text, double* out) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
      value < 0.0) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  EvalServer::Options options;
  options.port = 7471;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    // Every numeric flag is parsed strictly: a malformed or out-of-range
    // value is a usage error, never a silently truncated number.
    bool ok = true;
    if (ParseFlag(argv[i], "--host", &value)) {
      options.host = value;
    } else if (ParseFlag(argv[i], "--port", &value)) {
      ok = ParseCount(value, &options.port);
    } else if (ParseFlag(argv[i], "--threads", &value)) {
      size_t threads = 0;
      ok = ParseCount(value, &threads);
      if (ok) SetGlobalThreadPoolThreads(threads);
    } else if (ParseFlag(argv[i], "--executors", &value)) {
      ok = ParseCount(value, &options.executor_threads);
    } else if (ParseFlag(argv[i], "--preload", &value)) {
      options.preload_dataset = value;
    } else if (ParseFlag(argv[i], "--deadline", &value)) {
      ok = ParseSeconds(value, &options.deadline_s);
    } else if (ParseFlag(argv[i], "--idle-timeout", &value)) {
      ok = ParseSeconds(value, &options.idle_timeout_s);
    } else if (ParseFlag(argv[i], "--max-queued", &value)) {
      ok = ParseCount(value, &options.max_queued_commands);
    } else {
      ok = false;
    }
    if (!ok) {
      Usage(argv[0]);
      return 2;
    }
  }

  // Chaos harnesses arm fault points through the environment; a typo in
  // the spec must fail loudly at startup, not silently inject nothing.
  {
    Status faults = ArmFaultsFromEnv();
    if (!faults.ok()) {
      std::fprintf(stderr, "kgeval-server: KGEVAL_FAULTS: %s\n",
                   faults.ToString().c_str());
      return 2;
    }
  }

  // The selected dispatch path, logged once at startup: benchmark logs and
  // bug reports need to say which ISA actually scored. Resolving it here,
  // before Start, makes a bad KGEVAL_KERNELS stop the server before it
  // binds the port or starts a thread.
  KGEVAL_LOG(Info) << "score kernels: " << ActiveScoreKernelName();

  // Block the termination signals before any thread exists, so every
  // thread inherits the mask and sigwait below is the one consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);
  signal(SIGPIPE, SIG_IGN);  // Broken clients must not kill the server.

  // --preload runs inside Start(), before the accept loop exists, so a
  // client connecting after LISTENING can never see a no-dataset window.
  auto server = EvalServer::Start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "kgeval-server: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  EvalServer& s = *server.ValueOrDie();
  std::printf("LISTENING %u\n", s.port());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  KGEVAL_LOG(Info) << "signal " << sig << ": shutting down";
  s.Shutdown();
  return 0;
}

#include "la/kernels/kernels.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "la/kernels/kernel_impls.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace kgeval {
namespace {

struct Registered {
  const ScoreKernels* kernels;
  bool (*supported)();  // CPU probe.
};

bool AlwaysSupported() { return true; }

std::string JoinNames(const std::vector<std::string>& names) {
  std::string joined;
  for (const std::string& name : names) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

/// Every table compiled into this binary, widest first: auto-selection
/// walks this in order and takes the first supported entry. The scalar
/// baseline terminates the walk.
const Registered kRegistry[] = {
#if defined(KGEVAL_X86_SIMD_KERNELS)
    {kernel_impls::Avx512Kernels(), kernel_impls::Avx512Supported},
    {kernel_impls::Avx2Kernels(), kernel_impls::Avx2Supported},
#endif
    {&ScalarScoreKernels(), AlwaysSupported},
};

const ScoreKernels* FindCompiled(const std::string& name) {
  for (const Registered& r : kRegistry) {
    if (name == r.kernels->name) return r.kernels;
  }
  return nullptr;
}

bool IsSupported(const ScoreKernels* kernels) {
  for (const Registered& r : kRegistry) {
    if (r.kernels == kernels) return r.supported();
  }
  return false;
}

const ScoreKernels* ProbeWidest() {
  for (const Registered& r : kRegistry) {
    if (r.supported()) return r.kernels;
  }
  return &ScalarScoreKernels();  // Unreachable: scalar is always registered.
}

/// The active table. Selection happens once (env override or CPU probe) and
/// then only via SelectScoreKernels; reads on the scoring hot path are one
/// relaxed atomic load.
std::atomic<const ScoreKernels*> g_active{nullptr};
std::once_flag g_init_once;

void InitActive() {
  const char* env = std::getenv("KGEVAL_KERNELS");
  if (env != nullptr && env[0] != '\0') {
    const Status status = SelectScoreKernels(env);
    // A forced kernel run (CI parity legs) must never fall back silently to
    // a different path than the one under test.
    KGEVAL_CHECK(status.ok())
        << "KGEVAL_KERNELS=" << env << ": " << status.message();
    return;
  }
  g_active.store(ProbeWidest(), std::memory_order_release);
}

}  // namespace

std::vector<std::string> CompiledScoreKernelNames() {
  std::vector<std::string> names;
  for (const Registered& r : kRegistry) names.push_back(r.kernels->name);
  return names;
}

std::vector<std::string> SupportedScoreKernelNames() {
  std::vector<std::string> names;
  for (const Registered& r : kRegistry) {
    if (r.supported()) names.push_back(r.kernels->name);
  }
  return names;
}

const ScoreKernels& ActiveScoreKernels() {
  const ScoreKernels* active = g_active.load(std::memory_order_acquire);
  if (active == nullptr) {
    std::call_once(g_init_once, InitActive);
    active = g_active.load(std::memory_order_acquire);
  }
  return *active;
}

const char* ActiveScoreKernelName() { return ActiveScoreKernels().name; }

Status SelectScoreKernels(const std::string& name) {
  if (name.empty() || name == "auto") {
    g_active.store(ProbeWidest(), std::memory_order_release);
    return Status::OK();
  }
  const ScoreKernels* kernels = FindCompiled(name);
  if (kernels == nullptr) {
    return Status::InvalidArgument(StrFormat(
        "unknown kernel path '%s' (compiled: %s)", name.c_str(),
        JoinNames(CompiledScoreKernelNames()).c_str()));
  }
  if (!IsSupported(kernels)) {
    return Status::InvalidArgument(StrFormat(
        "kernel path '%s' is compiled in but this CPU does not support it",
        name.c_str()));
  }
  g_active.store(kernels, std::memory_order_release);
  return Status::OK();
}

}  // namespace kgeval

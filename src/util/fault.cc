#include "util/fault.h"

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/mutex.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"

namespace kgeval {

namespace {

/// The registered probe names. Adding a probe site means adding its name
/// here AND documenting it in docs/ARCHITECTURE.md ("Fault points") —
/// kgeval_lint's `fault-doc` rule cross-checks the two.
const char* const kFaultPoints[] = {
    "io.checkpoint.open",     // checkpoint.cc: LoadModel open fails
    "io.checkpoint.read",     // checkpoint.cc: parameter read truncated
    "io.checkpoint.write",    // checkpoint.cc: SaveModel flush fails
    "net.loop.poll",          // event_loop.cc: poller returns injected errno
    "net.recv.close",         // connection.cc: peer vanishes mid-line
    "net.send.eagain",        // connection.cc: send would block this flush
    "net.send.short_write",   // connection.cc: send accepts one byte
    "sched.task.delay",       // task_group.cc: task start delayed
};

struct PointState {
  FaultSpec spec;
  int64_t hits = 0;   // Probe evaluations since arming.
  int64_t fired = 0;  // Hits that actually triggered.
};

struct Registry {
  Mutex mutex;
  std::unordered_map<std::string, PointState> armed KGEVAL_GUARDED_BY(mutex);
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

bool IsKnownPoint(const std::string& point) {
  for (const char* name : kFaultPoints) {
    if (point == name) return true;
  }
  return false;
}

/// Parses all of `value` as a decimal that fits T: no whitespace, no '+',
/// and an out-of-range value fails instead of saturating or wrapping.
template <class T>
bool ParseWhole(const std::string& value, T* out) {
  const char* end = value.data() + value.size();
  T parsed{};
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc() || ptr != end) return false;
  *out = parsed;
  return true;
}

bool ParseErrnoName(const std::string& value, int* out) {
  static const std::pair<const char*, int> kNames[] = {
      {"EIO", EIO},         {"ENOENT", ENOENT}, {"EAGAIN", EAGAIN},
      {"EPIPE", EPIPE},     {"ENOMEM", ENOMEM}, {"ECONNRESET", ECONNRESET},
      {"EBADF", EBADF},     {"EINVAL", EINVAL},
  };
  for (const auto& [name, number] : kNames) {
    if (value == name) {
      *out = number;
      return true;
    }
  }
  int n = 0;
  if (!ParseWhole(value, &n) || n <= 0) return false;
  *out = n;
  return true;
}

Status ParseDirectives(const std::string& point, const std::string& list,
                       FaultSpec* spec) {
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string directive = list.substr(start, comma - start);
    start = comma + 1;
    if (directive.empty()) continue;
    const size_t eq = directive.find('=');
    const std::string key =
        eq == std::string::npos ? directive : directive.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? std::string() : directive.substr(eq + 1);
    int64_t n = 0;
    if (key == "once") {
      spec->count = 1;
    } else if (key == "always") {
      spec->count = -1;
    } else if (key == "nth") {
      if (!ParseWhole(value, &n) || n < 1) {
        return Status::InvalidArgument(
            StrFormat("%s: nth wants a positive integer, got '%s'",
                      point.c_str(), value.c_str()));
      }
      spec->skip = n - 1;
      spec->count = 1;
    } else if (key == "skip") {
      if (!ParseWhole(value, &n) || n < 0) {
        return Status::InvalidArgument(StrFormat(
            "%s: skip wants a non-negative integer, got '%s'", point.c_str(),
            value.c_str()));
      }
      spec->skip = n;
    } else if (key == "count") {
      if (!ParseWhole(value, &n) || (n < 1 && n != -1)) {
        return Status::InvalidArgument(
            StrFormat("%s: count wants a positive integer or -1, got '%s'",
                      point.c_str(), value.c_str()));
      }
      spec->count = n;
    } else if (key == "errno") {
      if (!ParseErrnoName(value, &spec->inject_errno)) {
        return Status::InvalidArgument(StrFormat(
            "%s: unknown errno '%s'", point.c_str(), value.c_str()));
      }
    } else if (key == "delay_ms") {
      if (!ParseWhole(value, &spec->delay_ms) || spec->delay_ms < 0) {
        return Status::InvalidArgument(StrFormat(
            "%s: delay_ms wants a non-negative integer, got '%s'",
            point.c_str(), value.c_str()));
      }
      spec->kind = FaultSpec::Kind::kDelay;
    } else {
      return Status::InvalidArgument(StrFormat(
          "%s: unknown directive '%s'", point.c_str(), directive.c_str()));
    }
  }
  return Status::OK();
}

}  // namespace

namespace fault_internal {

std::atomic<int> armed_points{0};

bool Evaluate(const char* point, int* out_errno) {
  FaultSpec spec;
  {
    Registry& registry = GetRegistry();
    MutexLock lock(&registry.mutex);
    auto it = registry.armed.find(point);
    if (it == registry.armed.end()) return false;
    PointState& state = it->second;
    ++state.hits;
    if (state.hits <= state.spec.skip) return false;
    if (state.spec.count >= 0 && state.fired >= state.spec.count) {
      return false;
    }
    ++state.fired;
    spec = state.spec;
  }
  if (spec.kind == FaultSpec::Kind::kDelay) {
    // Sleep outside the registry lock: a delayed task must not serialize
    // every other probe in the process behind its nap.
    std::this_thread::sleep_for(std::chrono::milliseconds(spec.delay_ms));
    return false;
  }
  if (out_errno != nullptr) *out_errno = spec.inject_errno;
  return true;
}

}  // namespace fault_internal

void ArmFault(const std::string& point, const FaultSpec& spec) {
  KGEVAL_CHECK(IsKnownPoint(point))
      << "unknown fault point '" << point
      << "' (see kFaultPoints in util/fault.cc)";
  Registry& registry = GetRegistry();
  MutexLock lock(&registry.mutex);
  const bool fresh = registry.armed.find(point) == registry.armed.end();
  registry.armed[point] = PointState{spec, 0, 0};
  if (fresh) {
    fault_internal::armed_points.fetch_add(1, std::memory_order_relaxed);
  }
}

void DisarmAllFaults() {
  Registry& registry = GetRegistry();
  MutexLock lock(&registry.mutex);
  fault_internal::armed_points.fetch_sub(
      static_cast<int>(registry.armed.size()), std::memory_order_relaxed);
  registry.armed.clear();
}

int64_t FaultTriggerCount(const std::string& point) {
  Registry& registry = GetRegistry();
  MutexLock lock(&registry.mutex);
  auto it = registry.armed.find(point);
  return it == registry.armed.end() ? 0 : it->second.fired;
}

Status ArmFaultsFromSpec(const std::string& spec) {
  // Parse everything before arming anything: a bad entry must not leave
  // half the spec live.
  std::vector<std::pair<std::string, FaultSpec>> parsed;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t semi = spec.find(';', start);
    if (semi == std::string::npos) semi = spec.size();
    const std::string entry = spec.substr(start, semi - start);
    start = semi + 1;
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(StrFormat(
          "fault entry '%s' is missing '=directives'", entry.c_str()));
    }
    const std::string point = entry.substr(0, eq);
    if (!IsKnownPoint(point)) {
      return Status::InvalidArgument(
          StrFormat("unknown fault point '%s'", point.c_str()));
    }
    FaultSpec fault;
    KGEVAL_RETURN_NOT_OK(ParseDirectives(point, entry.substr(eq + 1), &fault));
    parsed.emplace_back(point, fault);
  }
  for (const auto& [point, fault] : parsed) ArmFault(point, fault);
  return Status::OK();
}

Status ArmFaultsFromEnv() {
  const char* spec = std::getenv("KGEVAL_FAULTS");
  if (spec == nullptr || spec[0] == '\0') return Status::OK();
  return ArmFaultsFromSpec(spec);
}

}  // namespace kgeval

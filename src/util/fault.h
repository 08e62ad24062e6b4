#ifndef KGEVAL_UTIL_FAULT_H_
#define KGEVAL_UTIL_FAULT_H_

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace kgeval {

/// Fault injection: named probe points compiled into the I/O, network, and
/// scheduler layers that tests (and the KGEVAL_FAULTS environment spec) can
/// arm to simulate the failures integration tests cannot produce on demand
/// — a checkpoint vanishing mid-sweep, a socket accepting one byte per
/// send, poll(2) returning ENOMEM. Disarmed — the production state —
/// every probe costs a single relaxed atomic load and a predicted branch.
///
/// A probe site calls FaultPoint("name") (optionally receiving an injected
/// errno) and fails itself when it returns true; kDelay faults sleep inside
/// the call and always return false, so delay probes need no handling at
/// the site. The registered names live in kFaultPoints (util/fault.cc);
/// arming an unknown name is a programmer error. docs/ARCHITECTURE.md ("Fault
/// points") documents each probe and the chaos-test invariant behind it.
///
/// Thread-safe: probes fire from loop threads, executor threads, and pool
/// workers concurrently; arming/disarming may race with probes (the
/// registry is mutex-guarded past the armed-count fast path).
struct FaultSpec {
  enum class Kind {
    /// The probe site fails with `inject_errno` semantics.
    kFail,
    /// The probe sleeps `delay_ms` and the site proceeds normally.
    kDelay,
  };
  Kind kind = Kind::kFail;
  /// Hits skipped before the fault starts firing (`nth=N` arms skip=N-1:
  /// the Nth hit is the first to fire).
  int64_t skip = 0;
  /// Fired hits before the fault stops firing; -1 = unlimited. The default
  /// is fail-once.
  int64_t count = 1;
  /// errno reported through FaultPoint's out parameter on a fired kFail
  /// hit.
  int inject_errno = EIO;
  /// Sleep per fired kDelay hit.
  int delay_ms = 0;
};

/// Arms `point` with `spec`, replacing any previous arming (and resetting
/// its hit counters). Dies if `point` is not a registered name.
void ArmFault(const std::string& point, const FaultSpec& spec);

/// Disarms every point: the test-teardown call that guarantees no fault
/// leaks into the next test.
void DisarmAllFaults();

/// Times `point` has actually fired (delay sleeps count) since it was last
/// armed; 0 when not armed. Lets tests assert a fault was exercised.
int64_t FaultTriggerCount(const std::string& point);

/// Arms faults from a spec string: `;`-separated `point=directives`
/// entries, each directive list `,`-separated from: `once` (default),
/// `always`, `nth=N`, `skip=N`, `count=N`, `errno=<EIO|ENOENT|EAGAIN|
/// EPIPE|ENOMEM|ECONNRESET|integer>`, `delay_ms=N` (selects kDelay).
/// Example: `io.checkpoint.read=nth=2;net.send.short_write=always`.
/// Unknown points or malformed directives return InvalidArgument with
/// nothing armed.
Status ArmFaultsFromSpec(const std::string& spec);

/// ArmFaultsFromSpec(getenv("KGEVAL_FAULTS")); OK when unset or empty.
Status ArmFaultsFromEnv();

namespace fault_internal {
/// Count of armed points; the disarmed fast path is one relaxed load of
/// this being zero.
extern std::atomic<int> armed_points;
bool Evaluate(const char* point, int* out_errno);
}  // namespace fault_internal

/// The probe. Returns true when the site should fail (kFail fired);
/// `*out_errno` then holds the injected errno. kDelay faults sleep inside
/// and return false.
inline bool FaultPoint(const char* point, int* out_errno = nullptr) {
  if (fault_internal::armed_points.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  return fault_internal::Evaluate(point, out_errno);
}

}  // namespace kgeval

#endif  // KGEVAL_UTIL_FAULT_H_

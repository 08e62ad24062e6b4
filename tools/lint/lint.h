#ifndef KGEVAL_TOOLS_LINT_LINT_H_
#define KGEVAL_TOOLS_LINT_LINT_H_

#include <string>
#include <vector>

/// kgeval_lint: the repo-invariant checker. Generic tools (compilers,
/// clang-tidy, sanitizers) cannot know this repo's contracts — that SIMD
/// intrinsics live only behind the runtime dispatcher, that evaluation is
/// deterministic by construction, that the wire doc lists every ERR code
/// the service can emit. Each such contract is a named rule here; the
/// checker runs as a ctest and as a CI job, so drifting from an invariant
/// fails the build with the rule id and the offending line.
///
/// Rules (ids are stable; used in suppressions and in the docs table):
///  - simd-containment: no <immintrin.h>/<x86intrin.h>/<arm_neon.h> and no
///    `target` function attributes outside src/la/kernels/ — ISA-specific
///    code exists only behind the runtime kernel dispatcher, so one binary
///    keeps running (and stays bit-parity-testable) on every CPU.
///  - thread-containment: no raw std::thread outside src/sched + src/util
///    + src/net, and no detached threads anywhere — every thread must be
///    owned by the scheduler/pool/loop layers that know how to join it.
///  - determinism: no std::rand/srand/random_device/time( in src/ — all
///    randomness flows from seeded kgeval RNGs and all clocks through
///    steady_clock, or bit-exact reproducibility dies.
///  - fp-drift: no -ffast-math / float_control / FP_CONTRACT pragmas /
///    fp-contract settings other than =off in src/ or CMakeLists.txt — the
///    bit-parity invariant (scalar == batched == SIMD ranks) rests on
///    strict IEEE evaluation order.
///  - stats-doc: every key=value field the STATS verb emits
///    (eval_service.cc, ExecuteStats) is documented in docs/PROTOCOL.md.
///  - err-doc: every ERR code the service can emit (EmitError calls,
///    literal "ERR <code>" sends, command.cc parse failures) appears
///    backticked in docs/PROTOCOL.md's error-code table.
///  - fault-doc: every fault point registered in util/fault.cc appears
///    backticked in docs/ARCHITECTURE.md ("Fault points").
///  - module-reach: every src/**/*.h is reached, through quoted #includes
///    (following each reached header's paired .cc), from a source under
///    bench/, perfbench/, tools/ (not tools/lint) or examples/ — a module
///    only tests reach feeds no printed number and goes.
///  - nolint-reason: every clang-tidy NOLINT in src/ names its check and
///    carries a reason: `NOLINT(check): reason` — blanket or bare NOLINTs
///    silently disable unknown future findings.
///  - suppression-reason: every kgeval-lint suppression carries a reason
///    (see below); enforced by the suppression parser itself.
///
/// Suppressions: a comment anywhere on a line
///   kgeval-lint: allow(<rule-id>): <reason>
/// suppresses <rule-id> on that line and the next (so the comment can sit
/// above the offending declaration), and
///   kgeval-lint: allow-file(<rule-id>): <reason>
/// suppresses it for the whole file. The reason is mandatory.
namespace kgeval {
namespace lint {

struct Finding {
  std::string rule;     // Stable rule id, e.g. "simd-containment".
  std::string file;     // Repo-relative path (or the fixture name).
  int line = 0;         // 1-based; 0 for whole-file findings.
  std::string message;  // Human-readable explanation.
};

struct RuleInfo {
  const char* id;
  const char* summary;
};

/// Every rule id with a one-line summary, for --list and the docs table.
const std::vector<RuleInfo>& Rules();

/// Runs the file-scoped rules (simd/thread containment, determinism,
/// fp-drift, nolint-reason, suppression hygiene) on one file's content.
/// `relpath` decides containment (forward slashes, repo-relative, e.g.
/// "src/eval/foo.cc"); CMake files get the fp-drift rule only.
std::vector<Finding> LintSourceFile(const std::string& relpath,
                                    const std::string& content);

/// Runs the cross-file rules (stats-doc, err-doc, fault-doc,
/// module-reach) against a tree root. Rules whose inputs are absent under
/// `root` are skipped, so fixture trees can exercise one rule at a time.
std::vector<Finding> LintDocConsistency(const std::string& root);

/// The whole repo: every .h/.cc/.cpp/.inc under root/src plus
/// root/CMakeLists.txt through the file rules, then the doc-consistency
/// rules. Findings are sorted (file, line, rule) for stable output.
std::vector<Finding> LintRepo(const std::string& root);

}  // namespace lint
}  // namespace kgeval

#endif  // KGEVAL_TOOLS_LINT_LINT_H_

#ifndef KGEVAL_LA_KERNELS_KERNELS_H_
#define KGEVAL_LA_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace kgeval {

/// One implementation of the scoring core's hot loops, selected once at
/// startup by a CPU-feature probe (overridable with KGEVAL_KERNELS=<name> or
/// a server/bench --kernels flag). Every binary carries every implementation
/// its compiler could emit — on x86-64 the wide paths are one query-blocked
/// sweep (simd_sweep.inc) compiled once per ISA in its own translation unit
/// behind `target` attributes, so even a KGEVAL_NATIVE=OFF build dispatches
/// to AVX2/AVX-512 at runtime when the CPU has them. Adding an ISA is one
/// `Isa` description plus one registry line (kernels.cc).
///
/// `gather_t` builds a transposed candidate tile (`dim` rows by `n`
/// contiguous candidate lanes, CandidateBlock::gathered_t); the three scoring
/// kernels score `nq` query rows against such a tile: out[q * n + c] is
/// query q's score of candidate c.
///
/// Bit-exactness contract (the repo's rank-parity bar): the gather is a pure
/// copy, so every implementation writes the same bits, NaN payloads
/// included. Every scoring kernel treats candidates as independent lanes and
/// accumulates over the dim axis in exactly the scalar reference's order,
/// one rounded multiply then one rounded add per step (never an FMA), with
/// IEEE-exact sqrt/fabs. Every implementation therefore produces
/// bit-identical output for every cell, so ranks, MRR, and served bytes do
/// not depend on which ISA ran.
struct ScoreKernels {
  const char* name;

  /// out[q * n + c] = sum_k queries[q * dim + k] * tile[k * n + c].
  void (*dot)(const float* queries, size_t nq, size_t dim, const float* tile,
              size_t n, float* out);

  /// out[q * n + c] = -sum_k |queries[q * dim + k] - tile[k * n + c]|.
  void (*neg_l1)(const float* queries, size_t nq, size_t dim,
                 const float* tile, size_t n, float* out);

  /// out[q * n + c] = -sum_j sqrt(dre^2 + dim^2 + eps) over the m = dim / 2
  /// complex coordinates, with tile rows [0, m) the real plane and [m, dim)
  /// the imaginary plane.
  void (*neg_complex_dist)(const float* queries, size_t nq, size_t dim,
                           const float* tile, size_t n, float eps, float* out);

  /// out[k * n + c] = table[ids[c] * cols + k] for k < cols and c < n:
  /// rows ids[0, n) of a row-major table with `cols` columns, written as
  /// the transposed cols x n tile the kernels above read. Ids may repeat
  /// and come in any order.
  void (*gather_t)(const float* table, size_t cols, const int32_t* ids,
                   size_t n, float* out);
};

/// The portable baseline, compiled with the build's default flags. Always
/// available; the reference every other implementation must match bit-exactly.
const ScoreKernels& ScalarScoreKernels();

/// Names of every implementation compiled into this binary, widest first
/// (e.g. {"avx512", "avx2", "scalar"} on an x86-64 build).
std::vector<std::string> CompiledScoreKernelNames();

/// The subset of CompiledScoreKernelNames() the running CPU supports.
std::vector<std::string> SupportedScoreKernelNames();

/// The active implementation. First use auto-selects: KGEVAL_KERNELS=<name>
/// forces a path (the process aborts on an unknown or unsupported name —
/// a forced parity run must never fall back silently), otherwise the widest
/// supported path wins.
const ScoreKernels& ActiveScoreKernels();

/// ActiveScoreKernels().name, for logs, STATS, and bench JSON.
const char* ActiveScoreKernelName();

/// Installs the named implementation ("auto" or "" re-probes the CPU and
/// takes the widest supported path, ignoring KGEVAL_KERNELS). Unknown or
/// unsupported names return InvalidArgument and leave the active table
/// unchanged. Not thread-safe against concurrent scoring: select at startup
/// (the server's --kernels flag) or in a serial test, not mid-evaluation.
Status SelectScoreKernels(const std::string& name);

}  // namespace kgeval

#endif  // KGEVAL_LA_KERNELS_KERNELS_H_

#ifndef KGEVAL_LA_KERNELS_KERNELS_H_
#define KGEVAL_LA_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace kgeval {

/// Candidate lanes per tile stride step: a 64-byte cache line of floats,
/// one AVX-512 vector, two AVX2 vectors.
constexpr size_t kTileLanes = 16;

/// The row stride of an n-candidate tile: n rounded up to kTileLanes.
constexpr size_t TileStride(size_t n) {
  return (n + kTileLanes - 1) / kTileLanes * kTileLanes;
}

/// One implementation of the scoring core's hot loops, selected once at
/// startup by a CPU-feature probe (overridable with KGEVAL_KERNELS=<name>).
/// Every binary carries every implementation its compiler could emit — on
/// x86-64 the wide paths are one query-blocked sweep (simd_sweep.inc)
/// compiled once per ISA in its own translation unit behind `target`
/// attributes, so even a KGEVAL_NATIVE=OFF build dispatches to AVX2/AVX-512
/// at runtime when the CPU has them. Adding an ISA is one `Isa` description
/// plus one registry line (kernels.cc).
///
/// Tile contract. `gather_t` builds a transposed candidate tile
/// (CandidateBlock::gathered_t): `dim` rows of `n` candidate lanes, each
/// row TileStride(n) floats long. The lanes [n, TileStride(n)) of every row
/// are padding, a copy of the last real candidate, so a kernel can load
/// whole vectors to the end of every row and never needs a masked load.
/// The three scoring kernels score `nq` query rows against such a tile,
/// reading its rows at that stride: out[q * n + c] is query q's score of
/// candidate c, so the output has no padding and its last strip ends in a
/// masked store. A prepared tile also starts on a 64-byte boundary
/// (Matrix), which with the padded stride puts every row on a cache line;
/// the kernels still use unaligned loads, so a caller's plain buffer with
/// n a multiple of 16 (stride n) is a valid tile too.
///
/// Bit-exactness contract (the repo's rank-parity bar): the gather is a pure
/// copy, so every implementation writes the same bits, NaN payloads
/// included, padding lanes too. Every scoring kernel treats candidates as
/// independent lanes and accumulates over the dim axis in exactly the
/// scalar reference's order, one rounded multiply then one rounded add per
/// step (the accumulation never uses an FMA), with IEEE-exact sqrt/fabs;
/// no padding lane reaches an output cell. The one FMA user is the AVX-512
/// complex distance's SqrtFma (kernel_impls.h), a square root equal to
/// VSQRTPS bit for bit on every input. Every implementation therefore
/// produces bit-identical output for every cell, so ranks, MRR, and served
/// bytes do not depend on which ISA ran.
struct ScoreKernels {
  const char* name;

  /// out[q * n + c] = sum_k queries[q * dim + k] * tile[k * ld + c], with
  /// ld = TileStride(n) here and below.
  void (*dot)(const float* queries, size_t nq, size_t dim, const float* tile,
              size_t n, float* out);

  /// out[q * n + c] = -sum_k |queries[q * dim + k] - tile[k * ld + c]|.
  void (*neg_l1)(const float* queries, size_t nq, size_t dim,
                 const float* tile, size_t n, float* out);

  /// out[q * n + c] = -sum_j sqrt(dre^2 + dim^2 + eps) over the m = dim / 2
  /// complex coordinates, with tile rows [0, m) the real plane and [m, dim)
  /// the imaginary plane.
  void (*neg_complex_dist)(const float* queries, size_t nq, size_t dim,
                           const float* tile, size_t n, float eps, float* out);

  /// out[k * ld + c] = table[ids[min(c, n - 1)] * cols + k] for k < cols
  /// and c < ld = TileStride(n): rows ids[0, n) of a row-major table with
  /// `cols` columns, written as the transposed, padded tile the kernels
  /// above read. Ids may repeat and come in any order.
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
/// or in a serial test, not mid-evaluation.
Status SelectScoreKernels(const std::string& name);

}  // namespace kgeval

#endif  // KGEVAL_LA_KERNELS_KERNELS_H_

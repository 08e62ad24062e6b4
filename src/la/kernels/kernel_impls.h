#ifndef KGEVAL_LA_KERNELS_KERNEL_IMPLS_H_
#define KGEVAL_LA_KERNELS_KERNEL_IMPLS_H_

#include "la/kernels/kernels.h"

// x86-64 under GCC or Clang: the toolchains whose function-level `target`
// attributes let one binary carry the AVX2 and AVX-512 tables. Elsewhere the
// registry holds the scalar table alone.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define KGEVAL_X86_SIMD_KERNELS 1
#endif

#if defined(KGEVAL_X86_SIMD_KERNELS)

namespace kgeval {
namespace kernel_impls {

/// Per-ISA kernel tables for the registry (kernels.cc). Each SIMD file is
/// one `Isa` description (vector type, lane count, widest strip and the
/// handful of intrinsics the sweep uses) around the shared sweep in
/// simd_sweep.inc, so adding an ISA is one `Isa` description plus one
/// registry line. "Compiled in" is independent of "supported on this CPU";
/// the registry probes support before dispatching.

const ScoreKernels* Avx2Kernels();    // 8-lane AVX2.
const ScoreKernels* Avx512Kernels();  // 16-lane AVX-512F.

/// The AVX2 tile gather, shared by the AVX2 and AVX-512 tables.
void GatherTAvx2(const float* table, size_t cols, const int32_t* ids,
                 size_t n, float* out);

/// True when the running CPU can execute the named table.
bool Avx2Supported();
bool Avx512Supported();

}  // namespace kernel_impls
}  // namespace kgeval

#endif  // KGEVAL_X86_SIMD_KERNELS

#endif  // KGEVAL_LA_KERNELS_KERNEL_IMPLS_H_

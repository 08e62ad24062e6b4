#ifndef KGEVAL_LA_KERNELS_KERNEL_IMPLS_H_
#define KGEVAL_LA_KERNELS_KERNEL_IMPLS_H_

#include "la/kernels/kernels.h"

namespace kgeval {
namespace kernel_impls {

/// Per-ISA kernel tables for the registry. Each accessor returns nullptr
/// when its translation unit could not compile the implementation (wrong
/// architecture or a toolchain without the target attribute) — the registry
/// just skips nulls, so adding an ISA is one TU plus one line in kernels.cc.
/// "Compiled in" is independent of "supported on this CPU"; the registry
/// probes support separately before dispatching.

const ScoreKernels* Avx2Kernels();    // x86-64, 8-lane AVX2.
const ScoreKernels* Avx512Kernels();  // x86-64, 16-lane AVX-512F.

/// The AVX2 tile gather, shared by the AVX2 and AVX-512 tables. Defined
/// only where Avx2Kernels() is non-null.
void GatherTAvx2(const float* table, size_t cols, const int32_t* ids,
                 size_t n, float* out);

/// True when the running CPU can execute the named table.
bool Avx2Supported();
bool Avx512Supported();

}  // namespace kernel_impls
}  // namespace kgeval

#endif  // KGEVAL_LA_KERNELS_KERNEL_IMPLS_H_

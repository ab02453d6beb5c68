#ifndef DHGCN_TENSOR_GEMM_KERNEL_H_
#define DHGCN_TENSOR_GEMM_KERNEL_H_

#include <cstdint>

#include "tensor/workspace.h"

namespace dhgcn {
namespace detail {

// ---------------------------------------------------------------------------
// Cache-blocked, register-tiled GEMM micro-kernel (see DESIGN.md §10).
//
// The kernel computes C (m,n) += A (m,k) * B (k,n) for row-major operands,
// with B repacked into kGemmNR-wide column panels so the innermost loops
// stream contiguous, FMA-friendly tiles. The register tile is kGemmMR x
// kGemmNR accumulators held in registers across a kGemmKC-deep reduction
// slice; tile and panel boundaries are a pure function of (m, k, n), so a
// result is bit-identical for every thread count (chunks handed out by
// ParallelFor are whole row blocks).
//
// Numerics: accumulation order differs from the reference i-k-j kernel
// (per-k-block register accumulation, then one += into C per block), so
// results match the reference to rounding, not bit-for-bit. The
// reference row kernel in tests/oracles.h is the equivalence baseline.
// ---------------------------------------------------------------------------

/// Register-tile rows per micro-kernel invocation.
inline constexpr int64_t kGemmMR = 4;
/// Register-tile columns (one packed B panel width).
inline constexpr int64_t kGemmNR = 16;
/// Reduction block depth: one k-slice of a packed panel stays L1-resident.
inline constexpr int64_t kGemmKC = 256;
/// Multiply-accumulates one blocked ParallelFor chunk should amortize
/// (larger than the generic 16k target: every chunk re-streams packed B).
inline constexpr int64_t kGemmChunkFlops = int64_t{1} << 18;
/// Problems below this many multiply-accumulates (or with fewer than
/// kGemmMR rows) stay on the row-kernel path: packing would dominate.
inline constexpr int64_t kGemmBlockedMinFlops = int64_t{1} << 14;

/// True when (m,k,n) should take the blocked path. Pure function of the
/// shape — never of thread count or data — per the determinism contract.
bool GemmUseBlocked(int64_t m, int64_t k, int64_t n);

/// Number of floats a packed copy of B (k,n) occupies: k rows of
/// ceil(n / kGemmNR) zero-padded panels.
int64_t GemmPackedBCount(int64_t k, int64_t n);

/// Packs row-major B (k,n) into panel-major layout: for each kGemmNR-wide
/// column panel, all k rows of that panel contiguously (the last panel is
/// zero-padded to kGemmNR). `bp` must hold GemmPackedBCount(k, n) floats.
void GemmPackB(const float* b, int64_t k, int64_t n, float* bp);

/// GemmPackB of B^T for row-major B (n,k): the same panel layout as
/// packing the (k,n) transpose, without materializing it.
void GemmPackBTransposed(const float* b, int64_t n, int64_t k, float* bp);

/// Transpose-pack: writes at (m,k) row-major with at[i,p] = a[p,i] for
/// row-major a (k,m). Lets A^T * B products reuse the dense blocked
/// kernel without strided panel reads.
void GemmPackTransposed(const float* a, int64_t k, int64_t m, float* at);

/// C (m,n) += A (m,k) * B for B pre-packed by GemmPackB. A is read in
/// place (rows are already contiguous in k). Safe to call from inside a
/// ParallelFor task on disjoint row ranges of C; when parallelizing,
/// split m on kGemmMR multiples so tile boundaries match the serial run.
void GemmBlockedPackedB(const float* a, const float* bp, float* c,
                        int64_t m, int64_t k, int64_t n);

// Vertex-mixing kernel (DESIGN.md §10): one (v,v) operator M applied to
// `rows` rows of v floats, `ld` floats apart, through a copy of M packed
// into `packed` in zero-padded kMixBlock-wide blocks. Both directions
// give the bits of the scalar loops of tests/oracles.h built with the
// same flags.

/// Lanes per row block: eight 4-lane doubles forward, four 8-lane floats
/// backward.
inline constexpr int64_t kMixBlock = 32;

/// Floats of 8-byte-aligned `packed` scratch either call needs.
inline int64_t MixPackedCount(int64_t v) {
  return 2 * v * ((v + kMixBlock - 1) / kMixBlock) * kMixBlock;
}

/// y[i] = sum_u M[i,u] x[u]: +0.0 plus the exact double products in
/// ascending u, rounded to float once.
void MixForward(const float* m, const float* x, float* y, int64_t v,
                int64_t rows, int64_t ld, float* packed);

/// gx[u] = sum_i M[i,u] g[i]: float products added to +0.0 in ascending
/// i, zero g[i] skipped.
void MixBackward(const float* m, const float* g, float* gx, int64_t v,
                 int64_t rows, int64_t ld, float* packed);

/// Scratch arena for packed GEMM panels, owned by the calling thread.
/// Only the linalg drivers touch it (acquire on the driving thread
/// before dispatching a ParallelFor, Reset() when the product is done),
/// so steady state is one warm block per driving thread and zero heap
/// traffic. Threads that drive ops concurrently (serving workers) each
/// get their own. Not for use inside tasks: a pool worker would get its
/// own arena, not the driver's.
Workspace& GemmPackScratch();

/// Per-thread scratch arena for op-level lowering buffers (im2col
/// columns, pairwise-distance Gram matrices, packed vertex-mixing
/// operators). Same discipline as GemmPackScratch: acquire on the
/// driving thread, Reset() at the end of the op, never let a borrow
/// escape the op that acquired it.
Workspace& KernelOpScratch();

}  // namespace detail
}  // namespace dhgcn

#endif  // DHGCN_TENSOR_GEMM_KERNEL_H_

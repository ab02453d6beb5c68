#include "tensor/linalg.h"

#include <algorithm>

#include "base/check.h"
#include "base/thread_pool.h"
#include "tensor/gemm_kernel.h"
#include "tensor/workspace.h"

namespace dhgcn {

namespace detail {

// Dense row kernel: C (M,N) += A (M,K) * B (K,N), all row-major raw
// pointers. i-k-j loop order keeps the innermost scan contiguous in both
// B and C, and the body is branch-free so it vectorizes cleanly. Used
// for shapes below the blocked-kernel threshold and for single rows.
void GemmAccumulate(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + p * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// Column-range slice of the A^T * B kernel: updates only columns
// [j0, j1) of C. The per-element accumulation order (ascending p) is
// identical to the full kernel, so splitting the column range across
// chunks is bit-exact.
void GemmTransposedAAccumulateCols(const float* a, const float* b, float* c,
                                   int64_t k, int64_t m, int64_t n,
                                   int64_t j0, int64_t j1) {
  for (int64_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (int64_t i = 0; i < m; ++i) {
      float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * n;
      for (int64_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
    }
  }
}

// C (M,N) += A^T (for A (K,M)) * B (K,N); p-i-j order scans A and B rows
// contiguously.
void GemmTransposedAAccumulate(const float* a, const float* b, float* c,
                               int64_t k, int64_t m, int64_t n) {
  GemmTransposedAAccumulateCols(a, b, c, k, m, n, 0, n);
}

// C (M,N) = or += A (M,K) * B^T (for B (N,K)); each output element is a
// contiguous dot product, accumulated in double. Deliberately not
// routed through the blocked kernel: weight gradients and loss-path
// reductions lean on the extra precision.
void GemmTransposedB(const float* a, const float* b, float* c, int64_t m,
                     int64_t k, int64_t n, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(arow[p]) * brow[p];
      }
      if (accumulate) {
        crow[j] += static_cast<float>(acc);
      } else {
        crow[j] = static_cast<float>(acc);
      }
    }
  }
}

}  // namespace detail

namespace {

using detail::GemmAccumulate;
using detail::GemmTransposedAAccumulateCols;
using detail::GemmTransposedB;
using detail::kGemmMR;

void ZeroFill(Tensor* out) {
  float* p = out->data();
  for (int64_t i = 0; i < out->numel(); ++i) p[i] = 0.0f;
}

// Blocked core: packs B into panels staged in the process-wide scratch
// arena (zero owning allocations in steady state), then hands kGemmMR-row
// blocks of C to the pool. Chunk boundaries fall on row-tile multiples —
// a pure function of shape — and each C element's accumulation order is
// fixed by (k, n) alone, so results are bit-identical for every thread
// count. Must run on the driving thread (the pack scratch is not
// task-safe), which ParallelFor's no-nesting rule already guarantees.
void ParallelGemmBlocked(const float* a, const float* b, float* c, int64_t m,
                         int64_t k, int64_t n) {
  Workspace& scratch = detail::GemmPackScratch();
  Tensor bp = scratch.Acquire({detail::GemmPackedBCount(k, n)});
  float* pbp = bp.data();
  detail::GemmPackB(b, k, n, pbp);
  const int64_t row_blocks = (m + kGemmMR - 1) / kGemmMR;
  ThreadPool::Get().ParallelFor(
      0, row_blocks,
      GrainForFlopsTarget(kGemmMR * k * n, detail::kGemmChunkFlops),
      [&](int64_t b0, int64_t b1) {
        const int64_t r0 = b0 * kGemmMR;
        const int64_t r1 = std::min(m, b1 * kGemmMR);
        detail::GemmBlockedPackedB(a + r0 * k, pbp, c + r0 * n, r1 - r0, k,
                                   n);
      });
  scratch.Reset();
}

// Shared core of MatMul/MatMulInto: row chunks of the output are
// disjoint, each computed by the exact serial kernel.
void ParallelGemm(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n) {
  if (detail::GemmUseBlocked(m, k, n)) {
    ParallelGemmBlocked(a, b, c, m, k, n);
    return;
  }
  ThreadPool::Get().ParallelFor(
      0, m, GrainForFlops(k * n), [&](int64_t r0, int64_t r1) {
        GemmAccumulate(a + r0 * k, b, c + r0 * n, r1 - r0, k, n);
      });
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  DHGCN_CHECK_EQ(a.ndim(), 2);
  DHGCN_CHECK_EQ(b.ndim(), 2);
  DHGCN_CHECK_EQ(a.dim(1), b.dim(0));
  int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  ParallelGemm(a.data(), b.data(), out.data(), m, k, n);
  return out;
}

void MatMulInto(const Tensor& a, const Tensor& b, Tensor* out,
                bool accumulate) {
  DHGCN_CHECK(out != nullptr);
  DHGCN_CHECK_EQ(a.ndim(), 2);
  DHGCN_CHECK_EQ(b.ndim(), 2);
  DHGCN_CHECK_EQ(a.dim(1), b.dim(0));
  DHGCN_CHECK_EQ(out->ndim(), 2);
  DHGCN_CHECK_EQ(out->dim(0), a.dim(0));
  DHGCN_CHECK_EQ(out->dim(1), b.dim(1));
  if (!accumulate) ZeroFill(out);
  ParallelGemm(a.data(), b.data(), out->data(), a.dim(0), a.dim(1), b.dim(1));
}

Tensor BatchedMatMul(const Tensor& a, const Tensor& b) {
  DHGCN_CHECK_EQ(a.ndim(), 3);
  int64_t n = b.ndim() == 2 ? b.dim(1) : b.dim(2);
  Tensor out({a.dim(0), a.dim(1), n});
  BatchedMatMulInto(a, b, &out, /*accumulate=*/true);  // out is zeroed
  return out;
}

void BatchedMatMulInto(const Tensor& a, const Tensor& b, Tensor* out,
                       bool accumulate) {
  DHGCN_CHECK(out != nullptr);
  DHGCN_CHECK_EQ(a.ndim(), 3);
  int64_t batch = a.dim(0), m = a.dim(1), k = a.dim(2);
  const bool shared_b = b.ndim() == 2;
  if (shared_b) {
    DHGCN_CHECK_EQ(b.dim(0), k);
  } else {
    DHGCN_CHECK_EQ(b.ndim(), 3);
    DHGCN_CHECK_EQ(b.dim(0), batch);
    DHGCN_CHECK_EQ(b.dim(1), k);
  }
  int64_t n = shared_b ? b.dim(1) : b.dim(2);
  DHGCN_CHECK_EQ(out->ndim(), 3);
  DHGCN_CHECK_EQ(out->dim(0), batch);
  DHGCN_CHECK_EQ(out->dim(1), m);
  DHGCN_CHECK_EQ(out->dim(2), n);
  if (!accumulate) ZeroFill(out);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out->data();
  if (shared_b && detail::GemmUseBlocked(m, k, n)) {
    // One packed copy of the broadcast B serves every batch. Work items
    // are kGemmMR-row tiles of the flattened (batch * m) output; tiles
    // never straddle a batch, so each maps to one plain blocked GEMM.
    Workspace& scratch = detail::GemmPackScratch();
    Tensor bpacked = scratch.Acquire({detail::GemmPackedBCount(k, n)});
    float* pbp = bpacked.data();
    detail::GemmPackB(pb, k, n, pbp);
    const int64_t blocks_per_batch = (m + kGemmMR - 1) / kGemmMR;
    ThreadPool::Get().ParallelFor(
        0, batch * blocks_per_batch,
        GrainForFlopsTarget(kGemmMR * k * n, detail::kGemmChunkFlops),
        [&](int64_t t0, int64_t t1) {
          for (int64_t t = t0; t < t1; ++t) {
            const int64_t bi = t / blocks_per_batch;
            const int64_t r0 = (t % blocks_per_batch) * kGemmMR;
            const int64_t r1 = std::min(m, r0 + kGemmMR);
            detail::GemmBlockedPackedB(pa + (bi * m + r0) * k, pbp,
                                       pc + (bi * m + r0) * n, r1 - r0, k,
                                       n);
          }
        });
    scratch.Reset();
    return;
  }
  // Flattened (batch * m) output rows; row r of the flat view is row
  // r % m of batch r / m, so chunks never straddle operand layout.
  ThreadPool::Get().ParallelFor(
      0, batch * m, GrainForFlops(k * n), [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const float* bi =
              shared_b ? pb : pb + (r / m) * k * n;
          GemmAccumulate(pa + r * k, bi, pc + r * n, 1, k, n);
        }
      });
}

Tensor MatMulTransposedA(const Tensor& a, const Tensor& b) {
  DHGCN_CHECK_EQ(a.ndim(), 2);
  DHGCN_CHECK_EQ(b.ndim(), 2);
  DHGCN_CHECK_EQ(a.dim(0), b.dim(0));
  Tensor out({a.dim(1), b.dim(1)});
  MatMulTransposedAInto(a, b, &out, /*accumulate=*/true);  // out is zeroed
  return out;
}

void MatMulTransposedAInto(const Tensor& a, const Tensor& b, Tensor* out,
                           bool accumulate) {
  DHGCN_CHECK(out != nullptr);
  DHGCN_CHECK_EQ(a.ndim(), 2);
  DHGCN_CHECK_EQ(b.ndim(), 2);
  DHGCN_CHECK_EQ(a.dim(0), b.dim(0));
  DHGCN_CHECK_EQ(out->ndim(), 2);
  DHGCN_CHECK_EQ(out->dim(0), a.dim(1));
  DHGCN_CHECK_EQ(out->dim(1), b.dim(1));
  if (!accumulate) ZeroFill(out);
  int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out->data();
  if (detail::GemmUseBlocked(m, k, n)) {
    // Transpose-pack A so the blocked kernel reads it with unit stride,
    // then run the same row-tile split as the plain product.
    Workspace& scratch = detail::GemmPackScratch();
    Tensor at = scratch.Acquire({m, k});
    Tensor bp = scratch.Acquire({detail::GemmPackedBCount(k, n)});
    float* pat = at.data();
    float* pbp = bp.data();
    detail::GemmPackTransposed(pa, k, m, pat);
    detail::GemmPackB(pb, k, n, pbp);
    const int64_t row_blocks = (m + kGemmMR - 1) / kGemmMR;
    ThreadPool::Get().ParallelFor(
        0, row_blocks,
        GrainForFlopsTarget(kGemmMR * k * n, detail::kGemmChunkFlops),
        [&](int64_t b0, int64_t b1) {
          const int64_t r0 = b0 * kGemmMR;
          const int64_t r1 = std::min(m, b1 * kGemmMR);
          detail::GemmBlockedPackedB(pat + r0 * k, pbp, pc + r0 * n, r1 - r0,
                                     k, n);
        });
    scratch.Reset();
    return;
  }
  // Column chunks of the output are disjoint; every chunk scans all of
  // A, so grain targets the per-column work (k * m accumulations).
  ThreadPool::Get().ParallelFor(
      0, n, GrainForFlops(k * m), [&](int64_t j0, int64_t j1) {
        GemmTransposedAAccumulateCols(pa, pb, pc, k, m, n, j0, j1);
      });
}

Tensor MatMulTransposedB(const Tensor& a, const Tensor& b) {
  DHGCN_CHECK_EQ(a.ndim(), 2);
  DHGCN_CHECK_EQ(b.ndim(), 2);
  DHGCN_CHECK_EQ(a.dim(1), b.dim(1));
  Tensor out({a.dim(0), b.dim(0)});
  MatMulTransposedBInto(a, b, &out, /*accumulate=*/false);
  return out;
}

void MatMulTransposedBInto(const Tensor& a, const Tensor& b, Tensor* out,
                           bool accumulate) {
  DHGCN_CHECK(out != nullptr);
  DHGCN_CHECK_EQ(a.ndim(), 2);
  DHGCN_CHECK_EQ(b.ndim(), 2);
  DHGCN_CHECK_EQ(a.dim(1), b.dim(1));
  DHGCN_CHECK_EQ(out->ndim(), 2);
  DHGCN_CHECK_EQ(out->dim(0), a.dim(0));
  DHGCN_CHECK_EQ(out->dim(1), b.dim(0));
  int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out->data();
  ThreadPool::Get().ParallelFor(
      0, m, GrainForFlops(k * n), [&](int64_t r0, int64_t r1) {
        GemmTransposedB(pa + r0 * k, pb, pc + r0 * n, r1 - r0, k, n,
                        accumulate);
      });
}

void MatMulAccumulate(const Tensor& a, const Tensor& b, Tensor& out) {
  MatMulInto(a, b, &out, /*accumulate=*/true);
}

}  // namespace dhgcn

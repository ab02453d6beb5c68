#ifndef DHGCN_TENSOR_LINALG_H_
#define DHGCN_TENSOR_LINALG_H_

#include "tensor/tensor.h"

namespace dhgcn {

/// Matrix product of a (M,K) and b (K,N) -> (M,N).
Tensor MatMul(const Tensor& a, const Tensor& b);

/// a^T * b for 2-D a (K,M), b (K,N) -> (M,N), without materializing a^T.
Tensor MatMulTransposedA(const Tensor& a, const Tensor& b);

/// a * b^T for 2-D a (M,K), b (N,K) -> (M,N), without materializing b^T.
Tensor MatMulTransposedB(const Tensor& a, const Tensor& b);

// ---------------------------------------------------------------------------
// Out-parameter variants. `out` must be non-null with the exact result
// shape and must not alias an input. With `accumulate` the product is
// added to the existing contents of `out`; otherwise `out` is fully
// (re)written — callers may pass uninitialized workspace buffers.
// All variants use the same kernels (and accumulation order) as the
// allocating functions above, so results are bit-identical.
// ---------------------------------------------------------------------------

namespace detail {
// Raw-pointer GEMM kernels behind the entry points above/below, all
// operands row-major. The row kernels (one accumulation order per
// family) serve shapes below the blocked threshold; the blocked kernel
// in tensor/gemm_kernel.h uses a different — still shape-pure — order
// and is equivalence-tested against the reference row kernel of
// tests/oracles.h rather than bit-compared.
// Gemm and GemmTransposedA accumulate into c.
void GemmAccumulate(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n);
void GemmTransposedAAccumulate(const float* a, const float* b, float* c,
                               int64_t k, int64_t m, int64_t n);
// Column-range slice of GemmTransposedAAccumulate: touches only columns
// [j0, j1) of c, with the same per-element accumulation order.
void GemmTransposedAAccumulateCols(const float* a, const float* b, float* c,
                                   int64_t k, int64_t m, int64_t n,
                                   int64_t j0, int64_t j1);
// Double-accumulated dots: the kernel of MatMulTransposedBInto, where a
// row's bits must not depend on the product's other rows (serving batch
// transparency; DESIGN.md §10).
void GemmTransposedB(const float* a, const float* b, float* c, int64_t m,
                     int64_t k, int64_t n, bool accumulate);
}  // namespace detail

void MatMulInto(const Tensor& a, const Tensor& b, Tensor* out,
                bool accumulate = false);
void MatMulTransposedAInto(const Tensor& a, const Tensor& b, Tensor* out,
                           bool accumulate = false);
void MatMulTransposedBInto(const Tensor& a, const Tensor& b, Tensor* out,
                           bool accumulate = false);

}  // namespace dhgcn

#endif  // DHGCN_TENSOR_LINALG_H_

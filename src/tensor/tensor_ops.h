#ifndef DHGCN_TENSOR_TENSOR_OPS_H_
#define DHGCN_TENSOR_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"

namespace dhgcn {

// ---------------------------------------------------------------------------
// Elementwise binary operations (NumPy-style broadcasting).
//
// Two shapes broadcast if, aligning from the trailing axis, each pair of
// dimensions is equal or one of them is 1. Shape mismatches are programming
// errors and abort via DHGCN_CHECK; model entry points validate user input
// with Status before reaching these kernels.
//
// Ops come in up to three flavors:
//  - allocating (`Add(a, b)`) — returns a fresh owning tensor;
//  - out-parameter (`ExpInto(a, &out)`) — writes into caller storage
//    (typically workspace-borrowed), allocation-free;
//  - templated (`BinaryOpT(a, b, functor)` / `BinaryOpInto(...)`) — the
//    underlying kernels, statically dispatched so the per-element call
//    inlines.
//
// Into-variant contract (all ops): `out` must be non-null and already
// have the exact result shape, and must not alias an input unless every
// shape involved matches exactly (pure elementwise pass).
// ---------------------------------------------------------------------------

/// Returns the broadcasted result shape; aborts when not broadcastable.
Shape BroadcastShapes(const Shape& a, const Shape& b);
/// True when the two shapes are broadcast-compatible.
bool CanBroadcast(const Shape& a, const Shape& b);

namespace detail {
/// Row-major strides for a shape, with stride 0 on broadcasted (size-1)
/// axes relative to an output rank; `shape` is right-aligned in `out_rank`.
std::vector<int64_t> BroadcastStrides(const Shape& shape, size_t out_rank,
                                      const Shape& out_shape);
}  // namespace detail

/// Broadcasted elementwise combine into `*out` (statically dispatched).
template <typename Op>
void BinaryOpInto(const Tensor& a, const Tensor& b, Op op, Tensor* out) {
  DHGCN_CHECK(out != nullptr);
  // Fast path: identical shapes.
  if (ShapesEqual(a.shape(), b.shape())) {
    DHGCN_CHECK(ShapesEqual(out->shape(), a.shape()));
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out->data();
    const int64_t n = a.numel();
    for (int64_t i = 0; i < n; ++i) po[i] = op(pa[i], pb[i]);
    return;
  }
  Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  DHGCN_CHECK(ShapesEqual(out->shape(), out_shape));
  size_t rank = out_shape.size();
  std::vector<int64_t> sa = detail::BroadcastStrides(a.shape(), rank,
                                                     out_shape);
  std::vector<int64_t> sb = detail::BroadcastStrides(b.shape(), rank,
                                                     out_shape);
  std::vector<int64_t> index(rank, 0);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  int64_t oa = 0, ob = 0;
  const int64_t n = out->numel();
  for (int64_t flat = 0; flat < n; ++flat) {
    po[flat] = op(pa[oa], pb[ob]);
    // Odometer increment from the last axis.
    for (size_t axis = rank; axis-- > 0;) {
      ++index[axis];
      oa += sa[axis];
      ob += sb[axis];
      if (index[axis] < out_shape[axis]) break;
      oa -= sa[axis] * out_shape[axis];
      ob -= sb[axis] * out_shape[axis];
      index[axis] = 0;
    }
  }
}

/// Broadcasted elementwise combine returning a fresh tensor.
template <typename Op>
Tensor BinaryOpT(const Tensor& a, const Tensor& b, Op op) {
  Tensor out(BroadcastShapes(a.shape(), b.shape()));
  BinaryOpInto(a, b, op, &out);
  return out;
}

/// Elementwise map into `*out` (statically dispatched).
template <typename Op>
void UnaryOpInto(const Tensor& a, Op op, Tensor* out) {
  DHGCN_CHECK(out != nullptr);
  DHGCN_CHECK(ShapesEqual(out->shape(), a.shape()));
  const float* pa = a.data();
  float* po = out->data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = op(pa[i]);
}

/// Elementwise map returning a fresh tensor.
template <typename Op>
Tensor UnaryOpT(const Tensor& a, Op op) {
  Tensor out(a.shape());
  UnaryOpInto(a, op, &out);
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

// In-place (no broadcasting; shapes must match exactly).
void AddInPlace(Tensor& a, const Tensor& b);

// Scalar variants.
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);
void MulScalarInPlace(Tensor& a, float s);

// ---------------------------------------------------------------------------
// Elementwise unary operations.
// ---------------------------------------------------------------------------

Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Abs(const Tensor& a);

void ExpInto(const Tensor& a, Tensor* out);

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------

float SumAll(const Tensor& a);
float MaxAll(const Tensor& a);

/// Sum over `axis`; `keepdim` keeps a size-1 axis in the output shape.
Tensor ReduceSum(const Tensor& a, int64_t axis, bool keepdim = false);
Tensor ReduceMean(const Tensor& a, int64_t axis, bool keepdim = false);

/// Sum over `axis` into `*out`, which must have the reduced shape.
void ReduceSumInto(const Tensor& a, int64_t axis, bool keepdim, Tensor* out);

/// Index of the maximum along `axis` (ties -> lowest index), returned as
/// float values in a tensor whose shape drops `axis`.
Tensor ArgMax(const Tensor& a, int64_t axis);

// ---------------------------------------------------------------------------
// Normalization-style ops.
// ---------------------------------------------------------------------------

/// Numerically-stable softmax along `axis`.
Tensor Softmax(const Tensor& a, int64_t axis);
/// Numerically-stable log-softmax along `axis`.
Tensor LogSoftmax(const Tensor& a, int64_t axis);
void SoftmaxInto(const Tensor& a, int64_t axis, Tensor* out);
void LogSoftmaxInto(const Tensor& a, int64_t axis, Tensor* out);

// ---------------------------------------------------------------------------
// Shape/layout ops.
// ---------------------------------------------------------------------------

/// Permutes axes; `perm` is a permutation of {0, ..., ndim-1}.
Tensor Permute(const Tensor& a, const std::vector<int64_t>& perm);
/// Permute into `*out` (shape must equal the permuted shape; no aliasing).
void PermuteInto(const Tensor& a, const std::vector<int64_t>& perm,
                 Tensor* out);
/// 2-D transpose.
Tensor Transpose2D(const Tensor& a);
/// Concatenates along `axis`; all other dims must match.
Tensor Concat(const std::vector<Tensor>& parts, int64_t axis);
/// Slices [start, start+length) along `axis`.
Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t length);
/// Slice into `*out` (shape must equal the sliced shape).
void SliceInto(const Tensor& a, int64_t axis, int64_t start, int64_t length,
               Tensor* out);
/// Stacks equal-shaped tensors along a new leading axis.
Tensor Stack(const std::vector<Tensor>& parts);

/// Broadcasts `a` to `target` shape (copying).
Tensor BroadcastTo(const Tensor& a, const Shape& target);

/// Sums a gradient tensor of broadcasted shape back down to `target` shape.
/// This is the adjoint of BroadcastTo and is used by layer backward passes.
Tensor ReduceToShape(const Tensor& grad, const Shape& target);

// ---------------------------------------------------------------------------
// Comparisons and scalar queries.
// ---------------------------------------------------------------------------

/// True when all elements differ by at most `atol + rtol * |b|`.
bool AllClose(const Tensor& a, const Tensor& b, float rtol = 1e-5f,
              float atol = 1e-6f);
/// True when any element is NaN or infinite.
bool HasNonFinite(const Tensor& a);
/// L2 norm over all elements.
float Norm2(const Tensor& a);
/// Dot product of the flattened tensors (shapes must have equal numel).
float Dot(const Tensor& a, const Tensor& b);

}  // namespace dhgcn

#endif  // DHGCN_TENSOR_TENSOR_OPS_H_

#include "hypergraph/hypergraph_conv.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/logging.h"
#include "base/string_util.h"
#include "base/thread_pool.h"
#include "plan/plan_builder.h"
#include "tensor/gemm_kernel.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"

namespace dhgcn {

namespace {

// CSR scratch for WeightedIncidenceOperator, owned by the calling
// thread (capacity reused across calls). Each use builds and consumes
// it within one call on the driving thread, so threads that drive ops
// concurrently never share it, same as the GEMM packing scratch.
CsrMatrix& IncidenceCsrScratch() {
  thread_local CsrMatrix scratch(1, 1);
  return scratch;
}

// One direction of the vertex-mixing kernel (tensor/gemm_kernel.h).
using MixFn = void (*)(const float* m, const float* in, float* out,
                       int64_t v, int64_t rows, int64_t ld, float* packed);

// Applies ops[f] (v, v) to the c rows of frame f of (n, c, t, v) `in`,
// frames in parallel; each chunk packs into its own scratch slice.
void MixFrames(MixFn mix, const float* ops, int64_t n, int64_t c, int64_t t,
               int64_t v, const float* in, float* out) {
  const int64_t frames = n * t;
  const int64_t count = detail::MixPackedCount(v);
  Workspace& scratch = detail::KernelOpScratch();
  Tensor packed = scratch.Acquire(
      {(frames + kFramesPerChunk - 1) / kFramesPerChunk, count});
  float* pp = packed.data();
  ThreadPool::Get().ParallelFor(
      0, frames, kFramesPerChunk, [&](int64_t f0, int64_t f1) {
        float* slice = pp + f0 / kFramesPerChunk * count;
        for (int64_t f = f0; f < f1; ++f) {
          const int64_t row0 = (f / t * c * t + f % t) * v;
          mix(ops + f * v * v, in + row0, out + row0, v, c, t * v, slice);
        }
      });
  scratch.Reset();
}

}  // namespace

namespace detail {

void NormalizedOperatorFromEdges(int64_t nv, int64_t ne,
                                 const int64_t* offsets,
                                 const int64_t* members,
                                 const float* weights, float* degrees,
                                 double* acc, float* omega) {
  // Vertex degrees (Eq. 3) in ascending edge order, then Dv^{-1/2}.
  std::fill(degrees, degrees + nv, 0.0f);
  for (int64_t e = 0; e < ne; ++e) {
    const float w = weights != nullptr ? weights[e] : 1.0f;
    for (int64_t i = offsets[e]; i < offsets[e + 1]; ++i) {
      degrees[members[i]] += w;
    }
  }
  for (int64_t v = 0; v < nv; ++v) {
    degrees[v] = degrees[v] > 0.0f ? 1.0f / std::sqrt(degrees[v]) : 0.0f;
  }
  // Omega[v,u] = sum over the edges e holding both v and u, ascending e,
  // of L[v,e] * R[u,e] with L = Dv^{-1/2} H W De^{-1} and
  // R = Dv^{-1/2} H. Each term is the product of two floats — exact in
  // double — and none is negative, so this sum is the double dot
  // sum_e L[v,e] R[u,e] of the dense factors with its zero terms (exact
  // no-ops) dropped: the same bits, without forming H.
  std::fill(acc, acc + nv * nv, 0.0);
  for (int64_t e = 0; e < ne; ++e) {
    const int64_t* edge = members + offsets[e];
    const int64_t size = offsets[e + 1] - offsets[e];
    const float w = weights != nullptr ? weights[e] : 1.0f;
    const float inv_de = 1.0f / static_cast<float>(size);
    for (int64_t a = 0; a < size; ++a) {
      const float left = degrees[edge[a]] * w * inv_de;
      double* row = acc + edge[a] * nv;
      for (int64_t b = 0; b < size; ++b) {
        row[edge[b]] += static_cast<double>(left) * degrees[edge[b]];
      }
    }
  }
  for (int64_t i = 0; i < nv * nv; ++i) omega[i] = static_cast<float>(acc[i]);
}

}  // namespace detail

Tensor NormalizedHypergraphOperator(const Hypergraph& hypergraph,
                                    Workspace* ws) {
  const int64_t nv = hypergraph.num_vertices();
  const int64_t ne = hypergraph.num_edges();
  std::vector<int64_t> offsets(static_cast<size_t>(ne) + 1, 0);
  std::vector<int64_t> members;
  for (int64_t e = 0; e < ne; ++e) {
    const Hyperedge& edge = hypergraph.edges()[static_cast<size_t>(e)];
    members.insert(members.end(), edge.begin(), edge.end());
    offsets[static_cast<size_t>(e) + 1] = static_cast<int64_t>(members.size());
  }
  std::vector<float> degrees(static_cast<size_t>(nv));
  std::vector<double> acc(static_cast<size_t>(nv * nv));
  Tensor omega = NewTensor(ws, {nv, nv});
  detail::NormalizedOperatorFromEdges(
      nv, ne, offsets.data(), members.data(),
      hypergraph.edge_weights().data(), degrees.data(), acc.data(),
      omega.data());
  return omega;
}

Tensor WeightedIncidenceOperator(const Tensor& imp, Workspace* ws) {
  DHGCN_CHECK_EQ(imp.ndim(), 2);
  Tensor out = NewTensor(ws, {imp.dim(0), imp.dim(0)});
  // Imp = W_all ⊙ H keeps the zeros of the incidence matrix, so the
  // product always takes the CSR dots; the skipped zeros are exact no-ops
  // in the double accumulator, so it equals the dense product bit for bit.
  CsrMatrix& csr = IncidenceCsrScratch();
  csr.AssignFromDense(imp);
  SpMMTransposedBInto(imp, csr, &out);
  return out;
}

VertexMix::VertexMix(Tensor op) : op_(std::move(op)) {
  DHGCN_CHECK_EQ(op_.ndim(), 2);
  DHGCN_CHECK_EQ(op_.dim(0), op_.dim(1));
  double density = MeasureDensity(op_);
  routed_ = ShouldRouteSparse(density);
  DHGCN_LOG(kDebug) << "sparse-route: VertexMix density=" << density
                    << " crossover=" << kSparseDensityCrossover << " -> "
                    << (routed_ ? "csr" : "dense");
  if (routed_) op_csr_.AssignFromDense(op_);
}

Tensor VertexMix::ForwardImpl(const Tensor& input, Workspace* ws) {
  DHGCN_CHECK_EQ(input.ndim(), 4);
  DHGCN_CHECK_EQ(input.dim(3), op_.dim(0));
  cached_input_ = input;
  Tensor out = NewTensor(ws, input.shape());
  MixPlan(input, &out);
  return out;
}

void VertexMix::MixPlan(const Tensor& input, Tensor* out) const {
  DHGCN_CHECK_EQ(input.ndim(), 4);
  DHGCN_CHECK_EQ(input.dim(3), op_.dim(0));
  DHGCN_CHECK(ShapesEqual(out->shape(), input.shape()));
  if (routed_) {
    // Same ascending-u double dots as the dense kernel, zeros skipped
    // (exact no-ops) — bit-identical, ThreadPool-parallel over leading
    // rows.
    SparseMixInto(op_csr_, input, out);
    return;
  }
  // One frame holding every row: the operator is packed once.
  const int64_t v = input.dim(3);
  MixFrames(&detail::MixForward, op_.data(), 1, input.numel() / v, 1, v,
            input.data(), out->data());
}

int64_t VertexMix::Record(PlanBuilder& builder, int64_t in) {
  const Shape& s = builder.slot_shape(in);
  if (s.size() != 4 || s[3] != op_.dim(0)) return -1;
  PlanOp op;
  // The routing decision is baked into the op kind, so the runner
  // replays the CSR kernel directly. The CSR image lives in the layer,
  // which must outlive the plan (same contract as every other layer
  // pointer in PlanOp).
  if (routed_) {
    op.kind = PlanOpKind::kSpMM;
    op.csr = &op_csr_;
  } else {
    op.kind = PlanOpKind::kVertexMix;
  }
  op.in0 = in;
  op.out = builder.AddSlot(s);
  op.mix = this;
  int64_t out = op.out;
  builder.AddOp(std::move(op));
  return out;
}

Tensor VertexMix::BackwardImpl(const Tensor& grad_output, Workspace* ws) {
  const Tensor& input = cached_input_;
  DHGCN_CHECK(ShapesEqual(grad_output.shape(), input.shape()));
  const int64_t v = input.dim(3);
  if (routed_) {
    // Same float scatter order as the dense kernel (vi ascending, zero
    // grads skipped, zero operator entries exact no-op adds) —
    // bit-identical, parallel over leading rows.
    Tensor grad_input = NewZeroedTensor(ws, input.shape());
    SparseMixBackwardInto(op_csr_, grad_output, &grad_input);
    return grad_input;
  }
  Tensor grad_input = NewTensor(ws, input.shape());
  MixFrames(&detail::MixBackward, op_.data(), 1, input.numel() / v, 1, v,
            grad_output.data(), grad_input.data());
  return grad_input;
}

std::string VertexMix::name() const {
  return StrCat("VertexMix(V=", op_.dim(0), ")");
}

void DynamicVertexMix::SetOperators(Tensor ops) {
  DHGCN_CHECK_EQ(ops.ndim(), 4);
  DHGCN_CHECK_EQ(ops.dim(2), ops.dim(3));
  ops_ = std::move(ops);
}

Tensor DynamicVertexMix::ForwardImpl(const Tensor& input, Workspace* ws) {
  DHGCN_CHECK_GT(ops_.numel(), 0);  // SetOperators must precede Forward
  Tensor out = NewTensor(ws, input.shape());
  MixPlan(input, ops_, &out);
  return out;
}

void DynamicVertexMix::MixPlan(const Tensor& input, const Tensor& ops,
                               Tensor* out) const {
  DHGCN_CHECK_EQ(input.ndim(), 4);
  int64_t n = input.dim(0), c = input.dim(1), t = input.dim(2),
          v = input.dim(3);
  DHGCN_CHECK_EQ(ops.dim(0), n);
  DHGCN_CHECK_EQ(ops.dim(1), t);
  DHGCN_CHECK_EQ(ops.dim(2), v);
  DHGCN_CHECK_EQ(ops.dim(3), v);
  DHGCN_CHECK(ShapesEqual(out->shape(), input.shape()));
  MixFrames(&detail::MixForward, ops.data(), n, c, t, v, input.data(),
            out->data());
}

Tensor DynamicVertexMix::BackwardImpl(const Tensor& grad_output, Workspace* ws) {
  DHGCN_CHECK_EQ(grad_output.ndim(), 4);
  int64_t n = grad_output.dim(0), c = grad_output.dim(1),
          t = grad_output.dim(2), v = grad_output.dim(3);
  DHGCN_CHECK(ShapesEqual(Shape{n, t, v, v}, ops_.shape()));
  Tensor grad_input = NewTensor(ws, grad_output.shape());
  MixFrames(&detail::MixBackward, ops_.data(), n, c, t, v,
            grad_output.data(), grad_input.data());
  return grad_input;
}

}  // namespace dhgcn

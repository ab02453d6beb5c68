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
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"

namespace dhgcn {

namespace {

// CSR scratch for WeightedIncidenceOperator and the per-frame
// DynamicVertexMix route, owned by the calling thread (capacity reused
// across calls). Each use builds and consumes it within one call on the
// driving thread, so threads that drive ops concurrently never share
// it, same as the GEMM packing scratch.
CsrMatrix& IncidenceCsrScratch() {
  thread_local CsrMatrix scratch(1, 1);
  return scratch;
}

void LogRoute(const char* what, double density, bool routed) {
  DHGCN_LOG(kDebug) << "sparse-route: " << what << " density=" << density
                    << " crossover=" << kSparseDensityCrossover << " -> "
                    << (routed ? "csr" : "dense");
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
  LogRoute("VertexMix", density, routed_);
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
    // Same ascending-u double dots as below, zeros skipped (exact
    // no-ops) — bit-identical, ThreadPool-parallel over leading rows.
    SparseMixInto(op_csr_, input, out);
    return;
  }
  int64_t n = input.dim(0), c = input.dim(1), t = input.dim(2),
          v = input.dim(3);
  const float* px = input.data();
  const float* pm = op_.data();
  float* po = out->data();
  int64_t rows = n * c * t;
  // Y_row[v'] = sum_u M[v',u] X_row[u]  ==  X_row * M^T.
  for (int64_t r = 0; r < rows; ++r) {
    const float* xrow = px + r * v;
    float* orow = po + r * v;
    for (int64_t vi = 0; vi < v; ++vi) {
      const float* mrow = pm + vi * v;
      double acc = 0.0;
      for (int64_t u = 0; u < v; ++u) {
        acc += static_cast<double>(mrow[u]) * xrow[u];
      }
      orow[vi] = static_cast<float>(acc);
    }
  }
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
  int64_t v = input.dim(3);
  int64_t rows = input.numel() / v;
  Tensor grad_input = NewZeroedTensor(ws, input.shape());
  if (routed_) {
    // Same float scatter order as the dense loop below (vi ascending,
    // zero grads skipped, zero operator entries exact no-op adds) —
    // bit-identical, parallel over leading rows.
    SparseMixBackwardInto(op_csr_, grad_output, &grad_input);
    return grad_input;
  }
  const float* pg = grad_output.data();
  const float* pm = op_.data();
  float* pgi = grad_input.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* grow = pg + r * v;
    float* girow = pgi + r * v;
    for (int64_t vi = 0; vi < v; ++vi) {
      float g = grow[vi];
      if (g == 0.0f) continue;
      const float* mrow = pm + vi * v;
      for (int64_t u = 0; u < v; ++u) girow[u] += g * mrow[u];
    }
  }
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
  const float* px = input.data();
  const float* pops = ops.data();
  float* po = out->data();
  // The operators are data-dependent, so the density probe runs per
  // call — an O(N·T·V²) scan, a factor C cheaper than the mix itself.
  double density = MeasureDensity(ops);
  bool routed = ShouldRouteSparse(density);
  // First decision only: the dynamic-topology loop would otherwise emit
  // thousands of identical lines per step.
  if (!std::exchange(route_logged_, true)) {
    LogRoute("DynamicVertexMix", density, routed);
  }
  if (routed) {
    // One CSR compression per frame, reused across the C channels;
    // channels write disjoint output rows, so the per-frame channel
    // loop parallelizes without changing any accumulation order.
    CsrMatrix& frame_csr = IncidenceCsrScratch();
    for (int64_t b = 0; b < n; ++b) {
      for (int64_t tt = 0; tt < t; ++tt) {
        frame_csr.AssignFromDense(pops + (b * t + tt) * v * v, v, v);
        const int64_t* row_ptr = frame_csr.row_ptr().data();
        const int64_t* col_idx = frame_csr.col_idx().data();
        const float* values = frame_csr.values().data();
        ThreadPool::Get().ParallelFor(
            0, c, GrainForFlops(frame_csr.nnz() + 1),
            [&](int64_t ch_begin, int64_t ch_end) {
              for (int64_t ch = ch_begin; ch < ch_end; ++ch) {
                const float* xrow = px + ((b * c + ch) * t + tt) * v;
                float* orow = po + ((b * c + ch) * t + tt) * v;
                for (int64_t vi = 0; vi < v; ++vi) {
                  double acc = 0.0;
                  for (int64_t k = row_ptr[vi]; k < row_ptr[vi + 1]; ++k) {
                    acc += static_cast<double>(values[k]) * xrow[col_idx[k]];
                  }
                  orow[vi] = static_cast<float>(acc);
                }
              }
            });
      }
    }
    return;
  }
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t tt = 0; tt < t; ++tt) {
      const float* m = pops + (b * t + tt) * v * v;
      for (int64_t ch = 0; ch < c; ++ch) {
        const float* xrow = px + ((b * c + ch) * t + tt) * v;
        float* orow = po + ((b * c + ch) * t + tt) * v;
        for (int64_t vi = 0; vi < v; ++vi) {
          const float* mrow = m + vi * v;
          double acc = 0.0;
          for (int64_t u = 0; u < v; ++u) {
            acc += static_cast<double>(mrow[u]) * xrow[u];
          }
          orow[vi] = static_cast<float>(acc);
        }
      }
    }
  }
}

Tensor DynamicVertexMix::BackwardImpl(const Tensor& grad_output, Workspace* ws) {
  DHGCN_CHECK_EQ(grad_output.ndim(), 4);
  int64_t n = grad_output.dim(0), c = grad_output.dim(1),
          t = grad_output.dim(2), v = grad_output.dim(3);
  DHGCN_CHECK(ShapesEqual(Shape{n, t, v, v}, ops_.shape()));
  Tensor grad_input = NewZeroedTensor(ws, grad_output.shape());
  const float* pg = grad_output.data();
  const float* pops = ops_.data();
  float* pgi = grad_input.data();
  if (ShouldRouteSparse(MeasureDensity(ops_))) {
    // Same float scatter order as the dense loop below; channels own
    // disjoint grad rows, so the channel loop parallelizes.
    CsrMatrix& frame_csr = IncidenceCsrScratch();
    for (int64_t b = 0; b < n; ++b) {
      for (int64_t tt = 0; tt < t; ++tt) {
        frame_csr.AssignFromDense(pops + (b * t + tt) * v * v, v, v);
        const int64_t* row_ptr = frame_csr.row_ptr().data();
        const int64_t* col_idx = frame_csr.col_idx().data();
        const float* values = frame_csr.values().data();
        ThreadPool::Get().ParallelFor(
            0, c, GrainForFlops(frame_csr.nnz() + 1),
            [&](int64_t ch_begin, int64_t ch_end) {
              for (int64_t ch = ch_begin; ch < ch_end; ++ch) {
                const float* grow = pg + ((b * c + ch) * t + tt) * v;
                float* girow = pgi + ((b * c + ch) * t + tt) * v;
                for (int64_t vi = 0; vi < v; ++vi) {
                  const float g = grow[vi];
                  if (g == 0.0f) continue;
                  for (int64_t k = row_ptr[vi]; k < row_ptr[vi + 1]; ++k) {
                    girow[col_idx[k]] += g * values[k];
                  }
                }
              }
            });
      }
    }
    return grad_input;
  }
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t tt = 0; tt < t; ++tt) {
      const float* m = pops + (b * t + tt) * v * v;
      for (int64_t ch = 0; ch < c; ++ch) {
        const float* grow = pg + ((b * c + ch) * t + tt) * v;
        float* girow = pgi + ((b * c + ch) * t + tt) * v;
        // dX[u] = sum_v M[v,u] dY[v].
        for (int64_t vi = 0; vi < v; ++vi) {
          float g = grow[vi];
          if (g == 0.0f) continue;
          const float* mrow = m + vi * v;
          for (int64_t u = 0; u < v; ++u) girow[u] += g * mrow[u];
        }
      }
    }
  }
  return grad_input;
}

}  // namespace dhgcn

#include "hypergraph/hypergraph_conv.h"

#include <cmath>
#include <utility>

#include "base/check.h"
#include "base/logging.h"
#include "base/string_util.h"
#include "base/thread_pool.h"
#include "plan/plan_builder.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"

namespace dhgcn {

namespace {

// Process-wide CSR scratch for the free-function incidence operators
// (capacity reused across the per-frame dynamic-topology loop). Built
// and consumed on the compute-driving thread only — the library is
// externally single-threaded (see ThreadPool), and concurrent serve
// workers serialize compute behind the server's compute lease — so the
// Meyers static needs no guard, same as the GEMM packing scratch.
CsrMatrix& IncidenceCsrScratch() {
  static CsrMatrix scratch(1, 1);
  return scratch;
}

void LogRoute(const char* what, double density, bool routed) {
  DHGCN_LOG(kDebug) << "sparse-route: " << what << " density=" << density
                    << " crossover=" << kSparseDensityCrossover << " -> "
                    << (routed ? "csr" : "dense");
}

}  // namespace

Tensor NormalizedHypergraphOperator(const Hypergraph& hypergraph,
                                    Workspace* ws) {
  int64_t nv = hypergraph.num_vertices();
  int64_t ne = hypergraph.num_edges();
  std::vector<float> dv = hypergraph.VertexDegrees();
  std::vector<int64_t> de = hypergraph.EdgeDegrees();
  const std::vector<float>& w = hypergraph.edge_weights();

  // Left factor L = Dv^{-1/2} H W De^{-1}, shape (V, E); then
  // Omega = L * (Dv^{-1/2} H)^T. H is sparse (h(v,e)=1 iff v in e), so
  // the factors are filled straight from the edge lists instead of
  // materializing the incidence matrix.
  Tensor left = NewZeroedTensor(ws, {nv, ne});
  Tensor right = NewZeroedTensor(ws, {nv, ne});
  for (int64_t e = 0; e < ne; ++e) {
    float inv_de = 1.0f / static_cast<float>(de[static_cast<size_t>(e)]);
    for (int64_t v : hypergraph.edges()[static_cast<size_t>(e)]) {
      float inv_sqrt_dv =
          dv[static_cast<size_t>(v)] > 0.0f
              ? 1.0f / std::sqrt(dv[static_cast<size_t>(v)])
              : 0.0f;
      left.at(v, e) = inv_sqrt_dv * w[static_cast<size_t>(e)] * inv_de;
      right.at(v, e) = inv_sqrt_dv;
    }
  }
  Tensor omega = NewTensor(ws, {nv, nv});  // (V, V)
  // Omega[v,u] is an ascending-e double dot of left row v with right
  // row u. `right` holds one entry per (vertex, incident edge), at most
  // about 0.25 dense for the paper's k_n, k_m, so it always takes the
  // CSR dots; the skipped zeros are exact no-ops in the double
  // accumulator, so the result equals the dense product bit for bit.
  CsrMatrix& csr = IncidenceCsrScratch();
  csr.AssignFromDense(right);
  SpMMTransposedBInto(left, csr, &omega);
  return omega;
}

Tensor WeightedIncidenceOperator(const Tensor& imp, Workspace* ws) {
  DHGCN_CHECK_EQ(imp.ndim(), 2);
  Tensor out = NewTensor(ws, {imp.dim(0), imp.dim(0)});
  // Imp = W_all ⊙ H keeps the zeros of the incidence matrix, so the
  // product takes the same CSR dots as NormalizedHypergraphOperator.
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

Tensor VertexMix::Forward(const Tensor& input) {
  return ForwardImpl(input, nullptr);
}

Tensor VertexMix::Backward(const Tensor& grad_output) {
  return BackwardImpl(grad_output, nullptr);
}

void VertexMix::ForwardInto(const Tensor& input, Workspace& ws, Tensor* out) {
  DHGCN_CHECK(out != nullptr);
  *out = ForwardImpl(input, &ws);
}

void VertexMix::BackwardInto(const Tensor& grad_output, Workspace& ws,
                             Tensor* grad_input) {
  DHGCN_CHECK(grad_input != nullptr);
  *grad_input = BackwardImpl(grad_output, &ws);
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
    for (int64_t b = 0; b < n; ++b) {
      for (int64_t tt = 0; tt < t; ++tt) {
        frame_csr_.AssignFromDense(pops + (b * t + tt) * v * v, v, v);
        const int64_t* row_ptr = frame_csr_.row_ptr().data();
        const int64_t* col_idx = frame_csr_.col_idx().data();
        const float* values = frame_csr_.values().data();
        ThreadPool::Get().ParallelFor(
            0, c, GrainForFlops(frame_csr_.nnz() + 1),
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
  int64_t n = grad_output.dim(0), c = grad_output.dim(1),
          t = grad_output.dim(2), v = grad_output.dim(3);
  Tensor grad_input = NewZeroedTensor(ws, grad_output.shape());
  const float* pg = grad_output.data();
  const float* pops = ops_.data();
  float* pgi = grad_input.data();
  if (ShouldRouteSparse(MeasureDensity(ops_))) {
    // Same float scatter order as the dense loop below; channels own
    // disjoint grad rows, so the channel loop parallelizes.
    for (int64_t b = 0; b < n; ++b) {
      for (int64_t tt = 0; tt < t; ++tt) {
        frame_csr_.AssignFromDense(pops + (b * t + tt) * v * v, v, v);
        const int64_t* row_ptr = frame_csr_.row_ptr().data();
        const int64_t* col_idx = frame_csr_.col_idx().data();
        const float* values = frame_csr_.values().data();
        ThreadPool::Get().ParallelFor(
            0, c, GrainForFlops(frame_csr_.nnz() + 1),
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

Tensor DynamicVertexMix::Forward(const Tensor& input) {
  return ForwardImpl(input, nullptr);
}

Tensor DynamicVertexMix::Backward(const Tensor& grad_output) {
  return BackwardImpl(grad_output, nullptr);
}

void DynamicVertexMix::ForwardInto(const Tensor& input, Workspace& ws,
                                   Tensor* out) {
  DHGCN_CHECK(out != nullptr);
  *out = ForwardImpl(input, &ws);
}

void DynamicVertexMix::BackwardInto(const Tensor& grad_output, Workspace& ws,
                                    Tensor* grad_input) {
  DHGCN_CHECK(grad_input != nullptr);
  *grad_input = BackwardImpl(grad_output, &ws);
}

}  // namespace dhgcn

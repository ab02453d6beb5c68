#ifndef DHGCN_TESTS_ORACLES_H_
#define DHGCN_TESTS_ORACLES_H_

// Reference implementations for the conformance tests. The library keeps
// one implementation of each operator and of the training path; the
// plain forms it replaced live here, serial and unoptimized, as the
// oracles the production kernels are compared against:
//
//  - the i-k-j row GEMM with the zero skip (the blocked kernel's
//    equivalence baseline, compared to tolerance);
//  - the dense (V, V) vertex-mix loops, fixed and per-frame, and the
//    dense incidence products (the CSR kernels must match them bit for
//    bit);
//  - the direct convolution loop nest (the im2col lowering's baseline,
//    compared to tolerance);
//  - the allocating layer-by-layer training loop (the Trainer's
//    workspace path must reproduce its losses bit for bit).

#include <cmath>
#include <cstdint>
#include <vector>

#include "base/alloc_stats.h"
#include "data/dataloader.h"
#include "hypergraph/hypergraph.h"
#include "nn/conv2d.h"
#include "nn/layer.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/linalg.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"
#include "train/trainer.h"

namespace dhgcn::oracles {

// --- GEMM ------------------------------------------------------------------

/// C (m,n) += A (m,k) * B (k,n), row-major, i-k-j order with the
/// `a == 0` skip. Per-element accumulation order equals the library's
/// unblocked row kernel.
inline void GemmReferenceAccumulate(const float* a, const float* b, float* c,
                                    int64_t m, int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t p = 0; p < k; ++p) {
      float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// A (m,k) * B (k,n) through GemmReferenceAccumulate.
inline Tensor ReferenceMatMul(const Tensor& a, const Tensor& b) {
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c = Tensor::Zeros({m, n});
  GemmReferenceAccumulate(a.data(), b.data(), c.data(), m, k, n);
  return c;
}

// --- CSR -------------------------------------------------------------------

/// Dense (rows, cols) image of a CSR matrix.
inline Tensor CsrToDense(const CsrMatrix& csr) {
  Tensor dense({csr.rows(), csr.cols()});
  for (int64_t r = 0; r < csr.rows(); ++r) {
    for (int64_t k = csr.row_ptr()[r]; k < csr.row_ptr()[r + 1]; ++k) {
      dense.data()[r * csr.cols() + csr.col_idx()[k]] += csr.values()[k];
    }
  }
  return dense;
}

// --- Vertex mixing ---------------------------------------------------------

/// y[..., v] = sum_u op[v, u] x[..., u] for a fixed (V, V) operator: a
/// double-accumulated ascending-u dot per output element.
inline Tensor VertexMixForward(const Tensor& op, const Tensor& x) {
  const int64_t v = op.dim(0);
  const int64_t rows = x.numel() / v;
  Tensor y(x.shape());
  for (int64_t r = 0; r < rows; ++r) {
    const float* xrow = x.data() + r * v;
    float* yrow = y.data() + r * v;
    for (int64_t vi = 0; vi < v; ++vi) {
      const float* mrow = op.data() + vi * v;
      double acc = 0.0;
      for (int64_t u = 0; u < v; ++u) {
        acc += static_cast<double>(mrow[u]) * xrow[u];
      }
      yrow[vi] = static_cast<float>(acc);
    }
  }
  return y;
}

/// gx[..., u] = sum_v op[v, u] g[..., v]: a float scatter over ascending
/// v, zero gradients skipped.
inline Tensor VertexMixBackward(const Tensor& op, const Tensor& g) {
  const int64_t v = op.dim(0);
  const int64_t rows = g.numel() / v;
  Tensor gx = Tensor::Zeros(g.shape());
  for (int64_t r = 0; r < rows; ++r) {
    const float* grow = g.data() + r * v;
    float* gxrow = gx.data() + r * v;
    for (int64_t vi = 0; vi < v; ++vi) {
      const float gv = grow[vi];
      if (gv == 0.0f) continue;
      const float* mrow = op.data() + vi * v;
      for (int64_t u = 0; u < v; ++u) gxrow[u] += gv * mrow[u];
    }
  }
  return gx;
}

/// Per-frame operators ops (N, T, V, V) applied to x (N, C, T, V) with
/// the VertexMixForward dot.
inline Tensor DynamicVertexMixForward(const Tensor& ops, const Tensor& x) {
  const int64_t n = x.dim(0), c = x.dim(1), t = x.dim(2), v = x.dim(3);
  Tensor y(x.shape());
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t ch = 0; ch < c; ++ch) {
      for (int64_t tt = 0; tt < t; ++tt) {
        const float* m = ops.data() + (b * t + tt) * v * v;
        const float* xrow = x.data() + ((b * c + ch) * t + tt) * v;
        float* yrow = y.data() + ((b * c + ch) * t + tt) * v;
        for (int64_t vi = 0; vi < v; ++vi) {
          double acc = 0.0;
          for (int64_t u = 0; u < v; ++u) {
            acc += static_cast<double>(m[vi * v + u]) * xrow[u];
          }
          yrow[vi] = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

/// Backward of DynamicVertexMixForward with respect to x (the operators
/// are constants), with the VertexMixBackward scatter.
inline Tensor DynamicVertexMixBackward(const Tensor& ops, const Tensor& g) {
  const int64_t n = g.dim(0), c = g.dim(1), t = g.dim(2), v = g.dim(3);
  Tensor gx = Tensor::Zeros(g.shape());
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t ch = 0; ch < c; ++ch) {
      for (int64_t tt = 0; tt < t; ++tt) {
        const float* m = ops.data() + (b * t + tt) * v * v;
        const float* grow = g.data() + ((b * c + ch) * t + tt) * v;
        float* gxrow = gx.data() + ((b * c + ch) * t + tt) * v;
        for (int64_t vi = 0; vi < v; ++vi) {
          const float gv = grow[vi];
          if (gv == 0.0f) continue;
          for (int64_t u = 0; u < v; ++u) gxrow[u] += gv * m[vi * v + u];
        }
      }
    }
  }
  return gx;
}

// --- Incidence operators -----------------------------------------------------

/// Eq. 5 through the dense double-accumulating product:
/// Omega = (Dv^{-1/2} H W De^{-1}) (Dv^{-1/2} H)^T.
inline Tensor NormalizedHypergraphOperator(const Hypergraph& hypergraph) {
  const int64_t nv = hypergraph.num_vertices();
  const int64_t ne = hypergraph.num_edges();
  std::vector<float> dv = hypergraph.VertexDegrees();
  std::vector<int64_t> de = hypergraph.EdgeDegrees();
  const std::vector<float>& w = hypergraph.edge_weights();
  Tensor left = Tensor::Zeros({nv, ne});
  Tensor right = Tensor::Zeros({nv, ne});
  for (int64_t e = 0; e < ne; ++e) {
    float inv_de = 1.0f / static_cast<float>(de[e]);
    for (int64_t v : hypergraph.edges()[e]) {
      float inv_sqrt_dv = dv[v] > 0.0f ? 1.0f / std::sqrt(dv[v]) : 0.0f;
      left.at(v, e) = inv_sqrt_dv * w[e] * inv_de;
      right.at(v, e) = inv_sqrt_dv;
    }
  }
  Tensor omega({nv, nv});
  MatMulTransposedBInto(left, right, &omega);
  return omega;
}

/// Eqs. 8-9 through the dense product: Imp Imp^T.
inline Tensor WeightedIncidenceOperator(const Tensor& imp) {
  Tensor out({imp.dim(0), imp.dim(0)});
  MatMulTransposedBInto(imp, imp, &out);
  return out;
}

// --- Direct convolution -------------------------------------------------------

/// The seven-deep direct loop nest over `conv`'s weight and bias, each
/// output a double accumulation seeded with the bias.
inline Tensor Conv2dForward(const Conv2d& conv, const Tensor& x) {
  const Conv2dOptions& o = conv.options();
  const int64_t n = x.dim(0), cin = conv.in_channels(),
                cout = conv.out_channels(), h = x.dim(2), w = x.dim(3);
  const int64_t oh =
      Conv2d::OutputDim(h, o.kernel_h, o.stride_h, o.pad_h, o.dilation_h);
  const int64_t ow =
      Conv2d::OutputDim(w, o.kernel_w, o.stride_w, o.pad_w, o.dilation_w);
  const int64_t kplane = o.kernel_h * o.kernel_w;
  Tensor out({n, cout, oh, ow});
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t oc = 0; oc < cout; ++oc) {
      const float* wc = conv.weight().data() + oc * cin * kplane;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          double acc = o.has_bias ? conv.bias().data()[oc] : 0.0f;
          for (int64_t ic = 0; ic < cin; ++ic) {
            const float* xplane = x.data() + (b * cin + ic) * h * w;
            for (int64_t ky = 0; ky < o.kernel_h; ++ky) {
              int64_t iy = oy * o.stride_h - o.pad_h + ky * o.dilation_h;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kx = 0; kx < o.kernel_w; ++kx) {
                int64_t ix = ox * o.stride_w - o.pad_w + kx * o.dilation_w;
                if (ix < 0 || ix >= w) continue;
                acc += static_cast<double>(xplane[iy * w + ix]) *
                       wc[ic * kplane + ky * o.kernel_w + kx];
              }
            }
          }
          out.data()[((b * cout + oc) * oh + oy) * ow + ox] =
              static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

struct Conv2dGrads {
  Tensor input;   // (N, C_in, H, W)
  Tensor weight;  // (C_out, C_in, KH, KW)
  Tensor bias;    // (C_out); zeros when the layer has no bias
};

/// Gradients of Conv2dForward for upstream gradient `g`, by the same
/// traversal: every output tap scatters into the input and weight
/// gradients.
inline Conv2dGrads Conv2dBackward(const Conv2d& conv, const Tensor& x,
                                  const Tensor& g) {
  const Conv2dOptions& o = conv.options();
  const int64_t n = x.dim(0), cin = conv.in_channels(),
                cout = conv.out_channels(), h = x.dim(2), w = x.dim(3);
  const int64_t oh = g.dim(2), ow = g.dim(3);
  const int64_t kplane = o.kernel_h * o.kernel_w;
  Conv2dGrads grads{Tensor::Zeros(x.shape()),
                    Tensor::Zeros(conv.weight().shape()),
                    Tensor::Zeros({cout})};
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t oc = 0; oc < cout; ++oc) {
      const float* wc = conv.weight().data() + oc * cin * kplane;
      float* gwc = grads.weight.data() + oc * cin * kplane;
      const float* gplane = g.data() + (b * cout + oc) * oh * ow;
      double bias_acc = 0.0;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          const float gv = gplane[oy * ow + ox];
          bias_acc += gv;
          for (int64_t ic = 0; ic < cin; ++ic) {
            const float* xplane = x.data() + (b * cin + ic) * h * w;
            float* giplane = grads.input.data() + (b * cin + ic) * h * w;
            for (int64_t ky = 0; ky < o.kernel_h; ++ky) {
              int64_t iy = oy * o.stride_h - o.pad_h + ky * o.dilation_h;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kx = 0; kx < o.kernel_w; ++kx) {
                int64_t ix = ox * o.stride_w - o.pad_w + kx * o.dilation_w;
                if (ix < 0 || ix >= w) continue;
                const int64_t tap = ic * kplane + ky * o.kernel_w + kx;
                giplane[iy * w + ix] += gv * wc[tap];
                gwc[tap] += gv * xplane[iy * w + ix];
              }
            }
          }
        }
      }
      if (o.has_bias) grads.bias.data()[oc] += static_cast<float>(bias_acc);
    }
  }
  return grads;
}

// --- Training loop -------------------------------------------------------------

struct LayerwiseTraining {
  std::vector<double> mean_loss;          // per epoch
  std::vector<uint64_t> allocations;      // owning tensors, per epoch
};

/// The allocating layer-by-layer training loop: `Forward`, the loss,
/// `Backward` and an SGD step per batch, with the Trainer's optimizer,
/// LR schedule and loss-averaging, but no workspace (and no guardrails,
/// clipping or pruning). Trainer::Train on the same model, loader and
/// options must reproduce its losses bit for bit.
inline LayerwiseTraining TrainLayerwise(Layer& model, DataLoader& loader,
                                        const TrainOptions& options) {
  SgdOptimizer::Options sgd_options;
  sgd_options.lr = options.initial_lr;
  sgd_options.momentum = options.momentum;
  sgd_options.weight_decay = options.weight_decay;
  SgdOptimizer optimizer(model.Params(), sgd_options);
  StepLrSchedule schedule(options.initial_lr, options.lr_milestones,
                          options.lr_decay_factor);
  SoftmaxCrossEntropy loss(options.label_smoothing);
  LayerwiseTraining result;
  for (int64_t epoch = 0; epoch < options.epochs; ++epoch) {
    model.SetTraining(true);
    loader.StartEpoch();
    optimizer.set_lr(schedule.LrForEpoch(epoch));
    AllocStatsGuard guard;
    double loss_sum = 0.0;
    const int64_t batches = loader.NumBatches();
    for (int64_t b = 0; b < batches; ++b) {
      Batch batch = loader.GetBatch(b);
      optimizer.ZeroGrad();
      Tensor logits = model.Forward(batch.x);
      float batch_loss = loss.Forward(logits, batch.labels);
      model.Backward(loss.Backward());
      optimizer.Step();
      loss_sum += batch_loss;
    }
    result.mean_loss.push_back(loss_sum / static_cast<double>(batches));
    result.allocations.push_back(guard.allocations());
  }
  return result;
}

}  // namespace dhgcn::oracles

#endif  // DHGCN_TESTS_ORACLES_H_

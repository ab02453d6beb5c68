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
//    dense incidence products (the CSR kernels and the edge-list Eq. 5
//    must match them bit for bit);
//  - the per-frame dynamic-topology pipeline: the stable-sort K-NN, the
//    vector-of-clusters K-means, the edge union and one Hypergraph per
//    frame (the one-pass frame construction must match it bit for bit);
//  - the direct convolution loop nest (the im2col lowering's baseline,
//    compared to tolerance);
//  - the allocating layer-by-layer training loop (the Trainer's
//    workspace path must reproduce its losses bit for bit).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "base/alloc_stats.h"
#include "base/rng.h"
#include "core/dynamic_topology.h"
#include "data/dataloader.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/kmeans.h"
#include "hypergraph/knn.h"
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

// --- Dynamic topology (Sec. 3.4) --------------------------------------------------

/// The `k` nearest other vertices of `vertex`: every other vertex stably
/// sorted by (distance, index), truncated. Finite distances only.
inline std::vector<int64_t> NearestNeighbors(const Tensor& distances,
                                             int64_t vertex, int64_t k) {
  const int64_t v = distances.dim(0);
  std::vector<int64_t> order;
  for (int64_t j = 0; j < v; ++j) {
    if (j != vertex) order.push_back(j);
  }
  const float* row = distances.data() + vertex * v;
  std::stable_sort(order.begin(), order.end(), [row](int64_t a, int64_t b) {
    if (row[a] != row[b]) return row[a] < row[b];
    return a < b;
  });
  order.resize(static_cast<size_t>(k));
  return order;
}

/// One K-NN hyperedge per vertex: the vertex, then its k-1 nearest.
inline std::vector<Hyperedge> KnnHyperedges(const Tensor& features,
                                            int64_t k) {
  Tensor dist = PairwiseDistances(features);
  std::vector<Hyperedge> edges;
  for (int64_t i = 0; i < features.dim(0); ++i) {
    Hyperedge e = {i};
    std::vector<int64_t> nn = oracles::NearestNeighbors(dist, i, k - 1);
    e.insert(e.end(), nn.begin(), nn.end());
    edges.push_back(std::move(e));
  }
  return edges;
}

/// Medoid K-means with the clusters rebuilt as vectors every iteration:
/// nearest medoid (ties -> lower cluster), empty clusters reseeded with
/// the farthest node of a larger cluster (cluster-major scan, strict >),
/// medoid = least mean distance (ties -> lower vertex). Finite
/// distances only.
inline KMeansResult KMeansClusters(const Tensor& features, int64_t k,
                                   Rng& rng, int64_t max_iters) {
  const int64_t v = features.dim(0);
  Tensor dist = PairwiseDistances(features);
  auto d = [&](int64_t a, int64_t b) { return dist.data()[a * v + b]; };
  KMeansResult result;
  result.medoids = rng.SampleWithoutReplacement(v, k);
  std::sort(result.medoids.begin(), result.medoids.end());
  for (int64_t iter = 0; iter < max_iters; ++iter) {
    result.iterations = iter + 1;
    std::vector<Hyperedge> clusters(static_cast<size_t>(k));
    for (int64_t node = 0; node < v; ++node) {
      int64_t best_cluster = 0;
      float best_dist = d(node, result.medoids[0]);
      for (int64_t c = 1; c < k; ++c) {
        if (d(node, result.medoids[c]) < best_dist) {
          best_dist = d(node, result.medoids[c]);
          best_cluster = c;
        }
      }
      clusters[static_cast<size_t>(best_cluster)].push_back(node);
    }
    for (size_t c = 0; c < clusters.size(); ++c) {
      if (!clusters[c].empty()) continue;
      int64_t steal_cluster = -1;
      int64_t steal_node = -1;
      float steal_dist = -1.0f;
      for (size_t c2 = 0; c2 < clusters.size(); ++c2) {
        if (clusters[c2].size() <= 1) continue;
        for (int64_t node : clusters[c2]) {
          if (d(node, result.medoids[c2]) > steal_dist) {
            steal_dist = d(node, result.medoids[c2]);
            steal_node = node;
            steal_cluster = static_cast<int64_t>(c2);
          }
        }
      }
      auto& donor = clusters[static_cast<size_t>(steal_cluster)];
      donor.erase(std::find(donor.begin(), donor.end(), steal_node));
      clusters[c].push_back(steal_node);
    }
    std::vector<int64_t> new_medoids;
    for (const Hyperedge& members : clusters) {
      int64_t best = members[0];
      double best_mean = std::numeric_limits<double>::infinity();
      for (int64_t candidate : members) {
        double total = 0.0;
        for (int64_t other : members) total += d(candidate, other);
        double mean = total / static_cast<double>(members.size());
        if (mean < best_mean || (mean == best_mean && candidate < best)) {
          best_mean = mean;
          best = candidate;
        }
      }
      new_medoids.push_back(best);
    }
    result.clusters = std::move(clusters);
    if (new_medoids == result.medoids) {
      result.converged = true;
      break;
    }
    result.medoids = std::move(new_medoids);
  }
  return result;
}

/// The edges (and weights) of `a` followed by those of `b`.
inline Hypergraph UnionWith(const Hypergraph& a, const Hypergraph& b) {
  std::vector<Hyperedge> edges = a.edges();
  edges.insert(edges.end(), b.edges().begin(), b.edges().end());
  std::vector<float> weights = a.edge_weights();
  weights.insert(weights.end(), b.edge_weights().begin(),
                 b.edge_weights().end());
  return Hypergraph(a.num_vertices(), std::move(edges), std::move(weights));
}

/// One frame's topology (V, F): K-NN edges united with K-means clusters,
/// K-means seeded from (options.seed, frame_seed).
inline Hypergraph DynamicTopologyHypergraph(
    const Tensor& features, const DynamicTopologyOptions& options,
    uint64_t frame_seed) {
  const int64_t v = features.dim(0);
  Rng rng(options.seed * 1000003ULL + frame_seed);
  Hypergraph common(v, oracles::KnnHyperedges(features, options.kn));
  Hypergraph global(v, oracles::KMeansClusters(features, options.km, rng,
                                               options.kmeans_max_iters)
                           .clusters);
  return oracles::UnionWith(common, global);
}

/// (N, C, T, V) -> (N, T, V, V): per sample and frame, gather the (V, C)
/// features, build the frame's Hypergraph and take the dense-factor
/// Eq. 5.
inline Tensor DynamicTopologyOperators(const Tensor& features,
                                       const DynamicTopologyOptions& options) {
  const int64_t n = features.dim(0), c = features.dim(1),
                t = features.dim(2), v = features.dim(3);
  Tensor ops({n, t, v, v});
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t tt = 0; tt < t; ++tt) {
      Tensor frame({v, c});
      for (int64_t j = 0; j < v; ++j) {
        for (int64_t ch = 0; ch < c; ++ch) {
          frame.at(j, ch) = features.data()[((b * c + ch) * t + tt) * v + j];
        }
      }
      Tensor op = oracles::NormalizedHypergraphOperator(
          oracles::DynamicTopologyHypergraph(frame, options,
                                             static_cast<uint64_t>(tt)));
      std::copy(op.data(), op.data() + v * v,
                ops.data() + (b * t + tt) * v * v);
    }
  }
  return ops;
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

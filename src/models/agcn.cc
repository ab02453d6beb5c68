#include "models/agcn.h"

#include <algorithm>

#include "base/check.h"
#include "base/string_util.h"
#include "tensor/tensor_ops.h"

namespace dhgcn {

AdaptiveSpatial::AdaptiveSpatial(int64_t in_channels, int64_t out_channels,
                                 Tensor base_op, Rng& rng,
                                 int64_t embed_channels)
    : base_op_(std::move(base_op)) {
  DHGCN_CHECK_EQ(base_op_.ndim(), 2);
  DHGCN_CHECK_EQ(base_op_.dim(0), base_op_.dim(1));
  embed_channels_ =
      embed_channels > 0 ? embed_channels : std::max<int64_t>(4, out_channels / 4);
  Conv2dOptions one_by_one;
  w_ = std::make_unique<Conv2d>(in_channels, out_channels, one_by_one, rng);
  theta_ = std::make_unique<Conv2d>(in_channels, embed_channels_, one_by_one,
                                    rng);
  phi_ = std::make_unique<Conv2d>(in_channels, embed_channels_, one_by_one,
                                  rng);
  // B starts near zero so early training follows the structural prior A,
  // as in the 2s-AGCN initialization.
  b_ = Tensor::RandomNormal(base_op_.shape(), rng, 0.0f, 1e-3f);
  b_grad_ = Tensor(base_op_.shape());
}

Tensor AdaptiveSpatial::ForwardImpl(const Tensor& input, Workspace* /*ws*/) {
  DHGCN_CHECK_EQ(input.ndim(), 4);
  int64_t v = input.dim(3);
  DHGCN_CHECK_EQ(v, base_op_.dim(0));
  cached_h_ = w_->Forward(input);
  cached_e1_ = theta_->Forward(input);
  cached_e2_ = phi_->Forward(input);
  int64_t n = input.dim(0), t = input.dim(2);
  int64_t ce = embed_channels_;
  float scale = 1.0f / static_cast<float>(ce * t);

  // Similarity S[n,v,u] = scale * sum_{c,t} e1[n,c,t,v] e2[n,c,t,u].
  Tensor scores({n, v, v});
  const float* p1 = cached_e1_.data();
  const float* p2 = cached_e2_.data();
  float* ps = scores.data();
  int64_t plane = t * v;
  for (int64_t b = 0; b < n; ++b) {
    float* smat = ps + b * v * v;
    for (int64_t c = 0; c < ce; ++c) {
      const float* e1p = p1 + (b * ce + c) * plane;
      const float* e2p = p2 + (b * ce + c) * plane;
      for (int64_t tt = 0; tt < t; ++tt) {
        const float* row1 = e1p + tt * v;
        const float* row2 = e2p + tt * v;
        for (int64_t vi = 0; vi < v; ++vi) {
          float a = row1[vi];
          if (a == 0.0f) continue;
          float* srow = smat + vi * v;
          for (int64_t u = 0; u < v; ++u) srow[u] += a * row2[u];
        }
      }
    }
  }
  MulScalarInPlace(scores, scale);
  cached_attention_ = Softmax(scores, /*axis=*/2);  // rows sum to 1

  // Aggregate: y[n,c,t,v'] = sum_u (A + B + C[n])[v',u] h[n,c,t,u].
  int64_t cout = cached_h_.dim(1);
  Tensor out({n, cout, t, v});
  const float* ph = cached_h_.data();
  const float* pa = base_op_.data();
  const float* pb = b_.data();
  const float* pc = cached_attention_.data();
  float* po = out.data();
  std::vector<float> m(static_cast<size_t>(v * v));
  for (int64_t b = 0; b < n; ++b) {
    const float* cmat = pc + b * v * v;
    for (int64_t i = 0; i < v * v; ++i) m[static_cast<size_t>(i)] =
        pa[i] + pb[i] + cmat[i];
    for (int64_t c = 0; c < cout; ++c) {
      const float* hplane = ph + (b * cout + c) * plane;
      float* oplane = po + (b * cout + c) * plane;
      for (int64_t tt = 0; tt < t; ++tt) {
        const float* hrow = hplane + tt * v;
        float* orow = oplane + tt * v;
        for (int64_t vi = 0; vi < v; ++vi) {
          const float* mrow = m.data() + vi * v;
          double acc = 0.0;
          for (int64_t u = 0; u < v; ++u) {
            acc += static_cast<double>(mrow[u]) * hrow[u];
          }
          orow[vi] = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

Tensor AdaptiveSpatial::BackwardImpl(const Tensor& grad_output,
                                     Workspace* /*ws*/) {
  int64_t n = grad_output.dim(0), cout = grad_output.dim(1),
          t = grad_output.dim(2), v = grad_output.dim(3);
  DHGCN_CHECK_EQ(cout, cached_h_.dim(1));
  int64_t plane = t * v;
  int64_t ce = embed_channels_;
  float scale = 1.0f / static_cast<float>(ce * t);

  const float* pg = grad_output.data();
  const float* ph = cached_h_.data();
  const float* pa = base_op_.data();
  const float* pb = b_.data();
  const float* pc = cached_attention_.data();

  Tensor grad_h(cached_h_.shape());
  Tensor grad_m({n, v, v});  // d loss / d M[n]
  float* pgh = grad_h.data();
  float* pgm = grad_m.data();
  std::vector<float> m(static_cast<size_t>(v * v));
  for (int64_t b = 0; b < n; ++b) {
    const float* cmat = pc + b * v * v;
    for (int64_t i = 0; i < v * v; ++i) m[static_cast<size_t>(i)] =
        pa[i] + pb[i] + cmat[i];
    float* gm = pgm + b * v * v;
    for (int64_t c = 0; c < cout; ++c) {
      const float* gplane = pg + (b * cout + c) * plane;
      const float* hplane = ph + (b * cout + c) * plane;
      float* ghplane = pgh + (b * cout + c) * plane;
      for (int64_t tt = 0; tt < t; ++tt) {
        const float* grow = gplane + tt * v;
        const float* hrow = hplane + tt * v;
        float* ghrow = ghplane + tt * v;
        for (int64_t vi = 0; vi < v; ++vi) {
          float g = grow[vi];
          if (g == 0.0f) continue;
          const float* mrow = m.data() + vi * v;
          float* gmrow = gm + vi * v;
          for (int64_t u = 0; u < v; ++u) {
            ghrow[u] += g * mrow[u];  // dh = M^T dy
            gmrow[u] += g * hrow[u];  // dM = dy h^T
          }
        }
      }
    }
  }

  // dB accumulates over samples.
  {
    float* pgb = b_grad_.data();
    for (int64_t b = 0; b < n; ++b) {
      const float* gm = pgm + b * v * v;
      for (int64_t i = 0; i < v * v; ++i) pgb[i] += gm[i];
    }
  }

  // Through the row-softmax: dS = C * (dC - rowsum(dC * C)).
  Tensor grad_scores({n, v, v});
  {
    const float* pgc = grad_m.data();  // dC == dM
    float* pgs = grad_scores.data();
    for (int64_t b = 0; b < n; ++b) {
      for (int64_t vi = 0; vi < v; ++vi) {
        const float* crow = pc + (b * v + vi) * v;
        const float* gcrow = pgc + (b * v + vi) * v;
        float* gsrow = pgs + (b * v + vi) * v;
        double inner = 0.0;
        for (int64_t u = 0; u < v; ++u) {
          inner += static_cast<double>(gcrow[u]) * crow[u];
        }
        for (int64_t u = 0; u < v; ++u) {
          gsrow[u] = crow[u] * (gcrow[u] - static_cast<float>(inner));
        }
      }
    }
  }

  // Through the similarity: dE1[n,c,t,v] = scale * sum_u dS[n,v,u] e2[..u],
  //                          dE2[n,c,t,u] = scale * sum_v dS[n,v,u] e1[..v].
  Tensor grad_e1(cached_e1_.shape());
  Tensor grad_e2(cached_e2_.shape());
  {
    const float* p1 = cached_e1_.data();
    const float* p2 = cached_e2_.data();
    const float* pgs = grad_scores.data();
    float* pg1 = grad_e1.data();
    float* pg2 = grad_e2.data();
    for (int64_t b = 0; b < n; ++b) {
      const float* smat = pgs + b * v * v;
      for (int64_t c = 0; c < ce; ++c) {
        const float* e1p = p1 + (b * ce + c) * plane;
        const float* e2p = p2 + (b * ce + c) * plane;
        float* g1p = pg1 + (b * ce + c) * plane;
        float* g2p = pg2 + (b * ce + c) * plane;
        for (int64_t tt = 0; tt < t; ++tt) {
          const float* row1 = e1p + tt * v;
          const float* row2 = e2p + tt * v;
          float* grow1 = g1p + tt * v;
          float* grow2 = g2p + tt * v;
          for (int64_t vi = 0; vi < v; ++vi) {
            const float* srow = smat + vi * v;
            double acc = 0.0;
            float e1v = row1[vi];
            for (int64_t u = 0; u < v; ++u) {
              acc += static_cast<double>(srow[u]) * row2[u];
              grow2[u] += scale * srow[u] * e1v;
            }
            grow1[vi] += scale * static_cast<float>(acc);
          }
        }
      }
    }
  }

  Tensor grad_input = w_->Backward(grad_h);
  AddInPlace(grad_input, theta_->Backward(grad_e1));
  AddInPlace(grad_input, phi_->Backward(grad_e2));
  return grad_input;
}

std::vector<ParamRef> AdaptiveSpatial::Params() {
  std::vector<ParamRef> params;
  auto append = [&params](const char* prefix, Layer* layer) {
    for (ParamRef p : layer->Params()) {
      p.name = std::string(prefix) + "." + p.name;
      params.push_back(p);
    }
  };
  append("w", w_.get());
  append("theta", theta_.get());
  append("phi", phi_.get());
  params.push_back({"B", &b_, &b_grad_});
  return params;
}

void AdaptiveSpatial::SetTraining(bool training) {
  Layer::SetTraining(training);
  w_->SetTraining(training);
  theta_->SetTraining(training);
  phi_->SetTraining(training);
}

std::string AdaptiveSpatial::name() const {
  return StrCat("AdaptiveSpatial(V=", base_op_.dim(0), ")");
}

LayerPtr MakeAgcnModel(SkeletonLayoutType layout, int64_t num_classes,
                       const BaselineScale& scale, uint64_t seed) {
  const SkeletonLayout& l = GetSkeletonLayout(layout);
  Tensor adjacency = SkeletonGraph(l).NormalizedAdjacency();
  Rng rng(seed);
  std::vector<LayerPtr> blocks;
  int64_t in_channels = 3;
  for (size_t i = 0; i < scale.channels.size(); ++i) {
    int64_t out_channels = scale.channels[i];
    auto spatial = std::make_unique<AdaptiveSpatial>(
        in_channels, out_channels, adjacency.Clone(), rng);
    blocks.push_back(std::make_unique<StBlock>(
        std::move(spatial), in_channels, out_channels, scale.strides[i],
        rng));
    in_channels = out_channels;
  }
  return std::make_unique<BackboneClassifier>(
      "2s-AGCN", 3, in_channels, num_classes, std::move(blocks),
      scale.dropout, rng);
}

}  // namespace dhgcn

#include "nn/batchnorm.h"

#include <cmath>

#include "base/check.h"
#include "base/string_util.h"
#include "base/thread_pool.h"
#include "plan/plan_builder.h"
#include "tensor/workspace.h"

namespace dhgcn {

namespace {

// Interprets (N,C), (N,C,L) or (N,C,H,W) uniformly as (N, C, spatial).
struct NormView {
  int64_t n;
  int64_t c;
  int64_t spatial;
};

NormView MakeView(const Shape& shape) {
  DHGCN_CHECK_GE(shape.size(), 2u);
  NormView v{shape[0], shape[1], 1};
  for (size_t i = 2; i < shape.size(); ++i) v.spatial *= shape[i];
  return v;
}

}  // namespace

BatchNorm2d::BatchNorm2d(int64_t channels, float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_(Tensor::Ones({channels})),
      gamma_grad_({channels}),
      beta_({channels}),
      beta_grad_({channels}),
      running_mean_({channels}),
      running_var_(Tensor::Ones({channels})) {
  DHGCN_CHECK_GT(channels, 0);
}

Tensor BatchNorm2d::ForwardImpl(const Tensor& input, Workspace* ws) {
  NormView v = MakeView(input.shape());
  DHGCN_CHECK_EQ(v.c, channels_);
  cached_shape_ = input.shape();
  cached_was_training_ = training();
  Tensor out = NewTensor(ws, input.shape());
  const float* px = input.data();
  float* po = out.data();

  // Channels are independent: each channel's chunk writes only its own
  // slices of out/xhat and its own [c] statistics, and the per-channel
  // moment reduction stays a single serial double accumulation — so the
  // result is bit-identical for every thread count.
  if (training()) {
    int64_t count = v.n * v.spatial;
    DHGCN_CHECK_GT(count, 0);
    const double count_d = static_cast<double>(count);
    cached_xhat_ = NewTensor(ws, input.shape());
    cached_inv_std_ = NewTensor(ws, {channels_});
    float* pxhat = cached_xhat_.data();
    float* pinv_std = cached_inv_std_.data();
    const float* pgamma = gamma_.data();
    const float* pbeta = beta_.data();
    float* prmean = running_mean_.data();
    float* prvar = running_var_.data();
    ThreadPool::Get().ParallelFor(
        0, channels_, GrainForFlops(count), [&](int64_t c0, int64_t c1) {
          for (int64_t c = c0; c < c1; ++c) {
            double sum = 0.0, sum_sq = 0.0;
            for (int64_t b = 0; b < v.n; ++b) {
              const float* base = px + (b * v.c + c) * v.spatial;
              for (int64_t s = 0; s < v.spatial; ++s) {
                sum += base[s];
                sum_sq += static_cast<double>(base[s]) * base[s];
              }
            }
            double mean = sum / count_d;
            double var = sum_sq / count_d - mean * mean;
            var = std::max(var, 0.0);
            float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps_));
            pinv_std[c] = inv_std;
            float g = pgamma[c], bta = pbeta[c];
            for (int64_t b = 0; b < v.n; ++b) {
              const float* base = px + (b * v.c + c) * v.spatial;
              float* xhat_base = pxhat + (b * v.c + c) * v.spatial;
              float* obase = po + (b * v.c + c) * v.spatial;
              for (int64_t s = 0; s < v.spatial; ++s) {
                float xhat = (base[s] - static_cast<float>(mean)) * inv_std;
                xhat_base[s] = xhat;
                obase[s] = g * xhat + bta;
              }
            }
            // Unbiased variance for the running estimate, as in PyTorch.
            double unbiased =
                count > 1 ? var * count_d / static_cast<double>(count - 1)
                          : var;
            prmean[c] = (1.0f - momentum_) * prmean[c] +
                        momentum_ * static_cast<float>(mean);
            prvar[c] = (1.0f - momentum_) * prvar[c] +
                       momentum_ * static_cast<float>(unbiased);
          }
        });
  } else {
    EvalPlan(input, &out);
  }
  return out;
}

void BatchNorm2d::EvalPlan(const Tensor& input, Tensor* out) const {
  NormView v = MakeView(input.shape());
  DHGCN_CHECK_EQ(v.c, channels_);
  DHGCN_CHECK(ShapesEqual(out->shape(), input.shape()));
  const float* px = input.data();
  float* po = out->data();
  const float* pgamma = gamma_.data();
  const float* pbeta = beta_.data();
  const float* prmean = running_mean_.data();
  const float* prvar = running_var_.data();
  ThreadPool::Get().ParallelFor(
      0, channels_, GrainForFlops(v.n * v.spatial),
      [&](int64_t c0, int64_t c1) {
        for (int64_t c = c0; c < c1; ++c) {
          float mean = prmean[c];
          float inv_std = 1.0f / std::sqrt(prvar[c] + eps_);
          float g = pgamma[c], bta = pbeta[c];
          for (int64_t b = 0; b < v.n; ++b) {
            const float* base = px + (b * v.c + c) * v.spatial;
            float* obase = po + (b * v.c + c) * v.spatial;
            for (int64_t s = 0; s < v.spatial; ++s) {
              obase[s] = g * (base[s] - mean) * inv_std + bta;
            }
          }
        }
      });
}

int64_t BatchNorm2d::Record(PlanBuilder& builder, int64_t in) {
  const Shape& s = builder.slot_shape(in);
  if (s.size() < 2 || s[1] != channels_) return -1;
  PlanOp op;
  op.kind = PlanOpKind::kBatchNormEval;
  op.in0 = in;
  op.out = builder.AddSlot(s);
  op.bn = this;
  int64_t out = op.out;
  builder.AddOp(std::move(op));
  return out;
}

Tensor BatchNorm2d::BackwardImpl(const Tensor& grad_output, Workspace* ws) {
  DHGCN_CHECK(ShapesEqual(grad_output.shape(), cached_shape_));
  DHGCN_CHECK(cached_was_training_);  // backward only defined for training
  NormView v = MakeView(cached_shape_);
  const double count_d = static_cast<double>(v.n * v.spatial);
  Tensor grad_input = NewTensor(ws, cached_shape_);
  const float* pg = grad_output.data();
  const float* pxhat = cached_xhat_.data();
  float* pgi = grad_input.data();

  float* pgg = gamma_grad_.data();
  float* pbg = beta_grad_.data();
  const float* pgamma = gamma_.data();
  const float* pinv_std = cached_inv_std_.data();
  // Channel-parallel like the forward pass: per-channel reductions and
  // writes touch only index [c] and that channel's slices.
  ThreadPool::Get().ParallelFor(
      0, channels_, GrainForFlops(v.n * v.spatial),
      [&](int64_t c0, int64_t c1) {
        for (int64_t c = c0; c < c1; ++c) {
          // Accumulate dL/dgamma, dL/dbeta and the two reduction terms of
          // the standard batch-norm backward formula.
          double sum_g = 0.0, sum_g_xhat = 0.0;
          for (int64_t b = 0; b < v.n; ++b) {
            const float* gbase = pg + (b * v.c + c) * v.spatial;
            const float* xbase = pxhat + (b * v.c + c) * v.spatial;
            for (int64_t s = 0; s < v.spatial; ++s) {
              sum_g += gbase[s];
              sum_g_xhat += static_cast<double>(gbase[s]) * xbase[s];
            }
          }
          pgg[c] += static_cast<float>(sum_g_xhat);
          pbg[c] += static_cast<float>(sum_g);
          float g = pgamma[c];
          float inv_std = pinv_std[c];
          float mean_g = static_cast<float>(sum_g / count_d);
          float mean_g_xhat = static_cast<float>(sum_g_xhat / count_d);
          for (int64_t b = 0; b < v.n; ++b) {
            const float* gbase = pg + (b * v.c + c) * v.spatial;
            const float* xbase = pxhat + (b * v.c + c) * v.spatial;
            float* gibase = pgi + (b * v.c + c) * v.spatial;
            for (int64_t s = 0; s < v.spatial; ++s) {
              gibase[s] =
                  g * inv_std * (gbase[s] - mean_g - xbase[s] * mean_g_xhat);
            }
          }
        }
      });
  return grad_input;
}

std::vector<ParamRef> BatchNorm2d::Params() {
  return {{"gamma", &gamma_, &gamma_grad_, /*trainable=*/true},
          {"beta", &beta_, &beta_grad_, /*trainable=*/true},
          // Running statistics: persistent but not optimized. They must
          // be serialized or a reloaded model evaluates with fresh
          // (wrong) statistics.
          {"running_mean", &running_mean_, nullptr, /*trainable=*/false},
          {"running_var", &running_var_, nullptr, /*trainable=*/false}};
}

std::string BatchNorm2d::name() const {
  return StrCat("BatchNorm2d(", channels_, ")");
}

}  // namespace dhgcn

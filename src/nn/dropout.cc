#include "nn/dropout.h"

#include "base/check.h"
#include "base/string_util.h"
#include "tensor/workspace.h"

namespace dhgcn {

Dropout::Dropout(float p, Rng& rng) : p_(p), rng_(rng.Split()) {
  DHGCN_CHECK(p >= 0.0f && p < 1.0f);
}

Tensor Dropout::ForwardImpl(const Tensor& input, Workspace* ws) {
  cached_was_training_ = training();
  if (!training() || p_ == 0.0f) return input;
  float scale = 1.0f / (1.0f - p_);
  cached_mask_ = NewTensor(ws, input.shape());
  Tensor out = NewTensor(ws, input.shape());
  const float* px = input.data();
  float* po = out.data();
  float* pm = cached_mask_.data();
  for (int64_t i = 0; i < input.numel(); ++i) {
    float keep = rng_.Bernoulli(p_) ? 0.0f : scale;
    pm[i] = keep;
    po[i] = px[i] * keep;
  }
  return out;
}

Tensor Dropout::BackwardImpl(const Tensor& grad_output, Workspace* ws) {
  if (!cached_was_training_ || p_ == 0.0f) return grad_output;
  DHGCN_CHECK(ShapesEqual(grad_output.shape(), cached_mask_.shape()));
  Tensor grad_input = NewTensor(ws, grad_output.shape());
  const float* pg = grad_output.data();
  const float* pm = cached_mask_.data();
  float* po = grad_input.data();
  for (int64_t i = 0; i < grad_output.numel(); ++i) po[i] = pg[i] * pm[i];
  return grad_input;
}

std::string Dropout::name() const { return StrCat("Dropout(", p_, ")"); }

int64_t Dropout::Record(PlanBuilder& builder, int64_t in) {
  // Inference dropout is the identity: pass the producer slot through
  // without emitting an op, so the plan carries no trace of dropout (and
  // replay cannot touch the RNG).
  (void)builder;
  return in;
}

}  // namespace dhgcn

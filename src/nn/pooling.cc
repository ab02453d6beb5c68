#include "nn/pooling.h"

#include "base/check.h"
#include "plan/plan_builder.h"
#include "tensor/workspace.h"

namespace dhgcn {

Tensor GlobalAvgPool2d::ForwardImpl(const Tensor& input, Workspace* ws) {
  DHGCN_CHECK_EQ(input.ndim(), 4);
  cached_input_shape_ = input.shape();
  Tensor out = NewTensor(ws, {input.dim(0), input.dim(1)});
  EvalPlan(input, &out);
  return out;
}

void GlobalAvgPool2d::EvalPlan(const Tensor& input, Tensor* out) const {
  DHGCN_CHECK_EQ(input.ndim(), 4);
  int64_t n = input.dim(0), c = input.dim(1);
  int64_t spatial = input.dim(2) * input.dim(3);
  DHGCN_CHECK(ShapesEqual(out->shape(), Shape{n, c}));
  const float* px = input.data();
  float* po = out->data();
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* base = px + (b * c + ch) * spatial;
      double sum = 0.0;
      for (int64_t s = 0; s < spatial; ++s) sum += base[s];
      po[b * c + ch] = static_cast<float>(sum / static_cast<double>(spatial));
    }
  }
}

int64_t GlobalAvgPool2d::Record(PlanBuilder& builder, int64_t in) {
  const Shape& s = builder.slot_shape(in);
  if (s.size() != 4) return -1;
  PlanOp op;
  op.kind = PlanOpKind::kGlobalAvgPool;
  op.in0 = in;
  op.out = builder.AddSlot({s[0], s[1]});
  op.pool = this;
  int64_t out = op.out;
  builder.AddOp(std::move(op));
  return out;
}

Tensor GlobalAvgPool2d::BackwardImpl(const Tensor& grad_output, Workspace* ws) {
  DHGCN_CHECK_EQ(grad_output.ndim(), 2);
  int64_t n = cached_input_shape_[0], c = cached_input_shape_[1];
  int64_t spatial = cached_input_shape_[2] * cached_input_shape_[3];
  DHGCN_CHECK_EQ(grad_output.dim(0), n);
  DHGCN_CHECK_EQ(grad_output.dim(1), c);
  Tensor grad_input = NewTensor(ws, cached_input_shape_);
  const float* pg = grad_output.data();
  float* po = grad_input.data();
  float inv = 1.0f / static_cast<float>(spatial);
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t ch = 0; ch < c; ++ch) {
      float g = pg[b * c + ch] * inv;
      float* base = po + (b * c + ch) * spatial;
      for (int64_t s = 0; s < spatial; ++s) base[s] = g;
    }
  }
  return grad_input;
}

Tensor GlobalAvgPool2d::Forward(const Tensor& input) {
  return ForwardImpl(input, nullptr);
}

Tensor GlobalAvgPool2d::Backward(const Tensor& grad_output) {
  return BackwardImpl(grad_output, nullptr);
}

void GlobalAvgPool2d::ForwardInto(const Tensor& input, Workspace& ws,
                                  Tensor* out) {
  DHGCN_CHECK(out != nullptr);
  *out = ForwardImpl(input, &ws);
}

void GlobalAvgPool2d::BackwardInto(const Tensor& grad_output, Workspace& ws,
                                   Tensor* grad_input) {
  DHGCN_CHECK(grad_input != nullptr);
  *grad_input = BackwardImpl(grad_output, &ws);
}

}  // namespace dhgcn

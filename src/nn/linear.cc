#include "nn/linear.h"

#include "base/string_util.h"
#include "nn/initializer.h"
#include "plan/plan_builder.h"
#include "tensor/linalg.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"

namespace dhgcn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng,
               bool has_bias)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(has_bias),
      weight_({out_features, in_features}),
      weight_grad_({out_features, in_features}),
      bias_({out_features}),
      bias_grad_({out_features}) {
  KaimingUniform(weight_, in_features, rng);
  if (has_bias_) BiasUniform(bias_, in_features, rng);
}

Tensor Linear::ForwardImpl(const Tensor& input, Workspace* ws) {
  DHGCN_CHECK_GE(input.ndim(), 2);
  DHGCN_CHECK_EQ(input.dim(-1), in_features_);
  cached_input_shape_ = input.shape();
  Tensor x2d = input.Reshape({-1, in_features_});
  cached_input_2d_ = x2d;
  Tensor y = NewTensor(ws, {x2d.dim(0), out_features_});
  RunLinear(x2d, weight_, has_bias_ ? bias_.data() : nullptr, &y);
  Shape out_shape = cached_input_shape_;
  out_shape.back() = out_features_;
  return y.Reshape(std::move(out_shape));
}

void Linear::RunLinear(const Tensor& x2d, const Tensor& w, const float* pb,
                       Tensor* y) const {
  // y = x W^T: (rows,in) x (out,in)^T -> (rows,out)
  MatMulTransposedBInto(x2d, w, y);
  if (pb != nullptr) {
    float* py = y->data();
    int64_t rows = y->dim(0);
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < out_features_; ++c) {
        py[r * out_features_ + c] += pb[c];
      }
    }
  }
}

void Linear::ForwardPlan(const Tensor& input, const Tensor* weight,
                         const Tensor* bias, Tensor* out) const {
  DHGCN_CHECK(out != nullptr);
  DHGCN_CHECK_EQ(input.ndim(), 2);
  DHGCN_CHECK_EQ(input.dim(1), in_features_);
  DHGCN_CHECK(ShapesEqual(out->shape(), Shape{input.dim(0), out_features_}));
  const Tensor& w = weight != nullptr ? *weight : weight_;
  const float* pb = nullptr;
  if (bias != nullptr) {
    pb = bias->data();
  } else if (has_bias_) {
    pb = bias_.data();
  }
  RunLinear(input, w, pb, out);
}

int64_t Linear::Record(PlanBuilder& builder, int64_t in) {
  const Shape& s = builder.slot_shape(in);
  if (s.size() != 2 || s[1] != in_features_) return -1;
  PlanOp op;
  op.kind = PlanOpKind::kLinear;
  op.in0 = in;
  op.out = builder.AddSlot({s[0], out_features_});
  op.linear = this;
  int64_t out = op.out;
  builder.AddOp(std::move(op));
  return out;
}

Tensor Linear::BackwardImpl(const Tensor& grad_output, Workspace* ws) {
  DHGCN_CHECK_EQ(grad_output.dim(-1), out_features_);
  Tensor g2d = grad_output.Reshape({-1, out_features_});
  DHGCN_CHECK_EQ(g2d.dim(0), cached_input_2d_.dim(0));
  // dW = g^T x : (out, rows) x (rows, in) -> (out, in), accumulated
  // directly into the gradient without a scratch product.
  MatMulTransposedAInto(g2d, cached_input_2d_, &weight_grad_,
                        /*accumulate=*/true);
  if (has_bias_) {
    Tensor db = NewTensor(ws, {out_features_});
    ReduceSumInto(g2d, 0, /*keepdim=*/false, &db);
    AddInPlace(bias_grad_, db);
  }
  // dx = g W : (rows, out) x (out, in) -> (rows, in)
  Tensor dx = NewTensor(ws, {g2d.dim(0), in_features_});
  MatMulInto(g2d, weight_, &dx);
  return dx.Reshape(cached_input_shape_);
}

std::vector<ParamRef> Linear::Params() {
  std::vector<ParamRef> params = {{"weight", &weight_, &weight_grad_}};
  if (has_bias_) params.push_back({"bias", &bias_, &bias_grad_});
  return params;
}

std::string Linear::name() const {
  return StrCat("Linear(", in_features_, "->", out_features_, ")");
}

}  // namespace dhgcn

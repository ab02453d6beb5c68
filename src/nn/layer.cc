#include "nn/layer.h"

namespace dhgcn {

void Layer::ForwardInto(const Tensor& input, Workspace& ws, Tensor* out) {
  DHGCN_CHECK(out != nullptr);
  *out = ForwardImpl(input, &ws);
}

void Layer::BackwardInto(const Tensor& grad_output, Workspace& ws,
                         Tensor* grad_input) {
  DHGCN_CHECK(grad_input != nullptr);
  *grad_input = BackwardImpl(grad_output, &ws);
}

int64_t Layer::Record(PlanBuilder& builder, int64_t in) {
  (void)builder;
  (void)in;
  return -1;  // Not capturable; callers fall back to layer-by-layer.
}

void Layer::ZeroGrad() {
  for (ParamRef& p : Params()) {
    if (p.grad != nullptr) p.grad->Fill(0.0f);
  }
}

int64_t Layer::ParameterCount() {
  int64_t count = 0;
  for (ParamRef& p : Params()) {
    if (p.trainable) count += p.value->numel();
  }
  return count;
}

}  // namespace dhgcn

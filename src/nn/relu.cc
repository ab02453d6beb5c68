#include "nn/relu.h"

#include "base/check.h"
#include "base/thread_pool.h"
#include "plan/plan_builder.h"
#include "tensor/workspace.h"

namespace dhgcn {

void ReLU::EvalPlan(const Tensor& input, Tensor* out) {
  DHGCN_CHECK(ShapesEqual(out->shape(), input.shape()));
  const float* px = input.data();
  float* po = out->data();
  ThreadPool::Get().ParallelFor(
      0, input.numel(), GrainForFlops(1), [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          po[i] = px[i] > 0.0f ? px[i] : 0.0f;
        }
      });
}

int64_t ReLU::Record(PlanBuilder& builder, int64_t in) {
  PlanOp op;
  op.kind = PlanOpKind::kRelu;
  op.in0 = in;
  op.out = builder.AddSlot(builder.slot_shape(in));
  int64_t out = op.out;
  builder.AddOp(std::move(op));
  return out;
}

Tensor ReLU::ForwardImpl(const Tensor& input, Workspace* ws) {
  Tensor out = NewTensor(ws, input.shape());
  // The mask only lives until Backward, well before the next Reset, so
  // it can ride the arena too.
  cached_mask_ = NewTensor(ws, input.shape());
  const float* px = input.data();
  float* po = out.data();
  float* pm = cached_mask_.data();
  ThreadPool::Get().ParallelFor(
      0, input.numel(), GrainForFlops(1), [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          bool positive = px[i] > 0.0f;
          po[i] = positive ? px[i] : 0.0f;
          pm[i] = positive ? 1.0f : 0.0f;
        }
      });
  return out;
}

Tensor ReLU::BackwardImpl(const Tensor& grad_output, Workspace* ws) {
  DHGCN_CHECK(ShapesEqual(grad_output.shape(), cached_mask_.shape()));
  Tensor grad_input = NewTensor(ws, grad_output.shape());
  const float* pg = grad_output.data();
  const float* pm = cached_mask_.data();
  float* po = grad_input.data();
  ThreadPool::Get().ParallelFor(
      0, grad_output.numel(), GrainForFlops(1), [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) po[i] = pg[i] * pm[i];
      });
  return grad_input;
}

}  // namespace dhgcn

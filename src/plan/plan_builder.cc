#include "plan/plan_builder.h"

#include <utility>

#include "base/check.h"
#include "nn/layer.h"
#include "plan/fusion.h"

namespace dhgcn {

int64_t PlanBuilder::AddSlot(Shape shape) {
  DHGCN_CHECK_GT(ShapeNumel(shape), 0);
  plan_.slots.push_back(PlanSlot{std::move(shape), -1});
  return static_cast<int64_t>(plan_.slots.size()) - 1;
}

int64_t PlanBuilder::AddOp(PlanOp op) {
  auto check_slot = [this](int64_t slot) {
    DHGCN_CHECK_GE(slot, 0);
    DHGCN_CHECK_LT(slot, static_cast<int64_t>(plan_.slots.size()));
  };
  check_slot(op.in0);
  check_slot(op.out);
  if (op.in1 >= 0) check_slot(op.in1);
  plan_.ops.push_back(std::move(op));
  return static_cast<int64_t>(plan_.ops.size()) - 1;
}

const Shape& PlanBuilder::slot_shape(int64_t slot) const {
  DHGCN_CHECK_GE(slot, 0);
  DHGCN_CHECK_LT(slot, static_cast<int64_t>(plan_.slots.size()));
  return plan_.slots[static_cast<size_t>(slot)].shape;
}

ExecutionPlan PlanBuilder::Take(int64_t input_slot, int64_t output_slot) {
  DHGCN_CHECK_GE(input_slot, 0);
  DHGCN_CHECK_GE(output_slot, 0);
  plan_.input_slot = input_slot;
  plan_.output_slot = output_slot;
  ExecutionPlan out = std::move(plan_);
  plan_ = ExecutionPlan();
  return out;
}

Result<ExecutionPlan> CaptureInferencePlan(Layer& model,
                                           const Shape& input_shape) {
  if (model.training()) {
    return Status::FailedPrecondition(
        "plan capture requires eval mode; call SetTraining(false) first");
  }
  if (ShapeNumel(input_shape) <= 0) {
    return Status::InvalidArgument("plan capture needs a non-empty shape");
  }
  PlanBuilder builder;
  int64_t in = builder.AddSlot(input_shape);
  int64_t out = model.Record(builder, in);
  if (out < 0) {
    return Status::Unimplemented(
        "model does not support plan capture; falling back to layers");
  }
  if (builder.op_count() == 0) {
    return Status::Unimplemented("model recorded an empty plan");
  }
  return builder.Take(in, out);
}

Result<ExecutionPlan> BuildInferencePlan(Layer& model,
                                         const Shape& input_shape,
                                         PlanMode mode) {
  ExecutionPlan plan;
  DHGCN_ASSIGN_OR_RETURN(plan, CaptureInferencePlan(model, input_shape));
  if (mode == PlanMode::kFused) {
    FoldBatchNorms(&plan);
    FuseElementwise(&plan);
  }
  ResolveOffsets(&plan);
  return plan;
}

}  // namespace dhgcn

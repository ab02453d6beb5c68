#ifndef DHGCN_PLAN_PLAN_BUILDER_H_
#define DHGCN_PLAN_PLAN_BUILDER_H_

#include <cstdint>

#include "base/result.h"
#include "plan/plan.h"

namespace dhgcn {

class Layer;

/// \brief Records a model into an `ExecutionPlan`.
///
/// Layers append ops from their `Record(PlanBuilder&, int64_t)` hooks:
/// allocate output slots with `AddSlot` (shapes propagate at record
/// time — no sample batch runs), read producer shapes back with
/// `slot_shape`, and append ops with `AddOp`. The builder validates
/// slot references; offset packing happens later in `ResolveOffsets`.
class PlanBuilder {
 public:
  PlanBuilder() = default;

  PlanBuilder(const PlanBuilder&) = delete;
  PlanBuilder& operator=(const PlanBuilder&) = delete;

  /// Registers an activation slot of the given shape; returns its id.
  int64_t AddSlot(Shape shape);

  /// Appends an op; all referenced slots must already exist. Returns
  /// the op index.
  int64_t AddOp(PlanOp op);

  const Shape& slot_shape(int64_t slot) const;
  int64_t slot_count() const {
    return static_cast<int64_t>(plan_.slots.size());
  }
  int64_t op_count() const { return static_cast<int64_t>(plan_.ops.size()); }

  /// Finalizes the recording (without resolving offsets — run fusion
  /// passes first, then `ResolveOffsets`). The builder is left empty.
  ExecutionPlan Take(int64_t input_slot, int64_t output_slot);

 private:
  ExecutionPlan plan_;
};

/// Records `model`'s inference computation for a fixed input shape.
/// Requires the model to be in eval mode (`training() == false`) — the
/// plan captures inference semantics (eval BN statistics, identity
/// dropout). Fails if the model (or any layer it delegates to) does not
/// implement `Record`. The returned plan is NOT offset-resolved.
Result<ExecutionPlan> CaptureInferencePlan(Layer& model,
                                           const Shape& input_shape);

/// One-call capture + (optional) fusion + offset resolution:
///  - PlanMode::kUnfused: capture and resolve (bit-identical replay).
///  - PlanMode::kFused:   capture, fold BatchNorm into Conv/Linear,
///    fuse elementwise chains, then resolve (rtol-equivalent replay).
Result<ExecutionPlan> BuildInferencePlan(Layer& model,
                                         const Shape& input_shape,
                                         PlanMode mode);

}  // namespace dhgcn

#endif  // DHGCN_PLAN_PLAN_BUILDER_H_

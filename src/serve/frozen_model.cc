#include "serve/frozen_model.h"

#include <utility>
#include <vector>

#include "base/logging.h"
#include "base/rng.h"
#include "base/string_util.h"
#include "data/skeleton.h"
#include "io/serialization.h"
#include "nn/layer.h"
#include "plan/plan_builder.h"
#include "quant/quantize_pass.h"
#include "tensor/workspace.h"

namespace dhgcn {

FrozenModel::FrozenModel(std::unique_ptr<DhgcnModel> model,
                         const DhgcnConfig& config, int64_t frames,
                         int64_t num_joints, PlanMode plan,
                         Precision precision, QuantCalibration calib)
    : model_(std::move(model)),
      config_(config),
      frames_(frames),
      num_joints_(num_joints),
      plan_mode_(plan),
      precision_(precision),
      calib_(std::move(calib)) {}

Result<std::unique_ptr<FrozenModel>> FrozenModel::Load(
    const std::string& checkpoint_path, const DhgcnConfig& config,
    int64_t frames, PlanMode plan, Precision precision) {
  if (frames < 2) {
    return Status::InvalidArgument(
        StrCat("serving frames must be >= 2, got ", frames));
  }
  DHGCN_ASSIGN_OR_RETURN(std::unique_ptr<DhgcnModel> model,
                         DhgcnModel::Make(config));
  if (!checkpoint_path.empty()) {
    DHGCN_RETURN_IF_ERROR(LoadParameters(checkpoint_path, *model));
  }
  model->SetTraining(false);
  int64_t num_joints = GetSkeletonLayout(config.layout).num_joints;
  QuantCalibration calib;
  if (precision == Precision::kInt8) {
    // Checkpoints carry no calibration data, so calibrate on a
    // deterministic synthetic batch drawn from the load-generator
    // distribution (standard-normal clips, fixed seed): every worker
    // replica computes the identical scales.
    Rng rng(0x5eed);
    Tensor batch({8, config.in_channels, frames, num_joints});
    for (int64_t i = 0; i < batch.numel(); ++i) {
      batch.flat(i) = rng.Normal();
    }
    std::vector<Tensor> inputs;
    inputs.push_back(std::move(batch));
    Result<QuantCalibration> c = CalibrateOnInputs(*model, inputs);
    if (c.ok()) {
      calib = c.MoveValue();
    } else {
      DHGCN_LOG(kWarning) << "int8 calibration failed ("
                          << c.status().ToString() << "); serving fp32";
      precision = Precision::kFp32;
    }
  }
  return std::unique_ptr<FrozenModel>(
      // lint: allow-naked-new — private ctor is unreachable by
      // make_unique; the pointer lands in unique_ptr immediately.
      new FrozenModel(std::move(model), config, frames, num_joints, plan,
                      precision, std::move(calib)));
}

Status FrozenModel::ValidateClipShape(const Tensor& clip) const {
  if (clip.ndim() != 3 || clip.dim(0) != config_.in_channels ||
      clip.dim(1) != frames_ || clip.dim(2) != num_joints_) {
    return Status::InvalidArgument(
        StrCat("clip shape ", ShapeToString(clip.shape()),
               " does not match the served model's (C, T, V) = (",
               config_.in_channels, ", ", frames_, ", ", num_joints_,
               ")"));
  }
  return Status::OK();
}

PlanRunner* FrozenModel::RunnerForBatch(int64_t batch_size,
                                        const Shape& input_shape) {
  const bool int8 = precision_ == Precision::kInt8;
  if ((plan_mode_ == PlanMode::kOff && !int8) || plan_failed_) {
    return nullptr;
  }
  auto it = runners_.find(batch_size);
  if (it != runners_.end()) return it->second.get();
  Result<ExecutionPlan> plan =
      int8 ? BuildInt8InferencePlan(*model_, input_shape, calib_)
           : BuildInferencePlan(*model_, input_shape, plan_mode_);
  if (!plan.ok()) {
    if (int8) {
      // Downgrade this replica to fp32 permanently; existing int8
      // runners for other batch sizes can't exist yet (first compile
      // failure is the only path here) or stay valid regardless.
      DHGCN_LOG(kWarning) << "int8 plan compile failed ("
                          << plan.status().ToString() << "); serving fp32";
      precision_ = Precision::kFp32;
      return RunnerForBatch(batch_size, input_shape);
    }
    DHGCN_LOG(kWarning) << "serving plan capture failed ("
                        << plan.status().ToString()
                        << "); falling back to layer-by-layer inference";
    plan_failed_ = true;
    return nullptr;
  }
  it = runners_
           .emplace(batch_size,
                    std::make_unique<PlanRunner>(std::move(plan).ValueOrDie()))
           .first;
  return it->second.get();
}

Tensor FrozenModel::Forward(const Tensor& batch, Workspace& ws) {
  PlanRunner* runner = RunnerForBatch(batch.dim(0), batch.shape());
  if (runner == nullptr) return model_->Forward(batch, &ws);
  // The runner's output borrows its pinned arena and is overwritten by
  // the next Run; copy the (B, classes) logits into the caller's
  // workspace to keep Forward's borrowed-from-`ws` contract.
  const Tensor& logits = runner->Run(batch);
  Tensor out = NewTensor(&ws, logits.shape());
  out.CopyFrom(logits);
  return out;
}

}  // namespace dhgcn

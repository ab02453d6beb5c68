#include "serve/frozen_model.h"

#include <utility>
#include <vector>

#include "base/logging.h"
#include "base/rng.h"
#include "base/string_util.h"
#include "data/skeleton.h"
#include "io/serialization.h"
#include "quant/calibration.h"

namespace dhgcn {

FrozenModel::FrozenModel(std::unique_ptr<DhgcnModel> model,
                         const DhgcnConfig& config, int64_t frames,
                         int64_t num_joints, PlanMode plan,
                         std::optional<QuantCalibration> calibration)
    : model_(std::move(model)),
      plans_(*model_, plan, std::move(calibration)),
      config_(config),
      frames_(frames),
      num_joints_(num_joints) {}

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
  std::optional<QuantCalibration> calib;
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
    }
  }
  return std::unique_ptr<FrozenModel>(
      // lint: allow-naked-new — private ctor is unreachable by
      // make_unique; the pointer lands in unique_ptr immediately.
      new FrozenModel(std::move(model), config, frames, num_joints, plan,
                      std::move(calib)));
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

}  // namespace dhgcn

#include "plan/plan_cache.h"

#include <utility>

#include "base/logging.h"
#include "nn/layer.h"
#include "plan/plan_builder.h"
#include "quant/quantize_pass.h"

namespace dhgcn {

PlanCache::PlanCache(Layer& model, PlanMode mode,
                     std::optional<QuantCalibration> calibration)
    : model_(model), mode_(mode), calibration_(std::move(calibration)) {}

Tensor PlanCache::Forward(const Tensor& batch, Workspace& ws) {
  if (!layer_path_) {
    auto it = runners_.find(batch.dim(0));
    PlanRunner* runner =
        it != runners_.end() ? it->second.get() : Compile(batch.shape());
    if (runner != nullptr) return runner->Run(batch);
  }
  return model_.Forward(batch, &ws);
}

size_t PlanCache::arena_bytes() const {
  size_t total = 0;
  for (const auto& entry : runners_) total += entry.second->arena_bytes();
  return total;
}

PlanRunner* PlanCache::Compile(const Shape& shape) {
  auto keep = [this, &shape](ExecutionPlan plan) {
    std::unique_ptr<PlanRunner>& runner = runners_[shape[0]];
    runner = std::make_unique<PlanRunner>(std::move(plan));
    return runner.get();
  };
  if (calibration_.has_value()) {
    Result<ExecutionPlan> plan =
        BuildInt8InferencePlan(model_, shape, *calibration_);
    if (plan.ok()) return keep(plan.MoveValue());
    DHGCN_LOG(kWarning) << "int8 plan compile failed ("
                        << plan.status().ToString() << "); running fp32";
    calibration_.reset();
  }
  Result<ExecutionPlan> plan = BuildInferencePlan(model_, shape, mode_);
  if (plan.ok()) return keep(plan.MoveValue());
  if (plan.status().IsUnimplemented()) {
    DHGCN_LOG(kDebug) << "model records no plan; running layer by layer";
  } else {
    DHGCN_LOG(kWarning) << "plan capture failed (" << plan.status().ToString()
                        << "); running layer by layer";
  }
  layer_path_ = true;
  return nullptr;
}

}  // namespace dhgcn

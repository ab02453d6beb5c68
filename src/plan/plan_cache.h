#ifndef DHGCN_PLAN_PLAN_CACHE_H_
#define DHGCN_PLAN_PLAN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>

#include "plan/plan.h"
#include "plan/plan_runner.h"
#include "quant/calibration.h"
#include "tensor/workspace.h"

namespace dhgcn {

class Layer;

/// \brief The one inference path of a model: a `PlanRunner` per batch
/// size, compiled on first use and replayed after that.
///
/// Each compile takes the first of these that works, and a fallback
/// holds for every later batch size:
///  1. the int8 plan, when the cache was given a calibration;
///  2. the fp32 plan at `mode` (an int8 compile failure lands here with
///     one warning);
///  3. the layer path into the caller's workspace. A model that does
///     not record (capture returns `Unimplemented`) selects it with a
///     debug line; a recording model whose capture fails warns once.
///
/// Evaluation, fused evaluation, the per-class report and every serving
/// replica run through one. Not thread-safe, like the runners it owns:
/// one cache per model replica.
class PlanCache {
 public:
  /// `model` must outlive the cache and be in eval mode whenever
  /// `Forward` runs.
  PlanCache(Layer& model, PlanMode mode,
            std::optional<QuantCalibration> calibration = std::nullopt);

  /// Eval-mode logits of `batch`. From a plan they borrow the runner of
  /// this batch size (the next Forward at that size overwrites them);
  /// on the layer path they borrow `ws`.
  Tensor Forward(const Tensor& batch, Workspace& ws);

  /// Runners compiled so far, and the bytes of their pinned arenas.
  int64_t plan_count() const { return static_cast<int64_t>(runners_.size()); }
  size_t arena_bytes() const;

 private:
  /// Compiles and caches the runner for `shape`'s batch size; null once
  /// the model runs on the layer path.
  PlanRunner* Compile(const Shape& shape);

  Layer& model_;
  PlanMode mode_;
  /// Dropped when an int8 compile fails: fp32 from then on.
  std::optional<QuantCalibration> calibration_;
  bool layer_path_ = false;
  std::unordered_map<int64_t, std::unique_ptr<PlanRunner>> runners_;
};

}  // namespace dhgcn

#endif  // DHGCN_PLAN_PLAN_CACHE_H_

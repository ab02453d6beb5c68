#ifndef DHGCN_SERVE_FROZEN_MODEL_H_
#define DHGCN_SERVE_FROZEN_MODEL_H_

#include <memory>
#include <optional>
#include <string>

#include "base/result.h"
#include "core/dhgcn_model.h"
#include "plan/plan.h"
#include "plan/plan_cache.h"
#include "quant/precision.h"
#include "tensor/workspace.h"

namespace dhgcn {

/// \brief An eval-mode DhgcnModel instance frozen for serving.
///
/// Loading goes through the checkpoint-v2 reader, so truncated or
/// bit-flipped weight files are rejected with a descriptive `Status`
/// (CRC / framing validation) instead of crashing or serving garbage.
///
/// A FrozenModel is **not** re-entrant — layer forward passes cache
/// activations in member state — so the server gives each worker thread
/// its own replica loaded from the same checkpoint.
class FrozenModel {
 public:
  /// Builds the model from `config` and, when `checkpoint_path` is
  /// non-empty, loads v2 weights into it (CRC-validated; corrupt files
  /// produce an error, never a crash). An empty path serves the freshly
  /// initialized weights — useful for load benchmarks.
  /// `frames` fixes the temporal length every request must carry, so
  /// micro-batches stack into one (B, C, T, V) tensor.
  /// `plan` is the mode of the fp32 plans its `PlanCache` compiles per
  /// micro-batch size (lazily, cached for the model's lifetime) and
  /// replays with zero steady-state allocations.
  /// `precision` = kInt8 compiles post-training-quantized plans
  /// instead: activation scales come from a deterministic synthetic
  /// calibration batch run at load time (fixed-seed normal clips, the
  /// load-generator distribution — a checkpoint carries no calibration
  /// data). Calibration failure logs one warning and serves fp32 at
  /// the requested plan mode.
  static Result<std::unique_ptr<FrozenModel>> Load(
      const std::string& checkpoint_path, const DhgcnConfig& config,
      int64_t frames, PlanMode plan = PlanMode::kUnfused,
      Precision precision = Precision::kFp32);

  /// Checks shape only (cheap, on the submit path): (C, T, V) with the
  /// configured channel count, frame count and joint count.
  [[nodiscard]] Status ValidateClipShape(const Tensor& clip) const;

  /// Runs eval-mode inference on a stacked (B, C, T, V) batch. Returns
  /// (B, num_classes) logits borrowed from this replica's plan for batch
  /// size B (or from `ws` if the model ran layer by layer) — copy rows
  /// out before the next Forward or `ws.Reset()`.
  Tensor Forward(const Tensor& batch, Workspace& ws) {
    return plans_.Forward(batch, ws);
  }

  const DhgcnConfig& config() const { return config_; }
  int64_t frames() const { return frames_; }
  int64_t num_joints() const { return num_joints_; }
  int64_t num_classes() const { return config_.num_classes; }
  /// Elements of one clip: in_channels * frames * num_joints.
  int64_t clip_numel() const {
    return config_.in_channels * frames_ * num_joints_;
  }

 private:
  FrozenModel(std::unique_ptr<DhgcnModel> model, const DhgcnConfig& config,
              int64_t frames, int64_t num_joints, PlanMode plan,
              std::optional<QuantCalibration> calibration);

  std::unique_ptr<DhgcnModel> model_;
  /// Compiled runners per batch size (worker-local, like the model).
  PlanCache plans_;
  DhgcnConfig config_;
  int64_t frames_;
  int64_t num_joints_;
};

}  // namespace dhgcn

#endif  // DHGCN_SERVE_FROZEN_MODEL_H_

#ifndef DHGCN_TRAIN_EVALUATOR_H_
#define DHGCN_TRAIN_EVALUATOR_H_

#include <string>
#include <vector>

#include "data/dataloader.h"
#include "nn/layer.h"
#include "plan/plan.h"
#include "quant/precision.h"
#include "train/metrics.h"

namespace dhgcn {

/// Evaluation knobs (see `Evaluate` below).
struct EvalOptions {
  /// Run inference through a compiled execution plan (kUnfused is
  /// bit-identical to the layer path, kFused folds BatchNorm and fuses
  /// elementwise tails). Runners are cached per batch size; if the
  /// model cannot be captured (e.g. it does not implement `Record`),
  /// evaluation falls back to the layer-by-layer path for the whole
  /// call and logs one warning.
  PlanMode plan = PlanMode::kOff;
  /// Log peak workspace / plan-arena bytes at INFO after the pass.
  bool log_peak_bytes = false;
  /// Inference numerics. kInt8 compiles post-training-quantized plans
  /// (the plan path is implied; `plan` only matters as the fp32
  /// fallback mode): weights freeze to int8 panels after a calibration
  /// pass of up to `calibration_batches` batches over
  /// `calibration_loader` — pass a loader over *training* data; null
  /// falls back to the eval loader itself (calibrating on the eval set
  /// is methodologically impure but numerically harmless here: only
  /// |x| maxima are read). Calibration or capture failure logs one
  /// warning and evaluates fp32.
  Precision precision = Precision::kFp32;
  DataLoader* calibration_loader = nullptr;
  int64_t calibration_batches = 4;
};

/// Evaluates a classifier over a loader (inference mode; loader should be
/// non-shuffling). Reports Top-1/Top-5 accuracy and mean cross-entropy.
/// Activations and the loss are staged in a per-call Workspace arena,
/// reset per batch.
EvalMetrics Evaluate(Layer& model, DataLoader& loader,
                     const EvalOptions& options = {});

/// \brief Two-stream fused evaluation (Sec. 3.5): sums the joint model's
/// and bone model's logits per sample. The two loaders must iterate the
/// same sample indices in the same order (both non-shuffling over the
/// same split).
EvalMetrics EvaluateFused(Layer& joint_model, Layer& bone_model,
                          DataLoader& joint_loader,
                          DataLoader& bone_loader);

/// \brief N-stream fused evaluation: sums the logits of `models[i]` fed
/// from `loaders[i]`. Generalizes EvaluateFused to the 4-stream
/// (joint / bone / joint-motion / bone-motion) extension. All loaders
/// must iterate the same samples in the same order.
EvalMetrics EvaluateFusedN(const std::vector<Layer*>& models,
                           const std::vector<DataLoader*>& loaders);

/// \brief Per-class evaluation report.
struct ClassReport {
  int64_t label = 0;
  int64_t support = 0;      // true samples of this class
  double precision = 0.0;   // TP / predicted-as-class
  double recall = 0.0;      // TP / support
  double f1 = 0.0;
};

struct ClassificationReport {
  std::vector<ClassReport> classes;
  double accuracy = 0.0;
  double macro_f1 = 0.0;
  int64_t total = 0;

  std::string ToString() const;
};

/// Runs inference over the loader and builds the per-class report.
ClassificationReport EvaluatePerClass(Layer& model, DataLoader& loader,
                                      int64_t num_classes);

}  // namespace dhgcn

#endif  // DHGCN_TRAIN_EVALUATOR_H_

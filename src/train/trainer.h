#ifndef DHGCN_TRAIN_TRAINER_H_
#define DHGCN_TRAIN_TRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "base/result.h"
#include "data/dataloader.h"
#include "io/serialization.h"
#include "nn/layer.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/workspace.h"
#include "train/guardrails.h"
#include "train/metrics.h"
#include "train/pruner.h"

namespace dhgcn {

/// Optimizer used by the Trainer. The paper uses SGD with momentum;
/// Adam is provided for convenience.
enum class OptimizerKind {
  kSgd,
  kAdam,
};

/// \brief Training hyper-parameters (paper defaults: SGD momentum 0.9,
/// cross-entropy loss, initial LR 0.1 divided by 10 at the milestones).
struct TrainOptions {
  int64_t epochs = 10;
  float initial_lr = 0.1f;
  std::vector<int64_t> lr_milestones;
  float lr_decay_factor = 10.0f;
  float momentum = 0.9f;
  float weight_decay = 1e-4f;
  /// Log per-epoch progress at INFO level.
  bool verbose = false;
  OptimizerKind optimizer = OptimizerKind::kSgd;
  /// Label-smoothing epsilon for the cross-entropy loss (0 = off).
  float label_smoothing = 0.0f;
  /// Global gradient-norm clip (0 = off).
  float clip_grad_norm = 0.0f;
  /// Per-step anomaly sentinels and recovery policy (see guardrails.h).
  GuardrailOptions guardrails;
  /// Magnitude pruning schedule with fine-tuning (see pruner.h);
  /// masks are re-applied after every optimizer step.
  PruneOptions prune;
};

/// \brief Per-epoch training statistics.
struct EpochStats {
  int64_t epoch = 0;
  double mean_loss = 0.0;
  double train_top1 = 0.0;
  double lr = 0.0;
  double seconds = 0.0;
  /// Guardrail activity during this epoch (all zero when disabled).
  GuardrailCounters guardrails;
  /// Owning tensor-buffer allocations (count / bytes) during this epoch,
  /// from Tensor::AllocStats(). Near zero per steady-state step on the
  /// workspace path.
  uint64_t tensor_allocations = 0;
  uint64_t tensor_alloc_bytes = 0;
};

/// \brief Result of TrainWithValidation.
struct ValidatedTraining {
  std::vector<EpochStats> history;
  /// Best validation Top-1 seen, and the epoch it occurred at.
  double best_val_top1 = 0.0;
  int64_t best_epoch = -1;
  /// True when training stopped before the epoch budget.
  bool early_stopped = false;
};

/// \brief Checkpoint/resume configuration for TrainWithResume.
struct ResumeOptions {
  /// Single-file v2 checkpoint path (written atomically).
  std::string checkpoint_path;
  /// Epochs between checkpoint writes; the final epoch always writes.
  int64_t checkpoint_every = 1;
  /// Load checkpoint_path when it exists and continue from it.
  bool resume = true;
  /// Stop this process after running N epochs (0 = run to the schedule's
  /// end). The stop boundary always writes a checkpoint, so a later
  /// TrainWithResume call continues bit-exactly — used to budget wall
  /// time and by the kill/resume tests.
  int64_t stop_after_epochs = 0;
};

/// \brief Result of TrainWithResume.
struct ResumedTraining {
  /// Stats of the epochs executed by *this* call.
  std::vector<EpochStats> history;
  /// Epoch this call started at (> 0 when a checkpoint was loaded).
  int64_t start_epoch = 0;
  /// True when a checkpoint was found and restored.
  bool resumed = false;
  /// Total completed epochs, including ones from previous runs.
  int64_t completed_epochs = 0;
};

/// \brief Minibatch training loop for any `Layer` classifier.
///
/// Every step runs through the workspace path (`ForwardInto` /
/// `BackwardInto`): activations live in a per-trainer arena that is
/// reset at each step boundary, so steady-state steps are
/// (near-)allocation-free. All entry points return `Result`/`Status`: data corruption (bad
/// labels, poisoned batches) and I/O failures surface as descriptive
/// errors, never crashes. With `TrainOptions::guardrails.enabled`,
/// non-finite losses/logits/gradients and loss spikes are intercepted
/// per step and handled by the configured policy.
class Trainer {
 public:
  Trainer(Layer* model, const TrainOptions& options);

  /// Runs one epoch over the loader (reshuffling it).
  Result<EpochStats> TrainEpoch(DataLoader& loader, int64_t epoch);

  /// Runs the full schedule.
  Result<std::vector<EpochStats>> Train(DataLoader& loader);

  /// Runs the schedule with per-epoch validation; keeps a snapshot of
  /// the best-validation parameters and restores it at the end. Stops
  /// early when validation Top-1 has not improved for `patience`
  /// consecutive epochs (patience <= 0 disables early stopping).
  Result<ValidatedTraining> TrainWithValidation(DataLoader& train_loader,
                                                DataLoader& val_loader,
                                                int64_t patience = 0);

  /// Runs the schedule with periodic atomic checkpoints; when
  /// `resume.checkpoint_path` holds a checkpoint from an earlier
  /// (possibly killed) run, restores parameters, optimizer state
  /// (momentum / Adam moments + step count), and the loader's RNG
  /// stream, then continues — the resumed run's final parameters are
  /// bit-exact with an uninterrupted one.
  Result<ResumedTraining> TrainWithResume(DataLoader& loader,
                                          const ResumeOptions& resume);

  /// Captures the full trainer state for `completed_epochs` finished
  /// epochs (exposed for tools that manage checkpoint files themselves).
  Checkpoint CaptureCheckpoint(int64_t completed_epochs,
                               DataLoader& loader);
  /// Restores optimizer + loader state from a loaded checkpoint (the
  /// parameters themselves are restored by LoadCheckpoint).
  Status RestoreTrainerState(const Checkpoint& checkpoint,
                             DataLoader& loader);

  Layer* model() { return model_; }
  const TrainOptions& options() const { return options_; }
  /// Cumulative guardrail counters across all epochs of this trainer.
  const GuardrailCounters& guardrail_counters() const;
  /// Non-null when TrainOptions::prune.enabled.
  const Pruner* pruner() const { return pruner_.get(); }

 private:
  void ApplyLr(int64_t epoch);
  void OptimizerZeroGrad();
  void OptimizerStep();
  void SetLr(float lr);
  double CurrentLr() const;

  Layer* model_;
  TrainOptions options_;
  SoftmaxCrossEntropy loss_;
  std::unique_ptr<SgdOptimizer> sgd_;
  std::unique_ptr<AdamOptimizer> adam_;
  std::unique_ptr<Guardrails> guardrails_;
  std::unique_ptr<Pruner> pruner_;
  StepLrSchedule schedule_;
  /// Activation arena of the training steps; Reset at every step
  /// boundary.
  Workspace workspace_;
};

}  // namespace dhgcn

#endif  // DHGCN_TRAIN_TRAINER_H_

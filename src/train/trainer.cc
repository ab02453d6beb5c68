#include "train/trainer.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <utility>

#include "base/alloc_stats.h"
#include "base/check.h"
#include "base/fault_injection.h"
#include "base/logging.h"
#include "base/string_util.h"
#include "base/thread_pool.h"
#include "base/timer.h"
#include "train/evaluator.h"
#include "train/summary.h"

namespace dhgcn {

namespace {

// Deterministic gradient-corruption hook: when an injection site is armed
// (tests, --fault_inject), poisons the first element of the first trainable
// gradient after the backward pass — exactly what a bad kernel or an
// overflowing activation would produce.
void MaybeInjectGradientFault(Layer& model) {
  FaultInjection& faults = FaultInjection::Get();
  if (!faults.any_armed()) return;
  float poison = 0.0f;
  bool fire = false;
  if (faults.ShouldFire(FaultSite::kGradientNaN)) {
    poison = std::numeric_limits<float>::quiet_NaN();
    fire = true;
  }
  if (faults.ShouldFire(FaultSite::kGradientInf)) {
    poison = std::numeric_limits<float>::infinity();
    fire = true;
  }
  if (!fire) return;
  for (ParamRef& p : model.Params()) {
    if (!p.trainable || p.grad == nullptr || p.grad->numel() == 0) continue;
    p.grad->data()[0] = poison;
    return;
  }
}

}  // namespace

Trainer::Trainer(Layer* model, const TrainOptions& options)
    : model_(model),
      options_(options),
      loss_(options.label_smoothing),
      schedule_(options.initial_lr, options.lr_milestones,
                options.lr_decay_factor) {
  DHGCN_CHECK(model != nullptr);
  DHGCN_CHECK_GT(options.epochs, 0);
  switch (options_.optimizer) {
    case OptimizerKind::kSgd: {
      SgdOptimizer::Options sgd_options;
      sgd_options.lr = options.initial_lr;
      sgd_options.momentum = options.momentum;
      sgd_options.weight_decay = options.weight_decay;
      sgd_ = std::make_unique<SgdOptimizer>(model->Params(), sgd_options);
      break;
    }
    case OptimizerKind::kAdam: {
      AdamOptimizer::Options adam_options;
      adam_options.lr = options.initial_lr;
      adam_options.weight_decay = options.weight_decay;
      adam_ =
          std::make_unique<AdamOptimizer>(model->Params(), adam_options);
      break;
    }
  }
  if (options_.guardrails.enabled) {
    guardrails_ = std::make_unique<Guardrails>(model_, options_.guardrails);
  }
  if (options_.prune.enabled) {
    pruner_ = std::make_unique<Pruner>(model_, options_.prune);
  }
}

void Trainer::ApplyLr(int64_t epoch) {
  SetLr(schedule_.LrForEpoch(epoch));
}

void Trainer::SetLr(float lr) {
  if (sgd_ != nullptr) sgd_->set_lr(lr);
  if (adam_ != nullptr) adam_->set_lr(lr);
}

void Trainer::OptimizerZeroGrad() {
  if (sgd_ != nullptr) sgd_->ZeroGrad();
  if (adam_ != nullptr) adam_->ZeroGrad();
}

void Trainer::OptimizerStep() {
  if (sgd_ != nullptr) sgd_->Step();
  if (adam_ != nullptr) adam_->Step();
}

double Trainer::CurrentLr() const {
  if (sgd_ != nullptr) return sgd_->lr();
  return adam_->lr();
}

const GuardrailCounters& Trainer::guardrail_counters() const {
  static const GuardrailCounters kEmpty;
  return guardrails_ != nullptr ? guardrails_->counters() : kEmpty;
}

Result<EpochStats> Trainer::TrainEpoch(DataLoader& loader, int64_t epoch) {
  WallTimer timer;
  model_->SetTraining(true);
  loader.StartEpoch();
  ApplyLr(epoch);
  if (pruner_ != nullptr) pruner_->OnEpochBegin(epoch);

  GuardrailCounters at_start;
  if (guardrails_ != nullptr) at_start = guardrails_->counters();

  MetricsAccumulator accumulator;
  AllocStatsGuard alloc_guard;
  double loss_sum = 0.0;
  int64_t clean_batches = 0;
  int64_t batches = loader.NumBatches();
  for (int64_t b = 0; b < batches; ++b) {
    Batch batch = loader.GetBatch(b);
    OptimizerZeroGrad();
    // Step boundary: recycle every activation of the previous step.
    workspace_.Reset();
    Tensor logits;
    model_->ForwardInto(batch.x, workspace_, &logits);
    DHGCN_ASSIGN_OR_RETURN(
        float loss, loss_.TryForward(logits, batch.labels, workspace_));
    if (guardrails_ != nullptr) {
      if (std::optional<std::string> anomaly =
              guardrails_->CheckForward(logits, loss)) {
        DHGCN_ASSIGN_OR_RETURN(Guardrails::Action action,
                               guardrails_->OnAnomaly(*anomaly));
        (void)action;  // the only recoverable action is skipping the batch
        if (guardrails_->ConsumeLrHalveRequest()) {
          SetLr(static_cast<float>(CurrentLr()) * 0.5f);
        }
        continue;
      }
    }
    Tensor grad_input;
    model_->BackwardInto(loss_.Backward(workspace_), workspace_, &grad_input);
    MaybeInjectGradientFault(*model_);
    if (guardrails_ != nullptr) {
      if (std::optional<std::string> anomaly = guardrails_->CheckBackward()) {
        DHGCN_ASSIGN_OR_RETURN(Guardrails::Action action,
                               guardrails_->OnAnomaly(*anomaly));
        (void)action;
        if (guardrails_->ConsumeLrHalveRequest()) {
          SetLr(static_cast<float>(CurrentLr()) * 0.5f);
        }
        continue;
      }
    }
    if (options_.clip_grad_norm > 0.0f) {
      ClipGradientNorm(*model_, options_.clip_grad_norm);
    }
    OptimizerStep();
    // Masks re-applied every step: momentum/weight-decay updates must
    // not resurrect pruned weights.
    if (pruner_ != nullptr) pruner_->Apply();
    accumulator.Add(logits, batch.labels, loss);
    loss_sum += loss;
    ++clean_batches;
    if (guardrails_ != nullptr) guardrails_->OnCleanStep(loss);
  }

  EpochStats stats;
  stats.epoch = epoch;
  stats.mean_loss =
      clean_batches > 0 ? loss_sum / static_cast<double>(clean_batches) : 0.0;
  stats.train_top1 =
      clean_batches > 0 ? accumulator.Finalize().top1 : 0.0;
  stats.lr = CurrentLr();
  stats.seconds = timer.ElapsedSeconds();
  AllocStatsSnapshot allocs = alloc_guard.Delta();
  stats.tensor_allocations = allocs.allocations;
  stats.tensor_alloc_bytes = allocs.bytes;
  if (guardrails_ != nullptr) {
    const GuardrailCounters& now = guardrails_->counters();
    stats.guardrails.anomalies = now.anomalies - at_start.anomalies;
    stats.guardrails.skipped_batches =
        now.skipped_batches - at_start.skipped_batches;
    stats.guardrails.lr_halvings = now.lr_halvings - at_start.lr_halvings;
    stats.guardrails.rollbacks = now.rollbacks - at_start.rollbacks;
  }
  if (options_.verbose) {
    DHGCN_LOG(kInfo) << model_->name() << " epoch " << epoch
                     << " loss=" << stats.mean_loss
                     << " top1=" << stats.train_top1 << " lr=" << stats.lr
                     << (pruner_ != nullptr
                             ? StrCat(" sparsity=",
                                      pruner_->MeasuredSparsity())
                             : std::string())
                     << " allocs=" << stats.tensor_allocations << " ("
                     << (stats.tensor_alloc_bytes >> 10) << " KiB)"
                     << " ws_peak=" << (workspace_.PeakBytes() >> 10)
                     << " KiB"
                     << " threads=" << ThreadPool::Get().thread_count()
                     << " (" << stats.seconds << "s)";
  }
  return stats;
}

Result<std::vector<EpochStats>> Trainer::Train(DataLoader& loader) {
  std::vector<EpochStats> history;
  history.reserve(static_cast<size_t>(options_.epochs));
  for (int64_t epoch = 0; epoch < options_.epochs; ++epoch) {
    DHGCN_ASSIGN_OR_RETURN(EpochStats stats, TrainEpoch(loader, epoch));
    history.push_back(std::move(stats));
  }
  return history;
}

Result<ValidatedTraining> Trainer::TrainWithValidation(
    DataLoader& train_loader, DataLoader& val_loader, int64_t patience) {
  ValidatedTraining result;
  std::vector<Tensor> best_params;
  int64_t epochs_since_best = 0;
  for (int64_t epoch = 0; epoch < options_.epochs; ++epoch) {
    DHGCN_ASSIGN_OR_RETURN(EpochStats stats,
                           TrainEpoch(train_loader, epoch));
    result.history.push_back(std::move(stats));
    EvalMetrics val = Evaluate(*model_, val_loader);
    if (val.top1 > result.best_val_top1 || result.best_epoch < 0) {
      result.best_val_top1 = val.top1;
      result.best_epoch = epoch;
      epochs_since_best = 0;
      best_params.clear();
      for (ParamRef& p : model_->Params()) {
        best_params.push_back(p.value->Clone());
      }
    } else {
      ++epochs_since_best;
      if (patience > 0 && epochs_since_best >= patience) {
        result.early_stopped = true;
        break;
      }
    }
  }
  // Restore the best snapshot.
  if (!best_params.empty()) {
    std::vector<ParamRef> params = model_->Params();
    DHGCN_CHECK_EQ(params.size(), best_params.size());
    for (size_t i = 0; i < params.size(); ++i) {
      params[i].value->CopyFrom(best_params[i]);
    }
  }
  return result;
}

Checkpoint Trainer::CaptureCheckpoint(int64_t completed_epochs,
                                      DataLoader& loader) {
  Checkpoint checkpoint;
  checkpoint.epoch = completed_epochs;
  TrainerState& state = checkpoint.trainer;
  if (sgd_ != nullptr) {
    state.optimizer = "sgd";
    const std::vector<ParamRef>& params = sgd_->params();
    std::vector<Tensor>& velocity = sgd_->velocity();
    for (size_t i = 0; i < params.size(); ++i) {
      state.slots.push_back(
          {StrCat("sgd_velocity/", params[i].name), velocity[i].Clone()});
    }
  } else {
    state.optimizer = "adam";
    state.adam_step_count = adam_->step_count();
    const std::vector<ParamRef>& params = adam_->params();
    std::vector<Tensor>& m = adam_->moment1();
    std::vector<Tensor>& v = adam_->moment2();
    for (size_t i = 0; i < params.size(); ++i) {
      state.slots.push_back(
          {StrCat("adam_m/", params[i].name), m[i].Clone()});
      state.slots.push_back(
          {StrCat("adam_v/", params[i].name), v[i].Clone()});
    }
  }
  state.loader_rng = loader.SerializeRngState();
  return checkpoint;
}

namespace {

// Finds a named optimizer slot and checks its shape against the live
// buffer; a mismatch means the checkpoint was written by a different
// model/optimizer configuration.
Result<const OptimizerSlot*> FindSlot(const TrainerState& state,
                                      const std::string& name,
                                      const Tensor& like) {
  for (const OptimizerSlot& slot : state.slots) {
    if (slot.name != name) continue;
    if (!ShapesEqual(slot.value.shape(), like.shape())) {
      return Status::InvalidArgument(
          StrCat("optimizer slot '", name, "' has shape ",
                 ShapeToString(slot.value.shape()), " but the model expects ",
                 ShapeToString(like.shape())));
    }
    return &slot;
  }
  return Status::InvalidArgument(
      StrCat("checkpoint is missing optimizer slot '", name, "'"));
}

}  // namespace

Status Trainer::RestoreTrainerState(const Checkpoint& checkpoint,
                                    DataLoader& loader) {
  const TrainerState& state = checkpoint.trainer;
  if (state.optimizer.empty()) {
    // v1 checkpoints carry parameters only; resuming from one restarts the
    // optimizer and data order, so the run is not bit-exact.
    DHGCN_LOG(kWarning)
        << "checkpoint has no trainer state (v1 file?); resuming with "
           "fresh optimizer and data order";
    return Status::OK();
  }
  const std::string expected = sgd_ != nullptr ? "sgd" : "adam";
  if (state.optimizer != expected) {
    return Status::InvalidArgument(
        StrCat("checkpoint was written with optimizer '", state.optimizer,
               "' but this trainer uses '", expected, "'"));
  }
  if (sgd_ != nullptr) {
    const std::vector<ParamRef>& params = sgd_->params();
    std::vector<Tensor>& velocity = sgd_->velocity();
    for (size_t i = 0; i < params.size(); ++i) {
      DHGCN_ASSIGN_OR_RETURN(
          const OptimizerSlot* slot,
          FindSlot(state, StrCat("sgd_velocity/", params[i].name),
                   velocity[i]));
      velocity[i].CopyFrom(slot->value);
    }
  } else {
    const std::vector<ParamRef>& params = adam_->params();
    std::vector<Tensor>& m = adam_->moment1();
    std::vector<Tensor>& v = adam_->moment2();
    for (size_t i = 0; i < params.size(); ++i) {
      DHGCN_ASSIGN_OR_RETURN(
          const OptimizerSlot* m_slot,
          FindSlot(state, StrCat("adam_m/", params[i].name), m[i]));
      DHGCN_ASSIGN_OR_RETURN(
          const OptimizerSlot* v_slot,
          FindSlot(state, StrCat("adam_v/", params[i].name), v[i]));
      m[i].CopyFrom(m_slot->value);
      v[i].CopyFrom(v_slot->value);
    }
    adam_->set_step_count(state.adam_step_count);
  }
  if (!state.loader_rng.empty()) {
    DHGCN_RETURN_IF_ERROR(loader.DeserializeRngState(state.loader_rng));
  }
  return Status::OK();
}

Result<ResumedTraining> Trainer::TrainWithResume(DataLoader& loader,
                                                 const ResumeOptions& resume) {
  if (resume.checkpoint_path.empty()) {
    return Status::InvalidArgument("ResumeOptions.checkpoint_path is empty");
  }
  if (resume.checkpoint_every <= 0) {
    return Status::InvalidArgument(
        StrCat("checkpoint_every must be positive, got ",
               resume.checkpoint_every));
  }

  ResumedTraining result;
  if (resume.resume && std::filesystem::exists(resume.checkpoint_path)) {
    DHGCN_ASSIGN_OR_RETURN(Checkpoint checkpoint,
                           LoadCheckpoint(resume.checkpoint_path, *model_));
    DHGCN_RETURN_IF_ERROR(RestoreTrainerState(checkpoint, loader));
    result.start_epoch = checkpoint.epoch;
    result.resumed = true;
    DHGCN_LOG(kInfo) << "resumed from " << resume.checkpoint_path
                     << " at epoch " << checkpoint.epoch;
  }
  result.completed_epochs = result.start_epoch;

  int64_t end_epoch = options_.epochs;
  if (resume.stop_after_epochs > 0) {
    end_epoch =
        std::min(end_epoch, result.start_epoch + resume.stop_after_epochs);
  }
  for (int64_t epoch = result.start_epoch; epoch < end_epoch; ++epoch) {
    DHGCN_ASSIGN_OR_RETURN(EpochStats stats, TrainEpoch(loader, epoch));
    result.history.push_back(std::move(stats));
    result.completed_epochs = epoch + 1;
    // Cadence is aligned to absolute epochs so interrupted and
    // uninterrupted runs write checkpoints at the same points.
    bool last = epoch + 1 == end_epoch;
    if ((epoch + 1) % resume.checkpoint_every == 0 || last) {
      Checkpoint checkpoint = CaptureCheckpoint(epoch + 1, loader);
      DHGCN_RETURN_IF_ERROR(
          SaveCheckpoint(resume.checkpoint_path, *model_, checkpoint));
    }
  }
  return result;
}

}  // namespace dhgcn

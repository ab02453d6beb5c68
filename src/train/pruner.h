#ifndef DHGCN_TRAIN_PRUNER_H_
#define DHGCN_TRAIN_PRUNER_H_

#include <cstdint>
#include <vector>

#include "nn/layer.h"

namespace dhgcn {

/// \brief Magnitude-pruning configuration (`--prune*` on dhgcn_train).
struct PruneOptions {
  bool enabled = false;
  /// Fraction of each prunable tensor's weights zeroed once the
  /// schedule completes, in [0, 1).
  double target_sparsity = 0.8;
  /// First epoch (0-based) whose begin-of-epoch event prunes.
  int64_t start_epoch = 1;
  /// Epoch at which the target sparsity is reached (cubic ramp in
  /// between, à la Zhu & Gupta AGP); -1 means one-shot at start_epoch.
  int64_t end_epoch = -1;
  /// Tensors smaller than this are never pruned (biases and BN scales
  /// are already excluded by the >= 2-D rule).
  int64_t min_numel = 32;
};

/// \brief Magnitude-based weight pruning with fine-tuning.
///
/// At each scheduled epoch boundary the pruner recomputes, per
/// prunable tensor (trainable, >= 2 dimensions, >= min_numel
/// elements), a mask zeroing the `s` smallest-magnitude weights; the
/// epochs after a pruning event fine-tune the surviving weights. The
/// mask is re-applied after *every* optimizer step so momentum and
/// weight decay cannot resurrect pruned weights — which also keeps the
/// weights genuinely sparse: true zeros, not a cloud of tiny values.
///
/// Determinism: selection orders by (|w|, flat index) — a strict total
/// order — and prunes exactly floor(s * numel) entries, so the mask is
/// a pure function of the weights and the schedule, independent of
/// thread count. Steady-state steps are allocation-free: masks and the
/// selection scratch are sized at construction / first event and
/// re-applying a mask is a plain loop.
class Pruner {
 public:
  Pruner(Layer* model, const PruneOptions& options);

  /// Scheduled sparsity for `epoch` (0 before start_epoch, the target
  /// from end_epoch on, cubic ramp in between).
  double SparsityForEpoch(int64_t epoch) const;

  /// Recomputes masks to the scheduled sparsity and applies them.
  /// Call at the top of each training epoch.
  void OnEpochBegin(int64_t epoch);

  /// Re-zeroes masked weights; call after every optimizer step.
  void Apply();

  /// Fraction of prunable weights currently masked off.
  double MaskedFraction() const;
  /// Fraction of prunable weights that are exactly zero right now.
  double MeasuredSparsity() const;
  int64_t prunable_tensors() const {
    return static_cast<int64_t>(targets_.size());
  }

 private:
  struct Target {
    Tensor* value = nullptr;
    std::vector<uint8_t> mask;  // 0 = pruned
  };

  PruneOptions options_;
  std::vector<Target> targets_;
  std::vector<int64_t> scratch_;  // selection index buffer, reused
  double current_sparsity_ = 0.0;
};

}  // namespace dhgcn

#endif  // DHGCN_TRAIN_PRUNER_H_

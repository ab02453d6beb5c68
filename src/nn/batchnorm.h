#ifndef DHGCN_NN_BATCHNORM_H_
#define DHGCN_NN_BATCHNORM_H_

#include <string>
#include <vector>

#include "nn/layer.h"

namespace dhgcn {

/// \brief Batch normalization over the channel axis of (N, C, H, W) inputs.
///
/// Training mode normalizes with batch statistics over (N, H, W) and
/// updates exponential running averages; inference mode uses the running
/// statistics. 2-D inputs (N, C) are supported as a degenerate H=W=1 case
/// (BatchNorm1d semantics).
class BatchNorm2d : public Layer {
 public:
  explicit BatchNorm2d(int64_t channels, float eps = 1e-5f,
                       float momentum = 0.1f);

  std::vector<ParamRef> Params() override;
  std::string name() const override;
  int64_t Record(PlanBuilder& builder, int64_t in) override;

  /// Plan-replay entry: the eval-mode normalization (running statistics)
  /// written into the pre-shaped `out` — the exact same kernel as the
  /// layer's eval forward, bit-identical results. Does not touch the
  /// autograd cache.
  void EvalPlan(const Tensor& input, Tensor* out) const;

  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }
  Tensor& gamma() { return gamma_; }
  Tensor& beta() { return beta_; }
  float eps() const { return eps_; }
  int64_t channels() const { return channels_; }

 private:
  Tensor ForwardImpl(const Tensor& input, Workspace* ws) override;
  Tensor BackwardImpl(const Tensor& grad_output, Workspace* ws) override;

  int64_t channels_;
  float eps_;
  float momentum_;

  Tensor gamma_;  // scale, (C)
  Tensor gamma_grad_;
  Tensor beta_;   // shift, (C)
  Tensor beta_grad_;

  Tensor running_mean_;  // (C)
  Tensor running_var_;   // (C)

  // Cached forward state (training mode).
  Tensor cached_xhat_;      // normalized input, input shape
  Tensor cached_inv_std_;   // (C)
  Shape cached_shape_;
  bool cached_was_training_ = false;
};

}  // namespace dhgcn

#endif  // DHGCN_NN_BATCHNORM_H_

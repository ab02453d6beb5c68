#ifndef DHGCN_NN_POOLING_H_
#define DHGCN_NN_POOLING_H_

#include <string>

#include "nn/layer.h"

namespace dhgcn {

/// \brief Global average pooling over the spatial axes of (N, C, H, W),
/// producing (N, C). Used as the model head before the classifier FC.
class GlobalAvgPool2d : public Layer {
 public:
  GlobalAvgPool2d() = default;

  std::string name() const override { return "GlobalAvgPool2d"; }
  int64_t Record(PlanBuilder& builder, int64_t in) override;

  /// Plan-replay entry: mean over the spatial axes into the pre-shaped
  /// (N, C) `out`. Same serial double-accumulation loop as the layer
  /// path (bit-identical values); the autograd shape cache is untouched.
  void EvalPlan(const Tensor& input, Tensor* out) const;

 private:
  Tensor ForwardImpl(const Tensor& input, Workspace* ws) override;
  Tensor BackwardImpl(const Tensor& grad_output, Workspace* ws) override;

  Shape cached_input_shape_;
};

}  // namespace dhgcn

#endif  // DHGCN_NN_POOLING_H_

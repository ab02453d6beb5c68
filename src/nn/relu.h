#ifndef DHGCN_NN_RELU_H_
#define DHGCN_NN_RELU_H_

#include <string>

#include "nn/layer.h"

namespace dhgcn {

/// \brief Rectified linear unit, y = max(x, 0), applied elementwise.
class ReLU : public Layer {
 public:
  ReLU() = default;

  std::string name() const override { return "ReLU"; }
  int64_t Record(PlanBuilder& builder, int64_t in) override;

  /// Plan-replay entry: y = max(x, 0) into the pre-shaped `out`. Same
  /// elementwise loop as the layer path (bit-identical values), but no
  /// autograd mask is built or cached.
  static void EvalPlan(const Tensor& input, Tensor* out);

 private:
  Tensor ForwardImpl(const Tensor& input, Workspace* ws) override;
  Tensor BackwardImpl(const Tensor& grad_output, Workspace* ws) override;

  Tensor cached_mask_;  // 1 where input > 0
};

}  // namespace dhgcn

#endif  // DHGCN_NN_RELU_H_

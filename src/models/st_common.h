#ifndef DHGCN_MODELS_ST_COMMON_H_
#define DHGCN_MODELS_ST_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dropout.h"
#include "nn/layer.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/relu.h"
#include "tensor/tensor.h"

namespace dhgcn {

/// \brief One generic spatial-temporal block shared by the GCN-style
/// baselines (ST-GCN, 2s-AGCN, 2s-AHGCN, PB-GCN, PB-HGCN):
///
///   y = ReLU(BN(TCN(ReLU(BN(spatial(x)) + res1(x)))) + res2(.))
///
/// The spatial sub-layer is injected; it must map (N, C_in, T, V) to
/// (N, C_out, T, V). Residuals are identity when shapes allow, otherwise
/// 1x1 (optionally strided) convolutions.
class StBlock : public Layer {
 public:
  StBlock(LayerPtr spatial, int64_t in_channels, int64_t out_channels,
          int64_t temporal_stride, Rng& rng, int64_t temporal_kernel = 3,
          int64_t temporal_dilation = 1);

  std::vector<ParamRef> Params() override;
  void SetTraining(bool training) override;
  std::string name() const override;

 private:
  // Ignore `ws` and return owning tensors (DESIGN.md §6).
  Tensor ForwardImpl(const Tensor& input, Workspace* ws) override;
  Tensor BackwardImpl(const Tensor& grad_output, Workspace* ws) override;

  LayerPtr spatial_;
  std::unique_ptr<BatchNorm2d> spatial_bn_;
  std::unique_ptr<Conv2d> spatial_residual_;  // null => identity
  ReLU spatial_relu_;
  std::unique_ptr<Conv2d> temporal_conv_;
  std::unique_ptr<BatchNorm2d> temporal_bn_;
  std::unique_ptr<Conv2d> temporal_residual_;  // null => identity
  ReLU temporal_relu_;
};

/// \brief Classifier backbone: input BN -> blocks -> GAP -> dropout -> FC.
/// All baseline models are instances of this with different block stacks.
class BackboneClassifier : public Layer {
 public:
  BackboneClassifier(std::string model_name, int64_t in_channels,
                     int64_t feature_channels, int64_t num_classes,
                     std::vector<LayerPtr> blocks, float dropout, Rng& rng);

  std::vector<ParamRef> Params() override;
  void SetTraining(bool training) override;
  std::string name() const override { return model_name_; }

 private:
  // Ignore `ws` and return owning tensors (DESIGN.md §6).
  Tensor ForwardImpl(const Tensor& input, Workspace* ws) override;
  Tensor BackwardImpl(const Tensor& grad_output, Workspace* ws) override;

  std::string model_name_;
  std::unique_ptr<BatchNorm2d> input_bn_;
  std::vector<LayerPtr> blocks_;
  GlobalAvgPool2d pool_;
  std::unique_ptr<Dropout> dropout_;  // null when dropout == 0
  std::unique_ptr<Linear> classifier_;
};

/// Channel/stride plan shared by the small-scale baseline models; mirrors
/// DhgcnConfig::Small so comparisons are capacity-matched.
struct BaselineScale {
  std::vector<int64_t> channels = {16, 32, 32, 64};
  std::vector<int64_t> strides = {1, 2, 1, 2};
  float dropout = 0.1f;
};

/// \brief Spatial layer "1x1 conv then fixed vertex operator" used by
/// ST-GCN (normalized adjacency) and PB-HGCN (part hypergraph operator).
LayerPtr MakeFixedOperatorSpatial(int64_t in_channels, int64_t out_channels,
                                  Tensor op, Rng& rng);

}  // namespace dhgcn

#endif  // DHGCN_MODELS_ST_COMMON_H_

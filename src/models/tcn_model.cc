#include "models/tcn_model.h"

#include "base/check.h"
#include "nn/sequential.h"
#include "tensor/tensor_ops.h"

namespace dhgcn {

TcnModel::TcnModel(SkeletonLayoutType layout, int64_t num_classes,
                   const BaselineScale& scale, uint64_t seed)
    : num_joints_(GetSkeletonLayout(layout).num_joints) {
  Rng rng(seed);
  int64_t in_channels = 3 * num_joints_;
  std::vector<LayerPtr> blocks;
  int64_t channels = in_channels;
  for (size_t i = 0; i < scale.channels.size(); ++i) {
    // Match the GCN models' widths per joint so capacity is comparable.
    int64_t out_channels = scale.channels[i] * 4;
    auto block = std::make_unique<Sequential>();
    Conv2dOptions conv_options;
    conv_options.kernel_h = 5;
    conv_options.pad_h = 2;
    conv_options.stride_h = scale.strides[i];
    block->Emplace<Conv2d>(channels, out_channels, conv_options, rng);
    block->Emplace<BatchNorm2d>(out_channels);
    block->Emplace<ReLU>();
    blocks.push_back(std::move(block));
    channels = out_channels;
  }
  backbone_ = std::make_unique<BackboneClassifier>(
      "TCN", in_channels, channels, num_classes, std::move(blocks),
      scale.dropout, rng);
}

Tensor TcnModel::ForwardImpl(const Tensor& input, Workspace* /*ws*/) {
  DHGCN_CHECK_EQ(input.ndim(), 4);
  DHGCN_CHECK_EQ(input.dim(3), num_joints_);
  cached_input_shape_ = input.shape();
  // (N, C, T, V) -> (N, C, V, T) -> (N, C*V, T, 1): joints become
  // channels of a 1-D temporal signal.
  Tensor x = Permute(input, {0, 1, 3, 2})
                 .Reshape({input.dim(0), input.dim(1) * num_joints_,
                           input.dim(2), 1});
  return backbone_->Forward(x);
}

Tensor TcnModel::BackwardImpl(const Tensor& grad_output, Workspace* /*ws*/) {
  Tensor g = backbone_->Backward(grad_output);
  g = g.Reshape({cached_input_shape_[0], cached_input_shape_[1],
                 num_joints_, cached_input_shape_[2]});
  return Permute(g, {0, 1, 3, 2});
}

std::vector<ParamRef> TcnModel::Params() { return backbone_->Params(); }

void TcnModel::SetTraining(bool training) {
  Layer::SetTraining(training);
  backbone_->SetTraining(training);
}

LayerPtr MakeTcnModel(SkeletonLayoutType layout, int64_t num_classes,
                      const BaselineScale& scale, uint64_t seed) {
  return std::make_unique<TcnModel>(layout, num_classes, scale, seed);
}

}  // namespace dhgcn

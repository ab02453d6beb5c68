#include "models/st_common.h"

#include "base/check.h"
#include "base/string_util.h"
#include "hypergraph/hypergraph_conv.h"
#include "nn/sequential.h"
#include "tensor/tensor_ops.h"

namespace dhgcn {

StBlock::StBlock(LayerPtr spatial, int64_t in_channels, int64_t out_channels,
                 int64_t temporal_stride, Rng& rng, int64_t temporal_kernel,
                 int64_t temporal_dilation)
    : spatial_(std::move(spatial)) {
  DHGCN_CHECK(spatial_ != nullptr);
  DHGCN_CHECK_EQ(temporal_kernel % 2, 1);
  spatial_bn_ = std::make_unique<BatchNorm2d>(out_channels);
  if (in_channels != out_channels) {
    Conv2dOptions residual_options;
    residual_options.has_bias = false;
    spatial_residual_ = std::make_unique<Conv2d>(in_channels, out_channels,
                                                 residual_options, rng);
  }
  Conv2dOptions temporal_options;
  temporal_options.kernel_h = temporal_kernel;
  temporal_options.stride_h = temporal_stride;
  temporal_options.pad_h = temporal_dilation * (temporal_kernel - 1) / 2;
  temporal_options.dilation_h = temporal_dilation;
  temporal_conv_ = std::make_unique<Conv2d>(out_channels, out_channels,
                                            temporal_options, rng);
  temporal_bn_ = std::make_unique<BatchNorm2d>(out_channels);
  if (temporal_stride != 1) {
    Conv2dOptions residual_options;
    residual_options.stride_h = temporal_stride;
    residual_options.has_bias = false;
    temporal_residual_ = std::make_unique<Conv2d>(out_channels, out_channels,
                                                  residual_options, rng);
  }
}

Tensor StBlock::Forward(const Tensor& input) {
  Tensor s_pre = spatial_bn_->Forward(spatial_->Forward(input));
  if (spatial_residual_ != nullptr) {
    AddInPlace(s_pre, spatial_residual_->Forward(input));
  } else {
    AddInPlace(s_pre, input);
  }
  Tensor s = spatial_relu_.Forward(s_pre);
  Tensor t_pre = temporal_bn_->Forward(temporal_conv_->Forward(s));
  if (temporal_residual_ != nullptr) {
    AddInPlace(t_pre, temporal_residual_->Forward(s));
  } else {
    AddInPlace(t_pre, s);
  }
  return temporal_relu_.Forward(t_pre);
}

Tensor StBlock::Backward(const Tensor& grad_output) {
  Tensor g_tpre = temporal_relu_.Backward(grad_output);
  Tensor g_s = temporal_conv_->Backward(temporal_bn_->Backward(g_tpre));
  if (temporal_residual_ != nullptr) {
    AddInPlace(g_s, temporal_residual_->Backward(g_tpre));
  } else {
    AddInPlace(g_s, g_tpre);
  }
  Tensor g_spre = spatial_relu_.Backward(g_s);
  Tensor g_x = spatial_->Backward(spatial_bn_->Backward(g_spre));
  if (spatial_residual_ != nullptr) {
    AddInPlace(g_x, spatial_residual_->Backward(g_spre));
  } else {
    AddInPlace(g_x, g_spre);
  }
  return g_x;
}

std::vector<ParamRef> StBlock::Params() {
  std::vector<ParamRef> params;
  auto append = [&params](const char* prefix, Layer* layer) {
    if (layer == nullptr) return;
    for (ParamRef p : layer->Params()) {
      p.name = std::string(prefix) + "." + p.name;
      params.push_back(p);
    }
  };
  append("spatial", spatial_.get());
  append("spatial_bn", spatial_bn_.get());
  append("spatial_residual", spatial_residual_.get());
  append("temporal_conv", temporal_conv_.get());
  append("temporal_bn", temporal_bn_.get());
  append("temporal_residual", temporal_residual_.get());
  return params;
}

void StBlock::SetTraining(bool training) {
  Layer::SetTraining(training);
  spatial_->SetTraining(training);
  spatial_bn_->SetTraining(training);
  if (spatial_residual_ != nullptr) spatial_residual_->SetTraining(training);
  spatial_relu_.SetTraining(training);
  temporal_conv_->SetTraining(training);
  temporal_bn_->SetTraining(training);
  if (temporal_residual_ != nullptr) {
    temporal_residual_->SetTraining(training);
  }
  temporal_relu_.SetTraining(training);
}

std::string StBlock::name() const {
  return StrCat("StBlock(", spatial_->name(), ")");
}

BackboneClassifier::BackboneClassifier(std::string model_name,
                                       int64_t in_channels,
                                       int64_t feature_channels,
                                       int64_t num_classes,
                                       std::vector<LayerPtr> blocks,
                                       float dropout, Rng& rng)
    : model_name_(std::move(model_name)), blocks_(std::move(blocks)) {
  DHGCN_CHECK(!blocks_.empty());
  input_bn_ = std::make_unique<BatchNorm2d>(in_channels);
  if (dropout > 0.0f) {
    dropout_ = std::make_unique<Dropout>(dropout, rng);
  }
  classifier_ = std::make_unique<Linear>(feature_channels, num_classes, rng);
}

Tensor BackboneClassifier::Forward(const Tensor& input) {
  Tensor x = input_bn_->Forward(input);
  for (auto& block : blocks_) x = block->Forward(x);
  Tensor pooled = pool_.Forward(x);
  if (dropout_ != nullptr) pooled = dropout_->Forward(pooled);
  return classifier_->Forward(pooled);
}

Tensor BackboneClassifier::Backward(const Tensor& grad_output) {
  Tensor g = classifier_->Backward(grad_output);
  if (dropout_ != nullptr) g = dropout_->Backward(g);
  g = pool_.Backward(g);
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    g = (*it)->Backward(g);
  }
  return input_bn_->Backward(g);
}

std::vector<ParamRef> BackboneClassifier::Params() {
  std::vector<ParamRef> params;
  auto append = [&params](const std::string& prefix,
                          std::vector<ParamRef> child) {
    for (ParamRef& p : child) {
      p.name = prefix + "." + p.name;
      params.push_back(p);
    }
  };
  append("input_bn", input_bn_->Params());
  for (size_t i = 0; i < blocks_.size(); ++i) {
    append(StrCat("block", i), blocks_[i]->Params());
  }
  append("classifier", classifier_->Params());
  return params;
}

void BackboneClassifier::SetTraining(bool training) {
  Layer::SetTraining(training);
  input_bn_->SetTraining(training);
  for (auto& block : blocks_) block->SetTraining(training);
  pool_.SetTraining(training);
  if (dropout_ != nullptr) dropout_->SetTraining(training);
  classifier_->SetTraining(training);
}

LayerPtr MakeFixedOperatorSpatial(int64_t in_channels, int64_t out_channels,
                                  Tensor op, Rng& rng) {
  auto seq = std::make_unique<Sequential>();
  seq->Emplace<Conv2d>(in_channels, out_channels, Conv2dOptions{}, rng);
  seq->Emplace<VertexMix>(std::move(op));
  return seq;
}

}  // namespace dhgcn

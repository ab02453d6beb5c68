#include "core/dhgcn_model.h"

#include "base/string_util.h"
#include "core/dynamic_joint_weight.h"
#include "core/static_hypergraph.h"
#include "plan/plan_builder.h"
#include "tensor/workspace.h"

namespace dhgcn {

DhgcnConfig DhgcnConfig::Paper(SkeletonLayoutType layout,
                               int64_t num_classes) {
  DhgcnConfig config;
  config.layout = layout;
  config.num_classes = num_classes;
  config.blocks = {
      {64, 1, 1},  {64, 1, 1},  {64, 1, 1},  {64, 1, 1},
      {128, 2, 1}, {128, 1, 1}, {128, 1, 2},
      {256, 2, 1}, {256, 1, 1}, {256, 1, 2},
  };
  config.dropout = 0.5f;
  return config;
}

DhgcnConfig DhgcnConfig::Small(SkeletonLayoutType layout,
                               int64_t num_classes) {
  DhgcnConfig config;
  config.layout = layout;
  config.num_classes = num_classes;
  config.blocks = {
      {16, 1, 1},
      {32, 2, 1},
      {32, 1, 2},
      {64, 2, 1},
  };
  config.dropout = 0.1f;
  return config;
}

DhgcnConfig DhgcnConfig::Tiny(SkeletonLayoutType layout,
                              int64_t num_classes) {
  DhgcnConfig config;
  config.layout = layout;
  config.num_classes = num_classes;
  config.blocks = {
      {8, 1, 1},
      {16, 2, 1},
  };
  return config;
}

Result<std::unique_ptr<DhgcnModel>> DhgcnModel::Make(
    const DhgcnConfig& config) {
  if (config.num_classes <= 0) {
    return Status::InvalidArgument("num_classes must be positive");
  }
  if (config.in_channels <= 0) {
    return Status::InvalidArgument("in_channels must be positive");
  }
  if (config.blocks.empty()) {
    return Status::InvalidArgument("at least one DHST block is required");
  }
  if (!config.enable_static && !config.enable_joint_weight &&
      !config.enable_topology) {
    return Status::InvalidArgument(
        "at least one spatial branch must be enabled");
  }
  for (const DhgcnBlockSpec& spec : config.blocks) {
    if (spec.channels <= 0 || spec.temporal_stride <= 0 ||
        spec.temporal_dilation <= 0) {
      return Status::InvalidArgument(
          "block channels/stride/dilation must be positive");
    }
  }
  if (config.dropout < 0.0f || config.dropout >= 1.0f) {
    return Status::InvalidArgument("dropout must be in [0, 1)");
  }
  const SkeletonLayout& layout = GetSkeletonLayout(config.layout);
  if (config.topology.kn < 1 || config.topology.kn > layout.num_joints ||
      config.topology.km < 1 || config.topology.km > layout.num_joints) {
    return Status::InvalidArgument(
        StrCat("k_n/k_m must be in [1, ", layout.num_joints, "]"));
  }
  return std::make_unique<DhgcnModel>(config);
}

DhgcnModel::DhgcnModel(const DhgcnConfig& config)
    : config_(config),
      static_hypergraph_(
          StaticSkeletonHypergraph(GetSkeletonLayout(config.layout))) {
  Rng rng(config.seed);
  input_bn_ = std::make_unique<BatchNorm2d>(config.in_channels);
  int64_t in_channels = config.in_channels;
  for (const DhgcnBlockSpec& spec : config.blocks) {
    DhstBlockOptions options;
    options.in_channels = in_channels;
    options.out_channels = spec.channels;
    options.temporal_stride = spec.temporal_stride;
    options.temporal_dilation = spec.temporal_dilation;
    options.topology = config.topology;
    options.enable_static = config.enable_static;
    options.enable_joint_weight = config.enable_joint_weight;
    options.enable_topology = config.enable_topology;
    blocks_.push_back(
        std::make_unique<DhstBlock>(options, static_hypergraph_, rng));
    in_channels = spec.channels;
  }
  if (config.dropout > 0.0f) {
    dropout_ = std::make_unique<Dropout>(config.dropout, rng);
  }
  classifier_ = std::make_unique<Linear>(in_channels, config.num_classes,
                                         rng);
}

Tensor DhgcnModel::ForwardImpl(const Tensor& input, Workspace* ws) {
  DHGCN_CHECK_EQ(input.ndim(), 4);
  DHGCN_CHECK_EQ(input.dim(1), config_.in_channels);
  DHGCN_CHECK_EQ(input.dim(3),
                 GetSkeletonLayout(config_.layout).num_joints);

  // Dynamic joint-weight operators from the raw input coordinates
  // (Eqs. 6-9), re-strided as blocks shrink the time axis.
  Tensor joint_ops;
  if (config_.enable_joint_weight) {
    joint_ops = DynamicJointWeightOperators(input, static_hypergraph_, ws);
  }

  Tensor x = input_bn_->Forward(input, ws);
  for (auto& block : blocks_) {
    x = block->Forward(x, joint_ops, ws);
    if (config_.enable_joint_weight &&
        block->options().temporal_stride != 1) {
      joint_ops = StrideOperatorsInTime(joint_ops,
                                        block->options().temporal_stride,
                                        ws);
    }
  }
  Tensor pooled = pool_.Forward(x, ws);
  if (dropout_ != nullptr) pooled = dropout_->Forward(pooled, ws);
  return classifier_->Forward(pooled, ws);
}

Tensor DhgcnModel::BackwardImpl(const Tensor& grad_output, Workspace* ws) {
  Tensor g = classifier_->Backward(grad_output, ws);
  if (dropout_ != nullptr) g = dropout_->Backward(g, ws);
  g = pool_.Backward(g, ws);
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    g = (*it)->Backward(g, ws);
  }
  return input_bn_->Backward(g, ws);
}

std::vector<ParamRef> DhgcnModel::Params() {
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

void DhgcnModel::SetTraining(bool training) {
  Layer::SetTraining(training);
  input_bn_->SetTraining(training);
  for (auto& block : blocks_) block->SetTraining(training);
  pool_.SetTraining(training);
  if (dropout_ != nullptr) dropout_->SetTraining(training);
  classifier_->SetTraining(training);
}

std::string DhgcnModel::name() const {
  return StrCat("DHGCN(blocks=", blocks_.size(),
                ", kn=", config_.topology.kn, ", km=", config_.topology.km,
                ")");
}

int64_t DhgcnModel::Record(PlanBuilder& builder, int64_t in) {
  if (training()) return -1;
  const Shape xs = builder.slot_shape(in);
  if (xs.size() != 4 || xs[1] != config_.in_channels ||
      xs[3] != GetSkeletonLayout(config_.layout).num_joints) {
    return -1;
  }

  // Joint-weight operators from the raw input slot, re-strided as the
  // blocks shrink the time axis — mirrors ForwardImpl exactly.
  int64_t joint_ops = -1;
  if (config_.enable_joint_weight) {
    PlanOp op;
    op.kind = PlanOpKind::kJointWeightOps;
    op.in0 = in;
    op.out = builder.AddSlot({xs[0], xs[2], xs[3], xs[3]});
    op.hypergraph = &static_hypergraph_;
    joint_ops = op.out;
    builder.AddOp(std::move(op));
  }

  int64_t x = input_bn_->Record(builder, in);
  if (x < 0) return -1;
  for (auto& block : blocks_) {
    x = block->Record(builder, x, joint_ops);
    if (x < 0) return -1;
    const int64_t stride = block->options().temporal_stride;
    if (config_.enable_joint_weight && stride != 1) {
      const Shape os = builder.slot_shape(joint_ops);
      PlanOp op;
      op.kind = PlanOpKind::kStrideOps;
      op.in0 = joint_ops;
      op.out = builder.AddSlot(
          {os[0], (os[1] - 1) / stride + 1, os[2], os[3]});
      op.stride = stride;
      joint_ops = op.out;
      builder.AddOp(std::move(op));
    }
  }
  int64_t pooled = pool_.Record(builder, x);
  if (pooled < 0) return -1;
  if (dropout_ != nullptr) pooled = dropout_->Record(builder, pooled);
  return classifier_->Record(builder, pooled);
}

}  // namespace dhgcn

#include "core/dhst_block.h"

#include <utility>

#include "base/check.h"
#include "plan/plan_builder.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"

namespace dhgcn {

namespace {

/// Records one DynamicVertexMix application with an explicit operator
/// slot (plans bypass SetOperators).
int64_t RecordDynamicMix(PlanBuilder& builder, const DynamicVertexMix* mix,
                         int64_t in, int64_t ops) {
  const Shape s = builder.slot_shape(in);
  PlanOp op;
  op.kind = PlanOpKind::kDynamicVertexMix;
  op.in0 = in;
  op.in1 = ops;
  op.out = builder.AddSlot(s);
  op.dyn_mix = mix;
  int64_t out = op.out;
  builder.AddOp(std::move(op));
  return out;
}

/// Appends `slot` into the running branch sum (`*sum += slot`), or
/// starts the sum when it is the first branch.
void MergeBranch(PlanBuilder& builder, int64_t slot, int64_t* sum) {
  if (*sum < 0) {
    *sum = slot;
    return;
  }
  PlanOp add;
  add.kind = PlanOpKind::kAccumulate;
  add.in0 = slot;
  add.out = *sum;
  builder.AddOp(std::move(add));
}

}  // namespace

DhstBlock::DhstBlock(const DhstBlockOptions& options,
                     const Hypergraph& static_graph, Rng& rng)
    : options_(options) {
  DHGCN_CHECK(options.enable_static || options.enable_joint_weight ||
              options.enable_topology);
  DHGCN_CHECK_GT(options.in_channels, 0);
  DHGCN_CHECK_GT(options.out_channels, 0);
  DHGCN_CHECK_GT(options.temporal_stride, 0);
  DHGCN_CHECK_EQ(options.temporal_kernel % 2, 1);  // same-padding needs odd

  Conv2dOptions one_by_one;  // defaults: 1x1, stride 1, no padding
  if (options.enable_static) {
    static_theta_ = std::make_unique<Conv2d>(options.in_channels,
                                             options.out_channels,
                                             one_by_one, rng);
    static_mix_ = std::make_unique<VertexMix>(
        NormalizedHypergraphOperator(static_graph));
    ++enabled_branches_;
  }
  if (options.enable_joint_weight) {
    weight_theta_ = std::make_unique<Conv2d>(options.in_channels,
                                             options.out_channels,
                                             one_by_one, rng);
    weight_mix_ = std::make_unique<DynamicVertexMix>();
    ++enabled_branches_;
  }
  if (options.enable_topology) {
    topology_map_ = std::make_unique<Conv2d>(options.in_channels,
                                             options.out_channels,
                                             one_by_one, rng);
    topology_mix_ = std::make_unique<DynamicVertexMix>();
    ++enabled_branches_;
  }

  spatial_bn_ = std::make_unique<BatchNorm2d>(options.out_channels);
  if (options.in_channels != options.out_channels) {
    Conv2dOptions residual_options;
    residual_options.has_bias = false;
    spatial_residual_ = std::make_unique<Conv2d>(
        options.in_channels, options.out_channels, residual_options, rng);
  }

  Conv2dOptions temporal_options;
  temporal_options.kernel_h = options.temporal_kernel;
  temporal_options.kernel_w = 1;
  temporal_options.stride_h = options.temporal_stride;
  temporal_options.pad_h =
      options.temporal_dilation * (options.temporal_kernel - 1) / 2;
  temporal_options.dilation_h = options.temporal_dilation;
  temporal_conv_ = std::make_unique<Conv2d>(
      options.out_channels, options.out_channels, temporal_options, rng);
  temporal_bn_ = std::make_unique<BatchNorm2d>(options.out_channels);
  if (options.temporal_stride != 1) {
    Conv2dOptions residual_options;
    residual_options.stride_h = options.temporal_stride;
    residual_options.has_bias = false;
    temporal_residual_ = std::make_unique<Conv2d>(
        options.out_channels, options.out_channels, residual_options, rng);
  }
}

int64_t DhstBlock::OutputFrames(int64_t in_frames) const {
  return (in_frames - 1) / options_.temporal_stride + 1;
}

int64_t DhstBlock::Record(PlanBuilder& builder, int64_t x,
                          int64_t joint_ops) {
  if (training_) return -1;
  const Shape xs = builder.slot_shape(x);
  if (xs.size() != 4 || xs[1] != options_.in_channels) return -1;

  // --- Spatial half: sum of the enabled branches. ---
  int64_t branch_sum = -1;
  if (options_.enable_static) {
    int64_t t = static_theta_->Record(builder, x);
    if (t < 0) return -1;
    int64_t m = static_mix_->Record(builder, t);
    if (m < 0) return -1;
    MergeBranch(builder, m, &branch_sum);
  }
  if (options_.enable_joint_weight) {
    if (joint_ops < 0) return -1;
    const Shape os = builder.slot_shape(joint_ops);
    if (os.size() != 4 || os[0] != xs[0] || os[1] != xs[2] ||
        os[2] != xs[3] || os[3] != xs[3]) {
      return -1;
    }
    int64_t t = weight_theta_->Record(builder, x);
    if (t < 0) return -1;
    MergeBranch(builder,
                RecordDynamicMix(builder, weight_mix_.get(), t, joint_ops),
                &branch_sum);
  }
  if (options_.enable_topology) {
    int64_t mapped = topology_map_->Record(builder, x);
    if (mapped < 0) return -1;
    const Shape ms = builder.slot_shape(mapped);
    PlanOp top;
    top.kind = PlanOpKind::kTopologyOps;
    top.in0 = mapped;
    top.out = builder.AddSlot({ms[0], ms[2], ms[3], ms[3]});
    top.topology = &options_.topology;
    int64_t top_ops = top.out;
    builder.AddOp(std::move(top));
    MergeBranch(
        builder,
        RecordDynamicMix(builder, topology_mix_.get(), mapped, top_ops),
        &branch_sum);
  }
  if (branch_sum < 0) return -1;

  // Residual before BN (see header comment) so [BN, Accumulate, ReLU]
  // stay adjacent for the fuser.
  int64_t s_res = x;
  if (spatial_residual_ != nullptr) {
    s_res = spatial_residual_->Record(builder, x);
    if (s_res < 0) return -1;
  }
  int64_t s_pre = spatial_bn_->Record(builder, branch_sum);
  if (s_pre < 0) return -1;
  PlanOp s_add;
  s_add.kind = PlanOpKind::kAccumulate;
  s_add.in0 = s_res;
  s_add.out = s_pre;
  builder.AddOp(std::move(s_add));
  int64_t s = spatial_relu_.Record(builder, s_pre);
  if (s < 0) return -1;

  // --- Temporal half. ---
  int64_t t_conv = temporal_conv_->Record(builder, s);
  if (t_conv < 0) return -1;
  int64_t t_res = s;
  if (temporal_residual_ != nullptr) {
    t_res = temporal_residual_->Record(builder, s);
    if (t_res < 0) return -1;
  }
  int64_t t_pre = temporal_bn_->Record(builder, t_conv);
  if (t_pre < 0) return -1;
  PlanOp t_add;
  t_add.kind = PlanOpKind::kAccumulate;
  t_add.in0 = t_res;
  t_add.out = t_pre;
  builder.AddOp(std::move(t_add));
  return temporal_relu_.Record(builder, t_pre);
}

Tensor DhstBlock::Forward(const Tensor& x, const Tensor& joint_ops,
                          Workspace* ws) {
  DHGCN_CHECK_EQ(x.ndim(), 4);
  DHGCN_CHECK_EQ(x.dim(1), options_.in_channels);

  // --- Spatial half: sum of the enabled branches. ---
  Tensor branch_sum;
  bool first = true;
  if (options_.enable_static) {
    Tensor b = static_mix_->Forward(static_theta_->Forward(x, ws), ws);
    branch_sum = std::move(b);
    first = false;
  }
  if (options_.enable_joint_weight) {
    DHGCN_CHECK_EQ(joint_ops.ndim(), 4);
    DHGCN_CHECK_EQ(joint_ops.dim(1), x.dim(2));
    weight_mix_->SetOperators(joint_ops);
    Tensor b = weight_mix_->Forward(weight_theta_->Forward(x, ws), ws);
    if (first) {
      branch_sum = std::move(b);
      first = false;
    } else {
      AddInPlace(branch_sum, b);
    }
  }
  if (options_.enable_topology) {
    Tensor mapped = topology_map_->Forward(x, ws);
    topology_mix_->SetOperators(
        DynamicTopologyOperators(mapped, options_.topology, ws));
    Tensor b = topology_mix_->Forward(mapped, ws);
    if (first) {
      branch_sum = std::move(b);
      first = false;
    } else {
      AddInPlace(branch_sum, b);
    }
  }

  Tensor s_pre = spatial_bn_->Forward(branch_sum, ws);
  if (spatial_residual_ != nullptr) {
    AddInPlace(s_pre, spatial_residual_->Forward(x, ws));
  } else {
    AddInPlace(s_pre, x);
  }
  Tensor s = spatial_relu_.Forward(s_pre, ws);

  // --- Temporal half. ---
  Tensor t_pre = temporal_bn_->Forward(temporal_conv_->Forward(s, ws), ws);
  if (temporal_residual_ != nullptr) {
    AddInPlace(t_pre, temporal_residual_->Forward(s, ws));
  } else {
    AddInPlace(t_pre, s);
  }
  return temporal_relu_.Forward(t_pre, ws);
}

Tensor DhstBlock::Backward(const Tensor& grad_output, Workspace* ws) {
  Tensor g_tpre = temporal_relu_.Backward(grad_output, ws);
  Tensor g_s =
      temporal_conv_->Backward(temporal_bn_->Backward(g_tpre, ws), ws);
  if (temporal_residual_ != nullptr) {
    AddInPlace(g_s, temporal_residual_->Backward(g_tpre, ws));
  } else {
    AddInPlace(g_s, g_tpre);
  }

  Tensor g_spre = spatial_relu_.Backward(g_s, ws);
  Tensor g_sum = spatial_bn_->Backward(g_spre, ws);
  Tensor g_x;
  if (spatial_residual_ != nullptr) {
    g_x = spatial_residual_->Backward(g_spre, ws);
  } else {
    g_x = NewTensor(ws, g_spre.shape());
    g_x.CopyFrom(g_spre);
  }
  if (options_.enable_static) {
    AddInPlace(g_x,
               static_theta_->Backward(static_mix_->Backward(g_sum, ws), ws));
  }
  if (options_.enable_joint_weight) {
    AddInPlace(g_x,
               weight_theta_->Backward(weight_mix_->Backward(g_sum, ws), ws));
  }
  if (options_.enable_topology) {
    AddInPlace(g_x, topology_map_->Backward(
                        topology_mix_->Backward(g_sum, ws), ws));
  }
  return g_x;
}

std::vector<ParamRef> DhstBlock::Params() {
  std::vector<ParamRef> params;
  auto append = [&params](const char* prefix, Layer* layer) {
    if (layer == nullptr) return;
    for (ParamRef p : layer->Params()) {
      p.name = std::string(prefix) + "." + p.name;
      params.push_back(p);
    }
  };
  append("static_theta", static_theta_.get());
  append("static_mix", static_mix_.get());
  append("weight_theta", weight_theta_.get());
  append("topology_map", topology_map_.get());
  append("spatial_bn", spatial_bn_.get());
  append("spatial_residual", spatial_residual_.get());
  append("temporal_conv", temporal_conv_.get());
  append("temporal_bn", temporal_bn_.get());
  append("temporal_residual", temporal_residual_.get());
  return params;
}

void DhstBlock::SetTraining(bool training) {
  training_ = training;
  auto set = [training](Layer* layer) {
    if (layer != nullptr) layer->SetTraining(training);
  };
  set(static_theta_.get());
  set(static_mix_.get());
  set(weight_theta_.get());
  set(weight_mix_.get());
  set(topology_map_.get());
  set(topology_mix_.get());
  set(spatial_bn_.get());
  set(spatial_residual_.get());
  set(temporal_conv_.get());
  set(temporal_bn_.get());
  set(temporal_residual_.get());
  spatial_relu_.SetTraining(training);
  temporal_relu_.SetTraining(training);
}

void DhstBlock::ZeroGrad() {
  for (ParamRef& p : Params()) {
    if (p.grad != nullptr) p.grad->Fill(0.0f);
  }
}

int64_t DhstBlock::ParameterCount() {
  int64_t count = 0;
  for (ParamRef& p : Params()) {
    if (p.trainable) count += p.value->numel();
  }
  return count;
}

}  // namespace dhgcn

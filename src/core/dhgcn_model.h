#ifndef DHGCN_CORE_DHGCN_MODEL_H_
#define DHGCN_CORE_DHGCN_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "base/result.h"
#include "base/rng.h"
#include "core/dhst_block.h"
#include "data/skeleton.h"
#include "nn/batchnorm.h"
#include "nn/dropout.h"
#include "nn/linear.h"
#include "nn/pooling.h"

namespace dhgcn {

/// Channel/stride/dilation specification of one DHST block.
struct DhgcnBlockSpec {
  int64_t channels = 64;
  int64_t temporal_stride = 1;
  int64_t temporal_dilation = 1;
};

/// \brief Full DHGCN model configuration.
struct DhgcnConfig {
  SkeletonLayoutType layout = SkeletonLayoutType::kNtu25;
  int64_t num_classes = 10;
  int64_t in_channels = 3;
  std::vector<DhgcnBlockSpec> blocks;
  DynamicTopologyOptions topology;  // k_n, k_m
  bool enable_static = true;
  bool enable_joint_weight = true;
  bool enable_topology = true;
  float dropout = 0.0f;
  uint64_t seed = 7;

  /// The paper's 10-block backbone (Fig. 5): channels 64 (x4),
  /// 128 (x3, first strided), 256 (x3, first strided).
  static DhgcnConfig Paper(SkeletonLayoutType layout, int64_t num_classes);

  /// CPU-scale configuration used by the experiments in this repo:
  /// 4 blocks, channels 16/32/32/64 with two temporal strides.
  static DhgcnConfig Small(SkeletonLayoutType layout, int64_t num_classes);

  /// Minimal 2-block configuration for fast tests.
  static DhgcnConfig Tiny(SkeletonLayoutType layout, int64_t num_classes);
};

/// \brief The DHGCN classifier (Sec. 3.5): input batch-norm, a stack of
/// DHST blocks, global average pooling, dropout and the classifier FC.
///
/// Implements `Layer`: Forward maps (N, C, T, V) skeleton input to
/// (N, num_classes) logits. The dynamic joint-weight operators (Eq. 9)
/// are computed once from the raw model input (moving distances of the
/// input coordinates) and re-strided to each block's temporal resolution.
class DhgcnModel : public Layer {
 public:
  DhgcnModel(const DhgcnConfig& config);  // NOLINT(runtime/explicit)

  /// Validates the configuration before construction.
  static Result<std::unique_ptr<DhgcnModel>> Make(const DhgcnConfig& config);

  std::vector<ParamRef> Params() override;
  void SetTraining(bool training) override;
  std::string name() const override;

  /// Records the full inference forward (joint-weight operator
  /// construction, input BN, block stack with operator re-striding,
  /// pooling, identity dropout, classifier) into a plan. See
  /// `CaptureInferencePlan` for the entry point.
  int64_t Record(PlanBuilder& builder, int64_t in) override;

  const DhgcnConfig& config() const { return config_; }
  const Hypergraph& static_hypergraph() const { return static_hypergraph_; }

 private:
  Tensor ForwardImpl(const Tensor& input, Workspace* ws) override;
  Tensor BackwardImpl(const Tensor& grad_output, Workspace* ws) override;

  DhgcnConfig config_;
  Hypergraph static_hypergraph_;

  std::unique_ptr<BatchNorm2d> input_bn_;
  std::vector<std::unique_ptr<DhstBlock>> blocks_;
  GlobalAvgPool2d pool_;
  std::unique_ptr<Dropout> dropout_;  // null when dropout == 0
  std::unique_ptr<Linear> classifier_;
};

}  // namespace dhgcn

#endif  // DHGCN_CORE_DHGCN_MODEL_H_

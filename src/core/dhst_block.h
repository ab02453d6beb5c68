#ifndef DHGCN_CORE_DHST_BLOCK_H_
#define DHGCN_CORE_DHST_BLOCK_H_

#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/dynamic_topology.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/hypergraph_conv.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/layer.h"
#include "nn/relu.h"

namespace dhgcn {

/// Configuration of one DHST (Dynamic Hypergraph Spatial-Temporal) block.
struct DhstBlockOptions {
  int64_t in_channels = 3;
  int64_t out_channels = 64;
  /// Temporal stride of the TCN half (down-samples T).
  int64_t temporal_stride = 1;
  /// TCN kernel is (temporal_kernel x 1), paper: 3x1.
  int64_t temporal_kernel = 3;
  /// Dilation of the TCN kernel ("a larger receptive field can be
  /// obtained by using different dilation rates").
  int64_t temporal_dilation = 1;
  /// Dynamic-topology parameters (k_n, k_m).
  DynamicTopologyOptions topology;
  /// Branch toggles for the Tab. 4 ablation.
  bool enable_static = true;
  bool enable_joint_weight = true;
  bool enable_topology = true;
};

/// \brief One DHST block (Fig. 5): a three-branch spatial hypergraph
/// convolution followed by a dilated temporal convolution, both with
/// residual connections and batch-norm.
///
/// Spatial half: the static-hypergraph branch (fixed operator, Eq. 5),
/// the dynamic joint-weight branch (per-frame Imp Imp^T operators,
/// Eq. 9, supplied by the caller since they derive from the *model
/// input* coordinates), and the dynamic-topology branch (K-NN + K-means
/// hypergraph built from the branch's own mapped features, Sec. 3.4).
/// Each branch is a 1x1 convolution (the Theta of Eqs. 5/9) followed by a
/// vertex aggregation; branch outputs are summed, batch-normed, joined
/// with a (possibly projected) residual, and passed through ReLU.
///
/// Not a `Layer`: Forward needs the per-frame joint-weight operators in
/// addition to the activations.
class DhstBlock {
 public:
  DhstBlock(const DhstBlockOptions& options, const Hypergraph& static_graph,
            Rng& rng);

  DhstBlock(const DhstBlock&) = delete;
  DhstBlock& operator=(const DhstBlock&) = delete;

  /// `x` is (N, C_in, T, V); `joint_ops` is (N, T, V, V) — the Eq. 9
  /// operators at this block's temporal resolution (ignored when the
  /// joint-weight branch is disabled; pass an empty tensor then). With a
  /// workspace, activations and the dynamic-topology operators borrow
  /// arena storage, as in `Layer::Forward`; the kernels are the same.
  Tensor Forward(const Tensor& x, const Tensor& joint_ops,
                 Workspace* ws = nullptr);

  /// Returns d loss / d x for the previous block.
  Tensor Backward(const Tensor& grad_output, Workspace* ws = nullptr);

  std::vector<ParamRef> Params();
  void SetTraining(bool training);
  void ZeroGrad();
  int64_t ParameterCount();

  const DhstBlockOptions& options() const { return options_; }

  /// Output temporal length for an input length (tracks the TCN stride).
  int64_t OutputFrames(int64_t in_frames) const;

  /// Records the block's inference computation; `x` is the activation
  /// slot, `joint_ops` the (N, T, V, V) joint-weight operator slot at
  /// this block's temporal resolution (-1 when the branch is disabled).
  /// Returns the output slot or -1 when the block cannot record (e.g.
  /// still in training mode). Residual convolutions are recorded before
  /// the batch-norm so the [BN, Accumulate, ReLU] tail stays adjacent
  /// for the elementwise fuser; every op is pure, so this reordering of
  /// independent ops cannot change any computed value.
  int64_t Record(PlanBuilder& builder, int64_t x, int64_t joint_ops);

 private:
  DhstBlockOptions options_;

  // Spatial branches (each: 1x1 conv Theta, then vertex aggregation).
  std::unique_ptr<Conv2d> static_theta_;
  std::unique_ptr<VertexMix> static_mix_;
  std::unique_ptr<Conv2d> weight_theta_;
  std::unique_ptr<DynamicVertexMix> weight_mix_;
  std::unique_ptr<Conv2d> topology_map_;  // W_map of Eq. 10
  std::unique_ptr<DynamicVertexMix> topology_mix_;

  std::unique_ptr<BatchNorm2d> spatial_bn_;
  std::unique_ptr<Conv2d> spatial_residual_;  // null => identity
  ReLU spatial_relu_;

  // Temporal half.
  std::unique_ptr<Conv2d> temporal_conv_;
  std::unique_ptr<BatchNorm2d> temporal_bn_;
  std::unique_ptr<Conv2d> temporal_residual_;  // null => identity
  ReLU temporal_relu_;

  int64_t enabled_branches_ = 0;
  bool training_ = true;
};

}  // namespace dhgcn

#endif  // DHGCN_CORE_DHST_BLOCK_H_

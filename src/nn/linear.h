#ifndef DHGCN_NN_LINEAR_H_
#define DHGCN_NN_LINEAR_H_

#include <string>
#include <vector>

#include "base/rng.h"
#include "nn/layer.h"

namespace dhgcn {

/// \brief Fully-connected layer: y = x W^T + b.
///
/// Input (N, in_features) -> output (N, out_features). Inputs with more
/// than two dimensions are treated as (prod(leading dims), in_features)
/// and the leading dims are restored on output, matching torch.nn.Linear.
class Linear : public Layer {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng,
         bool has_bias = true);

  std::vector<ParamRef> Params() override;
  std::string name() const override;

  /// Plan capture; restricted to 2-D slots (the classifier position in
  /// the model — higher-rank inputs need the reshape dance of the layer
  /// path, which a static plan does not model).
  int64_t Record(PlanBuilder& builder, int64_t in) override;

  /// Plan-replay entry: y = x W^T + b for 2-D `input` into the
  /// pre-shaped `out`, through the exact same kernel as the layer path
  /// (bit-identical results). `weight`/`bias` override the layer
  /// parameters when non-null (BN-folded plans); a null `bias` falls
  /// back to the layer bias, or no bias when the layer has none. Does
  /// not touch the autograd cache.
  void ForwardPlan(const Tensor& input, const Tensor* weight,
                   const Tensor* bias, Tensor* out) const;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }
  bool has_bias() const { return has_bias_; }
  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  // Shared kernels behind both execution modes: `ws == nullptr` runs on
  // fresh owning tensors (legacy), otherwise on arena storage. One code
  // path keeps the two modes bit-identical.
  Tensor ForwardImpl(const Tensor& input, Workspace* ws) override;
  Tensor BackwardImpl(const Tensor& grad_output, Workspace* ws) override;
  /// y = x2d w^T (+ bias row-broadcast) into the pre-shaped 2-D `y`;
  /// both forward paths land here.
  void RunLinear(const Tensor& x2d, const Tensor& w, const float* pb,
                 Tensor* y) const;

  int64_t in_features_;
  int64_t out_features_;
  bool has_bias_;

  Tensor weight_;       // (out, in)
  Tensor weight_grad_;  // (out, in)
  Tensor bias_;         // (out)
  Tensor bias_grad_;    // (out)

  Tensor cached_input_2d_;  // (rows, in)
  Shape cached_input_shape_;
};

}  // namespace dhgcn

#endif  // DHGCN_NN_LINEAR_H_

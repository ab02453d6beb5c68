#ifndef DHGCN_NN_CONV2D_H_
#define DHGCN_NN_CONV2D_H_

#include <string>
#include <vector>

#include "base/rng.h"
#include "nn/layer.h"

namespace dhgcn {

/// \brief Configuration of a 2-D convolution.
///
/// The skeleton models convolve over (T, V) planes: temporal convolutions
/// use kernels of shape (k, 1) with dilation on the time axis, and 1x1
/// convolutions implement per-joint channel mixing.
struct Conv2dOptions {
  int64_t kernel_h = 1;
  int64_t kernel_w = 1;
  int64_t stride_h = 1;
  int64_t stride_w = 1;
  int64_t pad_h = 0;
  int64_t pad_w = 0;
  int64_t dilation_h = 1;
  int64_t dilation_w = 1;
  bool has_bias = true;
};

/// \brief 2-D convolution over (N, C, H, W) inputs.
///
/// 1x1 convolutions run as per-clip GEMMs, every other shape is lowered
/// through im2col onto the blocked GEMM, each pass one ParallelFor over
/// the batch's clips (see DESIGN.md §9 and §10). Output
/// spatial size follows the usual formula
/// out = (in + 2*pad - dilation*(k-1) - 1)/stride + 1.
class Conv2d : public Layer {
 public:
  Conv2d(int64_t in_channels, int64_t out_channels,
         const Conv2dOptions& options, Rng& rng);

  std::vector<ParamRef> Params() override;
  std::string name() const override;
  int64_t Record(PlanBuilder& builder, int64_t in) override;

  /// Plan-replay entry: convolves `input` into the pre-shaped `out`
  /// through the exact same kernels as the layer path (bit-identical
  /// results). `weight`/`bias` override the layer parameters when
  /// non-null (BN-folded plans); a null `bias` falls back to the layer
  /// bias, or no bias when the layer has none. Does not touch the
  /// autograd cache.
  void ForwardPlan(const Tensor& input, const Tensor* weight,
                   const Tensor* bias, Tensor* out) const;

  int64_t in_channels() const { return in_channels_; }
  int64_t out_channels() const { return out_channels_; }
  const Conv2dOptions& options() const { return options_; }
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

  /// Output length along one spatial axis for the given input length.
  static int64_t OutputDim(int64_t in, int64_t kernel, int64_t stride,
                           int64_t pad, int64_t dilation);

 private:
  Tensor ForwardImpl(const Tensor& input, Workspace* ws) override;
  Tensor BackwardImpl(const Tensor& grad_output, Workspace* ws) override;
  /// Shared forward kernels: both the layer path and plan replay land
  /// here, parameterized by raw weight/bias pointers and a pre-allocated
  /// destination (every element of `out` is written). Im2col lowers each
  /// clip onto the blocked GEMM (per-chunk scratch columns from
  /// detail::KernelOpScratch).
  void RunForward(const Tensor& input, const float* pw, const float* pb,
                  int64_t oh, int64_t ow, Tensor* out) const;
  void RunPointwise(const Tensor& input, const float* pw, const float* pb,
                    Tensor* out) const;
  void RunIm2col(const Tensor& input, const float* pw, const float* pb,
                 int64_t oh, int64_t ow, Tensor* out) const;
  Tensor BackwardIm2col(const Tensor& grad_output, Workspace* ws);

  /// 1x1/stride-1/unpadded convolutions (the channel mixers, which
  /// dominate the skeleton models) reduce to per-clip GEMMs.
  bool IsPointwise() const;

  int64_t in_channels_;
  int64_t out_channels_;
  Conv2dOptions options_;

  Tensor weight_;       // (out, in, kh, kw)
  Tensor weight_grad_;
  Tensor bias_;         // (out)
  Tensor bias_grad_;

  Tensor cached_input_;  // (N, C, H, W)
};

}  // namespace dhgcn

#endif  // DHGCN_NN_CONV2D_H_

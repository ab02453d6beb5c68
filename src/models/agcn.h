#ifndef DHGCN_MODELS_AGCN_H_
#define DHGCN_MODELS_AGCN_H_

#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "data/skeleton.h"
#include "models/st_common.h"
#include "nn/conv2d.h"
#include "nn/layer.h"

namespace dhgcn {

/// \brief Adaptive spatial convolution of 2s-AGCN (Shi et al. 2019):
///
///   y = W(x) aggregated with  M[n] = A + B + C[n]
///
/// where A is a fixed structural operator (normalized skeleton adjacency
/// for AGCN, static-hypergraph operator for AHGCN), B is a fully learnable
/// (V, V) matrix initialized near zero, and C[n] is per-sample attention:
/// row-softmax of the embedded feature similarity
/// S[n,v,u] = sum_{c,t} theta(x)[n,c,t,v] phi(x)[n,c,t,u] / (C_e T).
/// Gradients flow through W, B, and the attention embeddings theta/phi.
class AdaptiveSpatial : public Layer {
 public:
  AdaptiveSpatial(int64_t in_channels, int64_t out_channels, Tensor base_op,
                  Rng& rng, int64_t embed_channels = 0);

  std::vector<ParamRef> Params() override;
  void SetTraining(bool training) override;
  std::string name() const override;

  /// Attention matrices C of the most recent Forward, (N, V, V).
  const Tensor& attention() const { return cached_attention_; }

 private:
  // Ignore `ws` and return owning tensors (DESIGN.md §6).
  Tensor ForwardImpl(const Tensor& input, Workspace* ws) override;
  Tensor BackwardImpl(const Tensor& grad_output, Workspace* ws) override;

  std::unique_ptr<Conv2d> w_;      // feature transform (Theta of Eq. 5)
  std::unique_ptr<Conv2d> theta_;  // attention query embedding
  std::unique_ptr<Conv2d> phi_;    // attention key embedding
  Tensor base_op_;                 // A, fixed (V, V)
  Tensor b_;                       // B, learnable (V, V)
  Tensor b_grad_;
  int64_t embed_channels_;

  Tensor cached_h_;          // W(x), (N, Cout, T, V)
  Tensor cached_e1_;         // theta(x)
  Tensor cached_e2_;         // phi(x)
  Tensor cached_attention_;  // C, (N, V, V)
};

/// \brief 2s-AGCN single-stream model: StBlocks with AdaptiveSpatial over
/// the normalized skeleton-graph adjacency.
LayerPtr MakeAgcnModel(SkeletonLayoutType layout, int64_t num_classes,
                       const BaselineScale& scale, uint64_t seed);

}  // namespace dhgcn

#endif  // DHGCN_MODELS_AGCN_H_

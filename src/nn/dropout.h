#ifndef DHGCN_NN_DROPOUT_H_
#define DHGCN_NN_DROPOUT_H_

#include <string>

#include "base/rng.h"
#include "nn/layer.h"

namespace dhgcn {

/// \brief Inverted dropout: zeroes activations with probability `p` during
/// training and rescales survivors by 1/(1-p); identity during inference.
class Dropout : public Layer {
 public:
  Dropout(float p, Rng& rng);

  std::string name() const override;

  /// Eval-mode dropout is a true identity fast path: the forward returns
  /// the input unchanged — no mask tensor, no allocation, and the RNG
  /// stream is never advanced. Plan capture therefore records dropout as
  /// a no-op (the input slot passes straight through), so inference
  /// plans never touch the RNG.
  int64_t Record(PlanBuilder& builder, int64_t in) override;

  float p() const { return p_; }

 private:
  Tensor ForwardImpl(const Tensor& input, Workspace* ws) override;
  Tensor BackwardImpl(const Tensor& grad_output, Workspace* ws) override;

  float p_;
  Rng rng_;
  Tensor cached_mask_;  // already scaled by 1/(1-p)
  bool cached_was_training_ = false;
};

}  // namespace dhgcn

#endif  // DHGCN_NN_DROPOUT_H_

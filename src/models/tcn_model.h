#ifndef DHGCN_MODELS_TCN_MODEL_H_
#define DHGCN_MODELS_TCN_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "data/skeleton.h"
#include "models/st_common.h"
#include "nn/layer.h"

namespace dhgcn {

/// \brief The TCN baseline (Kim & Reiter 2017, Tab. 6/7): joints are
/// flattened into channels ((N, C, T, V) -> (N, C*V, T, 1)) and processed
/// by a stack of purely temporal convolutions — no graph structure at
/// all. This is the "pseudo-image" family the paper argues against.
class TcnModel : public Layer {
 public:
  TcnModel(SkeletonLayoutType layout, int64_t num_classes,
           const BaselineScale& scale, uint64_t seed);

  std::vector<ParamRef> Params() override;
  void SetTraining(bool training) override;
  std::string name() const override { return "TCN"; }

 private:
  // Ignore `ws` and return owning tensors (DESIGN.md §6).
  Tensor ForwardImpl(const Tensor& input, Workspace* ws) override;
  Tensor BackwardImpl(const Tensor& grad_output, Workspace* ws) override;

  int64_t num_joints_;
  std::unique_ptr<BackboneClassifier> backbone_;
  Shape cached_input_shape_;
};

LayerPtr MakeTcnModel(SkeletonLayoutType layout, int64_t num_classes,
                      const BaselineScale& scale, uint64_t seed);

}  // namespace dhgcn

#endif  // DHGCN_MODELS_TCN_MODEL_H_

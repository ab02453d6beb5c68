#ifndef DHGCN_NN_SEQUENTIAL_H_
#define DHGCN_NN_SEQUENTIAL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/layer.h"

namespace dhgcn {

/// \brief Runs child layers in order; Backward runs them in reverse.
class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer; returns a raw pointer for further configuration.
  template <typename L, typename... Args>
  L* Emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* raw = layer.get();
    layers_.push_back(std::move(layer));
    return raw;
  }

  std::vector<ParamRef> Params() override;
  void SetTraining(bool training) override;
  std::string name() const override;

  /// Chains child recordings; fails (-1) as soon as any child cannot
  /// record.
  int64_t Record(PlanBuilder& builder, int64_t in) override;

  size_t size() const { return layers_.size(); }
  Layer* layer(size_t i) { return layers_.at(i).get(); }

 private:
  Tensor ForwardImpl(const Tensor& input, Workspace* ws) override;
  Tensor BackwardImpl(const Tensor& grad_output, Workspace* ws) override;

  std::vector<LayerPtr> layers_;
};

}  // namespace dhgcn

#endif  // DHGCN_NN_SEQUENTIAL_H_

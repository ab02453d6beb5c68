#include "nn/sequential.h"

#include "base/string_util.h"

namespace dhgcn {

Tensor Sequential::ForwardImpl(const Tensor& input, Workspace* ws) {
  Tensor x = input;
  for (auto& layer : layers_) x = layer->Forward(x, ws);
  return x;
}

Tensor Sequential::BackwardImpl(const Tensor& grad_output, Workspace* ws) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->Backward(g, ws);
  }
  return g;
}

std::vector<ParamRef> Sequential::Params() {
  std::vector<ParamRef> params;
  for (size_t i = 0; i < layers_.size(); ++i) {
    for (ParamRef p : layers_[i]->Params()) {
      p.name = StrCat(i, ".", layers_[i]->name(), ".", p.name);
      params.push_back(p);
    }
  }
  return params;
}

void Sequential::SetTraining(bool training) {
  Layer::SetTraining(training);
  for (auto& layer : layers_) layer->SetTraining(training);
}

std::string Sequential::name() const {
  return StrCat("Sequential[", layers_.size(), "]");
}

int64_t Sequential::Record(PlanBuilder& builder, int64_t in) {
  int64_t x = in;
  for (auto& layer : layers_) {
    x = layer->Record(builder, x);
    if (x < 0) return -1;
  }
  return x;
}

}  // namespace dhgcn

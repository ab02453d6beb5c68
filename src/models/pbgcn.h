#ifndef DHGCN_MODELS_PBGCN_H_
#define DHGCN_MODELS_PBGCN_H_

#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "data/skeleton.h"
#include "models/st_common.h"
#include "nn/conv2d.h"
#include "nn/layer.h"

namespace dhgcn {

/// \brief The (V, V) normalized adjacency of the subgraph induced by
/// `part` on the skeleton graph, embedded into the full vertex set
/// (rows/columns outside the part are zero).
Tensor PartSubgraphOperator(const SkeletonLayout& layout,
                            const std::vector<int64_t>& part);

/// \brief Spatial layer of PB-GCN (Thakkar & Narayanan): one convolution
/// per body part applied under that part's subgraph operator, aggregated
/// by summation — the "aggregation function" the paper's PB-HGCN ablation
/// removes.
class PartSumSpatial : public Layer {
 public:
  PartSumSpatial(int64_t in_channels, int64_t out_channels,
                 const SkeletonLayout& layout, int64_t num_parts, Rng& rng);

  std::vector<ParamRef> Params() override;
  void SetTraining(bool training) override;
  std::string name() const override;

  int64_t num_parts() const {
    return static_cast<int64_t>(part_convs_.size());
  }

 private:
  // Ignore `ws` and return owning tensors (DESIGN.md §6).
  Tensor ForwardImpl(const Tensor& input, Workspace* ws) override;
  Tensor BackwardImpl(const Tensor& grad_output, Workspace* ws) override;

  std::vector<std::unique_ptr<Conv2d>> part_convs_;
  std::vector<Tensor> part_ops_;  // (V, V) each
};

/// \brief PB-GCN model: per-part subgraph convolutions + sum aggregation.
LayerPtr MakePbGcnModel(SkeletonLayoutType layout, int64_t num_classes,
                        int64_t num_parts, const BaselineScale& scale,
                        uint64_t seed);

/// \brief PB-HGCN model (Tab. 2): the PB-GCN parts become hyperedges of a
/// single hypergraph, convolved with one operator — no per-part branches
/// or aggregation function.
LayerPtr MakePbHgcnModel(SkeletonLayoutType layout, int64_t num_classes,
                         int64_t num_parts, const BaselineScale& scale,
                         uint64_t seed);

}  // namespace dhgcn

#endif  // DHGCN_MODELS_PBGCN_H_

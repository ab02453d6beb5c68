#include "models/pbgcn.h"

#include <cmath>
#include <unordered_set>

#include "base/check.h"
#include "base/string_util.h"
#include "core/static_hypergraph.h"
#include "hypergraph/hypergraph_conv.h"
#include "tensor/tensor_ops.h"

namespace dhgcn {

Tensor PartSubgraphOperator(const SkeletonLayout& layout,
                            const std::vector<int64_t>& part) {
  int64_t v = layout.num_joints;
  std::unordered_set<int64_t> members(part.begin(), part.end());
  // Induced adjacency with self-loops on part members.
  Tensor a({v, v});
  for (int64_t j : part) a.at(j, j) = 1.0f;
  for (const auto& [child, parent] : layout.bones) {
    if (members.count(child) > 0 && members.count(parent) > 0) {
      a.at(child, parent) = 1.0f;
      a.at(parent, child) = 1.0f;
    }
  }
  // Symmetric normalization restricted to the part.
  std::vector<float> inv_sqrt(static_cast<size_t>(v), 0.0f);
  for (int64_t j : part) {
    float deg = 0.0f;
    for (int64_t u = 0; u < v; ++u) deg += a.at(j, u);
    inv_sqrt[static_cast<size_t>(j)] = 1.0f / std::sqrt(deg);
  }
  Tensor out({v, v});
  for (int64_t i = 0; i < v; ++i) {
    for (int64_t j = 0; j < v; ++j) {
      out.at(i, j) = inv_sqrt[static_cast<size_t>(i)] * a.at(i, j) *
                     inv_sqrt[static_cast<size_t>(j)];
    }
  }
  return out;
}

PartSumSpatial::PartSumSpatial(int64_t in_channels, int64_t out_channels,
                               const SkeletonLayout& layout,
                               int64_t num_parts, Rng& rng) {
  std::vector<std::vector<int64_t>> parts = PartPartition(layout, num_parts);
  Conv2dOptions one_by_one;
  for (const std::vector<int64_t>& part : parts) {
    part_convs_.push_back(std::make_unique<Conv2d>(in_channels, out_channels,
                                                   one_by_one, rng));
    part_ops_.push_back(PartSubgraphOperator(layout, part));
  }
}

Tensor PartSumSpatial::ForwardImpl(const Tensor& input, Workspace* /*ws*/) {
  DHGCN_CHECK_EQ(input.ndim(), 4);
  Tensor sum;
  for (size_t p = 0; p < part_convs_.size(); ++p) {
    Tensor h = part_convs_[p]->Forward(input);
    // Apply the part operator on the vertex axis.
    int64_t rows = h.numel() / h.dim(3);
    int64_t v = h.dim(3);
    Tensor y(h.shape());
    const float* ph = h.data();
    const float* pm = part_ops_[p].data();
    float* py = y.data();
    for (int64_t r = 0; r < rows; ++r) {
      const float* hrow = ph + r * v;
      float* yrow = py + r * v;
      for (int64_t vi = 0; vi < v; ++vi) {
        const float* mrow = pm + vi * v;
        double acc = 0.0;
        for (int64_t u = 0; u < v; ++u) {
          acc += static_cast<double>(mrow[u]) * hrow[u];
        }
        yrow[vi] = static_cast<float>(acc);
      }
    }
    if (p == 0) {
      sum = std::move(y);
    } else {
      AddInPlace(sum, y);
    }
  }
  return sum;
}

Tensor PartSumSpatial::BackwardImpl(const Tensor& grad_output,
                                    Workspace* /*ws*/) {
  Tensor grad_input;
  int64_t v = grad_output.dim(3);
  int64_t rows = grad_output.numel() / v;
  for (size_t p = 0; p < part_convs_.size(); ++p) {
    // dh = M^T dy for this part, then through the part conv.
    Tensor grad_h(grad_output.shape());
    const float* pg = grad_output.data();
    const float* pm = part_ops_[p].data();
    float* pgh = grad_h.data();
    for (int64_t r = 0; r < rows; ++r) {
      const float* grow = pg + r * v;
      float* ghrow = pgh + r * v;
      for (int64_t vi = 0; vi < v; ++vi) {
        float g = grow[vi];
        if (g == 0.0f) continue;
        const float* mrow = pm + vi * v;
        for (int64_t u = 0; u < v; ++u) ghrow[u] += g * mrow[u];
      }
    }
    Tensor gx = part_convs_[p]->Backward(grad_h);
    if (p == 0) {
      grad_input = std::move(gx);
    } else {
      AddInPlace(grad_input, gx);
    }
  }
  return grad_input;
}

std::vector<ParamRef> PartSumSpatial::Params() {
  std::vector<ParamRef> params;
  for (size_t p = 0; p < part_convs_.size(); ++p) {
    for (ParamRef ref : part_convs_[p]->Params()) {
      ref.name = StrCat("part", p, ".", ref.name);
      params.push_back(ref);
    }
  }
  return params;
}

void PartSumSpatial::SetTraining(bool training) {
  Layer::SetTraining(training);
  for (auto& conv : part_convs_) conv->SetTraining(training);
}

std::string PartSumSpatial::name() const {
  return StrCat("PartSumSpatial(parts=", part_convs_.size(), ")");
}

LayerPtr MakePbGcnModel(SkeletonLayoutType layout, int64_t num_classes,
                        int64_t num_parts, const BaselineScale& scale,
                        uint64_t seed) {
  const SkeletonLayout& l = GetSkeletonLayout(layout);
  Rng rng(seed);
  std::vector<LayerPtr> blocks;
  int64_t in_channels = 3;
  for (size_t i = 0; i < scale.channels.size(); ++i) {
    int64_t out_channels = scale.channels[i];
    auto spatial = std::make_unique<PartSumSpatial>(
        in_channels, out_channels, l, num_parts, rng);
    blocks.push_back(std::make_unique<StBlock>(
        std::move(spatial), in_channels, out_channels, scale.strides[i],
        rng));
    in_channels = out_channels;
  }
  return std::make_unique<BackboneClassifier>(
      StrCat("PB-GCN(", num_parts, ")"), 3, in_channels, num_classes,
      std::move(blocks), scale.dropout, rng);
}

LayerPtr MakePbHgcnModel(SkeletonLayoutType layout, int64_t num_classes,
                         int64_t num_parts, const BaselineScale& scale,
                         uint64_t seed) {
  const SkeletonLayout& l = GetSkeletonLayout(layout);
  Tensor op = NormalizedHypergraphOperator(PartBasedHypergraph(l, num_parts));
  Rng rng(seed);
  std::vector<LayerPtr> blocks;
  // Capacity matching: PB-GCN spends P 1x1 convolutions per block where
  // PB-HGCN spends one, so at equal widths the hypergraph variant has
  // ~P-fold fewer spatial parameters and the comparison measures
  // capacity, not topology. With a block cost of roughly
  // C^2 (spatial) + 3 C^2 (temporal kernel 3), widening every layer by
  // f = sqrt((P + 3) / 4) equalizes the per-block parameter budget.
  double width_factor =
      std::sqrt((static_cast<double>(num_parts) + 3.0) / 4.0);
  auto widen = [width_factor](int64_t channels) {
    return std::max<int64_t>(
        1, static_cast<int64_t>(std::lround(
               static_cast<double>(channels) * width_factor)));
  };
  int64_t in_channels = 3;
  for (size_t i = 0; i < scale.channels.size(); ++i) {
    int64_t out_channels = widen(scale.channels[i]);
    blocks.push_back(std::make_unique<StBlock>(
        MakeFixedOperatorSpatial(in_channels, out_channels, op.Clone(), rng),
        in_channels, out_channels, scale.strides[i], rng));
    in_channels = out_channels;
  }
  return std::make_unique<BackboneClassifier>(
      StrCat("PB-HGCN(", num_parts, ")"), 3, in_channels, num_classes,
      std::move(blocks), scale.dropout, rng);
}

}  // namespace dhgcn

#ifndef DHGCN_CORE_DYNAMIC_TOPOLOGY_H_
#define DHGCN_CORE_DYNAMIC_TOPOLOGY_H_

#include "hypergraph/hypergraph.h"
#include "tensor/tensor.h"

namespace dhgcn {

class Workspace;

/// Parameters of the dynamic-topology construction (Sec. 3.4).
struct DynamicTopologyOptions {
  /// k_n: joints per common-information (K-NN) hyperedge. Paper best: 3.
  int64_t kn = 3;
  /// k_m: number of global-information (K-means) hyperedges. Paper best: 4.
  int64_t km = 4;
  /// Iteration cap for the medoid K-means.
  int64_t kmeans_max_iters = 20;
  /// Base seed for the (deterministic) K-means initialization; combined
  /// with the frame index so results are reproducible across runs.
  uint64_t seed = 977;
};

/// \brief Builds the dynamic-topology hypergraph for one frame's vertex
/// features (V, F): the union of the K-NN "common information" hyperedges
/// (one per vertex, in vertex order) and the K-means "global information"
/// hyperedges — the topology behind one (V, V) slice of
/// DynamicTopologyOperators at frame index `frame_seed`.
Hypergraph DynamicTopologyHypergraph(const Tensor& features,
                                     const DynamicTopologyOptions& options,
                                     uint64_t frame_seed = 0);

/// \brief Dynamic-topology operators for a feature map (N, C, T, V):
/// per sample and frame, vertices are embedded with their C-dim feature
/// columns, the hypergraph is constructed, and the normalized hypergraph
/// operator (Eq. 5) of shape (V, V) is emitted -> (N, T, V, V).
///
/// Frames run in parallel on the ThreadPool, in chunks of a fixed number
/// of frames, each frame writing only its own slice, so the result is
/// bit-identical at every thread count. Only the output is drawn from
/// `ws`. The construction (K-NN selection / K-means assignment) is
/// non-differentiable; gradients flow through the returned operators'
/// *application* to features, not through the topology itself.
Tensor DynamicTopologyOperators(const Tensor& features,
                                const DynamicTopologyOptions& options,
                                Workspace* ws = nullptr);

}  // namespace dhgcn

#endif  // DHGCN_CORE_DYNAMIC_TOPOLOGY_H_

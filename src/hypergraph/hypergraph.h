#ifndef DHGCN_HYPERGRAPH_HYPERGRAPH_H_
#define DHGCN_HYPERGRAPH_HYPERGRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/result.h"
#include "tensor/tensor.h"

namespace dhgcn {

/// \brief A hyperedge: the set of vertices it connects.
using Hyperedge = std::vector<int64_t>;

/// \brief Hypergraph G_h = {V_h, E_h, W_h} (Sec. 3.2): hyperedges connect
/// arbitrary vertex subsets; every hyperedge carries a positive weight
/// (initialized to 1 as in the paper). A hyperedge is a set: it lists
/// each of its vertices once.
class Hypergraph {
 public:
  /// Builds with unit edge weights. Vertex indices (in range, no repeat
  /// within an edge) are CHECKed.
  Hypergraph(int64_t num_vertices, std::vector<Hyperedge> edges);
  Hypergraph(int64_t num_vertices, std::vector<Hyperedge> edges,
             std::vector<float> edge_weights);

  /// Validating factory for externally supplied topology.
  static Result<Hypergraph> Make(int64_t num_vertices,
                                 std::vector<Hyperedge> edges,
                                 std::vector<float> edge_weights = {});

  int64_t num_vertices() const { return num_vertices_; }
  int64_t num_edges() const { return static_cast<int64_t>(edges_.size()); }
  const std::vector<Hyperedge>& edges() const { return edges_; }
  const std::vector<float>& edge_weights() const { return edge_weights_; }

  /// Incidence matrix H (V, E) with h(v,e)=1 iff v in e (Eq. 2).
  Tensor IncidenceMatrix() const;

  /// Vertex degrees d(v) = sum_e w(e) h(v,e) (Eq. 3).
  std::vector<float> VertexDegrees() const;

  /// Hyperedge degrees delta(e) = |e| (Eq. 4).
  std::vector<int64_t> EdgeDegrees() const;

  /// True when every vertex belongs to at least one hyperedge.
  bool CoversAllVertices() const;

  std::string ToString() const;

 private:
  int64_t num_vertices_;
  std::vector<Hyperedge> edges_;
  std::vector<float> edge_weights_;
};

}  // namespace dhgcn

#endif  // DHGCN_HYPERGRAPH_HYPERGRAPH_H_

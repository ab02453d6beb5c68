#ifndef DHGCN_HYPERGRAPH_KMEANS_H_
#define DHGCN_HYPERGRAPH_KMEANS_H_

#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "hypergraph/hypergraph.h"
#include "tensor/tensor.h"

namespace dhgcn {

/// \brief Result of a medoid-based K-means run over vertex features.
struct KMeansResult {
  /// Disjoint clusters covering all vertices; cluster i's vertices.
  std::vector<Hyperedge> clusters;
  /// Medoid vertex of each cluster.
  std::vector<int64_t> medoids;
  /// Iterations executed until convergence (or the cap).
  int64_t iterations = 0;
  /// True when medoids stopped moving before the iteration cap.
  bool converged = false;
};

/// \brief Medoid-style K-means over vertices (Sec. 3.4, "global
/// information" hyperedges).
///
/// Following the paper: k random vertices are chosen as initial centroids;
/// every vertex is assigned to its nearest centroid; each cluster's new
/// centroid is the member vertex with the smallest mean distance to the
/// other members; repeat until the centroids stop moving (the paper's
/// "change of the position of the centroid is 0") or `max_iters` is hit.
/// Clusters that become empty are reseeded with the vertex farthest from
/// its current centroid so exactly k non-empty clusters are returned.
///
/// `features` is (V, F); requires 1 <= k <= V.
KMeansResult KMeansClusters(const Tensor& features, int64_t k, Rng& rng,
                            int64_t max_iters = 20);

/// Convenience: the clusters of KMeansClusters as hyperedges.
std::vector<Hyperedge> KMeansHyperedges(const Tensor& features, int64_t k,
                                        Rng& rng, int64_t max_iters = 20);

namespace detail {

/// Caller-owned index arrays of one K-means run over V vertices and k
/// clusters. Cluster c is members[offsets[c], offsets[c + 1]).
struct KMeansArrays {
  int64_t* medoids;       // k: sorted initial medoids in, final medoids out
  int64_t* next_medoids;  // k: scratch
  int64_t* assignment;    // V: cluster of each vertex
  int64_t* offsets;       // k + 1
  int64_t* members;       // V: cluster-major, ascending within a cluster
};

/// Serial core of `KMeansClusters` on a (v, v) distance matrix: runs the
/// medoid iteration from `arrays.medoids` and leaves the last iteration's
/// clusters in `offsets`/`members`. Nearest-medoid ties go to the lower
/// cluster (DistanceBefore order), and the empty-cluster donor is the
/// first farthest node in cluster-major, node-ascending order. Both
/// count NaN as farther than any number, so every vertex lands in
/// exactly one non-empty cluster even for a non-finite frame. Returns
/// the number of iterations run; `*converged` tells whether the medoids
/// settled.
int64_t KMeansMedoids(const float* dist, int64_t v, int64_t k,
                      int64_t max_iters, const KMeansArrays& arrays,
                      bool* converged);

}  // namespace detail

}  // namespace dhgcn

#endif  // DHGCN_HYPERGRAPH_KMEANS_H_

#ifndef DHGCN_HYPERGRAPH_KNN_H_
#define DHGCN_HYPERGRAPH_KNN_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "tensor/tensor.h"

namespace dhgcn {

class Workspace;

/// \brief Pairwise Euclidean distance matrix (V, V) of row-vector features
/// (V, F) (Eq. 11, generalized from 3-D coordinates to F-dim features).
/// With a workspace, the matrix is arena-backed (valid until Reset).
Tensor PairwiseDistances(const Tensor& features, Workspace* ws = nullptr);

/// \brief K-NN hyperedge construction (Sec. 3.4, "common information"
/// hyperedges).
///
/// For each vertex i, the hyperedge e_i consists of i plus its k-1 nearest
/// other vertices by Euclidean distance in `features` (V, F), so every
/// hyperedge has exactly k vertices — the paper's "set containing N
/// hyperedges with k_n nodes on each hyperedge". Requires 1 <= k <= V.
/// Ties are broken toward lower vertex index for determinism.
std::vector<Hyperedge> KnnHyperedges(const Tensor& features, int64_t k);

/// \brief Indices of the `k` nearest other vertices of `vertex` (excluding
/// itself), sorted by ascending distance.
std::vector<int64_t> NearestNeighbors(const Tensor& distances, int64_t vertex,
                                      int64_t k);

namespace detail {

/// Floats of scratch `PairwiseDistancesInto` needs for (v, f) features.
int64_t PairwiseDistancesScratchCount(int64_t v, int64_t f);

/// Serial raw-buffer core of `PairwiseDistances`: writes the (v, v)
/// distances of row-major features `x` (v, f) to `dist`, staging the
/// Gram product in `scratch` (PairwiseDistancesScratchCount floats). It
/// touches no kernel scratch arena and never enters ParallelFor, so
/// ParallelFor tasks may call it on buffers they own.
void PairwiseDistancesInto(const float* x, int64_t v, int64_t f,
                           float* scratch, float* dist);

/// The (distance, index) order of the topology selections: ascending
/// distance, NaN after every number, ties toward the lower index. On
/// finite distances it is the order the selections always used; the NaN
/// rule keeps it total, so a non-finite frame still yields a valid
/// topology.
inline bool DistanceBefore(float da, int64_t a, float db, int64_t b) {
  if (std::isnan(db)) return !std::isnan(da) || a < b;
  if (std::isnan(da)) return false;
  return da < db || (da == db && a < b);
}

/// Serial core of `NearestNeighbors` on one row of a (v, v) distance
/// matrix: the `k` first other vertices of `vertex` in DistanceBefore
/// order, written to `out[0, k)` by insertion into an ordered prefix.
void NearestNeighborsInto(const float* dist_row, int64_t v, int64_t vertex,
                          int64_t k, int64_t* out);

}  // namespace detail

}  // namespace dhgcn

#endif  // DHGCN_HYPERGRAPH_KNN_H_

#include "hypergraph/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/check.h"
#include "hypergraph/knn.h"

namespace dhgcn {

namespace detail {

namespace {

// Medoid of a cluster: the member with minimal mean distance to the other
// members (ties -> lowest vertex index). Singleton clusters keep their
// only member.
int64_t ClusterMedoid(const float* dist, int64_t v, const int64_t* members,
                      int64_t size) {
  int64_t best = members[0];
  double best_mean = std::numeric_limits<double>::infinity();
  for (int64_t a = 0; a < size; ++a) {
    const int64_t candidate = members[a];
    const float* row = dist + candidate * v;
    double total = 0.0;
    for (int64_t b = 0; b < size; ++b) total += row[members[b]];
    double mean = total / static_cast<double>(size);
    if (mean < best_mean || (mean == best_mean && candidate < best)) {
      best_mean = mean;
      best = candidate;
    }
  }
  return best;
}

}  // namespace

int64_t KMeansMedoids(const float* dist, int64_t v, int64_t k,
                      int64_t max_iters, const KMeansArrays& arrays,
                      bool* converged) {
  DHGCN_CHECK(k >= 1 && k <= v);
  DHGCN_CHECK_GT(max_iters, 0);
  int64_t* medoids = arrays.medoids;
  int64_t* next_medoids = arrays.next_medoids;
  int64_t* assignment = arrays.assignment;
  int64_t* offsets = arrays.offsets;
  int64_t* members = arrays.members;
  // Cluster sizes live in offsets[1, k] until the prefix sum.
  int64_t* sizes = offsets + 1;
  *converged = false;
  int64_t iterations = 0;
  for (int64_t iter = 0; iter < max_iters; ++iter) {
    iterations = iter + 1;
    // Assignment step: each vertex joins its nearest medoid (ties ->
    // lowest cluster index).
    std::fill(offsets, offsets + k + 1, 0);
    for (int64_t node = 0; node < v; ++node) {
      const float* row = dist + node * v;
      int64_t best_cluster = 0;
      float best_dist = row[medoids[0]];
      for (int64_t c = 1; c < k; ++c) {
        const float d = row[medoids[c]];
        if (DistanceBefore(d, c, best_dist, best_cluster)) {
          best_dist = d;
          best_cluster = c;
        }
      }
      assignment[node] = best_cluster;
      ++sizes[best_cluster];
    }
    // Reseed empty clusters with the vertex farthest from its own medoid,
    // stolen from a cluster with more than one member.
    for (int64_t c = 0; c < k; ++c) {
      if (sizes[c] != 0) continue;
      int64_t steal_cluster = -1;
      int64_t steal_node = -1;
      float steal_dist = -1.0f;
      for (int64_t c2 = 0; c2 < k; ++c2) {
        if (sizes[c2] <= 1) continue;
        const float* medoid_col = dist + medoids[c2];
        for (int64_t node = 0; node < v; ++node) {
          if (assignment[node] != c2) continue;
          const float d = medoid_col[node * v];
          // Strictly farther, NaN farthest: the first such node wins.
          if (std::isnan(d) ? !std::isnan(steal_dist) : d > steal_dist) {
            steal_dist = d;
            steal_node = node;
            steal_cluster = c2;
          }
        }
      }
      DHGCN_CHECK_GE(steal_node, 0);  // k <= v guarantees a donor exists
      assignment[steal_node] = c;
      --sizes[steal_cluster];
      sizes[c] = 1;
    }
    // Gather members cluster-major, ascending within each cluster
    // (next_medoids serves as the per-cluster write cursor).
    for (int64_t c = 0; c < k; ++c) offsets[c + 1] += offsets[c];
    std::copy(offsets, offsets + k, next_medoids);
    for (int64_t node = 0; node < v; ++node) {
      members[next_medoids[assignment[node]]++] = node;
    }
    // Update step: recompute medoids.
    bool moved = false;
    for (int64_t c = 0; c < k; ++c) {
      next_medoids[c] = ClusterMedoid(dist, v, members + offsets[c],
                                      offsets[c + 1] - offsets[c]);
      moved = moved || next_medoids[c] != medoids[c];
    }
    if (!moved) {
      *converged = true;
      break;
    }
    std::copy(next_medoids, next_medoids + k, medoids);
  }
  return iterations;
}

}  // namespace detail

KMeansResult KMeansClusters(const Tensor& features, int64_t k, Rng& rng,
                            int64_t max_iters) {
  DHGCN_CHECK_EQ(features.ndim(), 2);
  int64_t v = features.dim(0);
  DHGCN_CHECK(k >= 1 && k <= v);
  DHGCN_CHECK_GT(max_iters, 0);

  Tensor dist = PairwiseDistances(features);
  KMeansResult result;
  result.medoids = rng.SampleWithoutReplacement(v, k);
  std::sort(result.medoids.begin(), result.medoids.end());
  std::vector<int64_t> next_medoids(static_cast<size_t>(k));
  std::vector<int64_t> assignment(static_cast<size_t>(v));
  std::vector<int64_t> offsets(static_cast<size_t>(k) + 1);
  std::vector<int64_t> members(static_cast<size_t>(v));
  result.iterations = detail::KMeansMedoids(
      dist.data(), v, k, max_iters,
      {result.medoids.data(), next_medoids.data(), assignment.data(),
       offsets.data(), members.data()},
      &result.converged);
  result.clusters.resize(static_cast<size_t>(k));
  for (int64_t c = 0; c < k; ++c) {
    result.clusters[static_cast<size_t>(c)].assign(
        members.begin() + offsets[static_cast<size_t>(c)],
        members.begin() + offsets[static_cast<size_t>(c) + 1]);
  }
  return result;
}

std::vector<Hyperedge> KMeansHyperedges(const Tensor& features, int64_t k,
                                        Rng& rng, int64_t max_iters) {
  return KMeansClusters(features, k, rng, max_iters).clusters;
}

}  // namespace dhgcn

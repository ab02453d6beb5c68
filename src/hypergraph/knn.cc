#include "hypergraph/knn.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"
#include "tensor/gemm_kernel.h"
#include "tensor/linalg.h"
#include "tensor/workspace.h"

namespace dhgcn {

namespace detail {

int64_t PairwiseDistancesScratchCount(int64_t v, int64_t f) {
  const int64_t packed = GemmUseBlocked(v, f, v) ? GemmPackedBCount(f, v) : 0;
  return f * v + v * v + packed;
}

void PairwiseDistancesInto(const float* x, int64_t v, int64_t f,
                           float* scratch, float* dist) {
  // GEMM formulation: dist(i, j) = sqrt(G_ii + G_jj - 2 G_ij) for the
  // Gram matrix G = X X^T, so the O(v² f) work rides the GEMM kernels
  // instead of a scalar difference loop. The product takes the kernel
  // MatMulInto picks for the shape (the row kernel, or the blocked one
  // over a packed X^T), run serially: the blocked kernel's row tiles do
  // not depend on how rows are split, so the bits are those of the
  // row-parallel MatMulInto. G is bitwise symmetric — G_ij and G_ji run the
  // identical ascending-p accumulation with the factors swapped inside a
  // commutative multiply — so the distance matrix stays exactly
  // symmetric, and the diagonal is written as an exact zero rather than
  // computed. max(., 0) guards the tiny negative residuals cancellation
  // can leave for near-duplicate rows.
  float* xt = scratch;
  float* gram = xt + f * v;
  GemmPackTransposed(x, v, f, xt);
  std::fill(gram, gram + v * v, 0.0f);
  if (GemmUseBlocked(v, f, v)) {
    float* packed = gram + v * v;
    GemmPackB(xt, f, v, packed);
    GemmBlockedPackedB(x, packed, gram, v, f, v);
  } else {
    GemmAccumulate(x, xt, gram, v, f, v);
  }
  for (int64_t i = 0; i < v; ++i) {
    const double gii = gram[i * v + i];
    float* drow = dist + i * v;
    const float* grow = gram + i * v;
    for (int64_t j = 0; j < v; ++j) {
      const double g2 =
          gii + gram[j * v + j] - 2.0 * static_cast<double>(grow[j]);
      drow[j] = static_cast<float>(std::sqrt(std::max(g2, 0.0)));
    }
    drow[i] = 0.0f;
  }
}

void NearestNeighborsInto(const float* dist_row, int64_t v, int64_t vertex,
                          int64_t k, int64_t* out) {
  // Candidates arrive in ascending index order, so an equal distance
  // never displaces a kept neighbour: the prefix is what a stable sort
  // by distance followed by truncation to k would return.
  if (k == 0) return;
  int64_t count = 0;
  for (int64_t j = 0; j < v; ++j) {
    if (j == vertex) continue;
    const float d = dist_row[j];
    if (count == k) {
      if (!DistanceBefore(d, j, dist_row[out[k - 1]], out[k - 1])) continue;
      --count;  // the last kept neighbour drops out
    }
    int64_t p = count;
    while (p > 0 && DistanceBefore(d, j, dist_row[out[p - 1]], out[p - 1])) {
      out[p] = out[p - 1];
      --p;
    }
    out[p] = j;
    ++count;
  }
}

}  // namespace detail

Tensor PairwiseDistances(const Tensor& features, Workspace* ws) {
  DHGCN_CHECK_EQ(features.ndim(), 2);
  int64_t v = features.dim(0), f = features.dim(1);
  Tensor dist = NewTensor(ws, {v, v});
  Workspace& scratch = detail::KernelOpScratch();
  Tensor staging =
      scratch.Acquire({detail::PairwiseDistancesScratchCount(v, f)});
  detail::PairwiseDistancesInto(features.data(), v, f, staging.data(),
                                dist.data());
  scratch.Reset();
  return dist;
}

std::vector<int64_t> NearestNeighbors(const Tensor& distances, int64_t vertex,
                                      int64_t k) {
  DHGCN_CHECK_EQ(distances.ndim(), 2);
  int64_t v = distances.dim(0);
  DHGCN_CHECK(vertex >= 0 && vertex < v);
  DHGCN_CHECK(k >= 0 && k <= v - 1);
  std::vector<int64_t> nearest(static_cast<size_t>(k));
  detail::NearestNeighborsInto(distances.data() + vertex * v, v, vertex, k,
                               nearest.data());
  return nearest;
}

std::vector<Hyperedge> KnnHyperedges(const Tensor& features, int64_t k) {
  DHGCN_CHECK_EQ(features.ndim(), 2);
  int64_t v = features.dim(0);
  DHGCN_CHECK(k >= 1 && k <= v);
  Tensor dist = PairwiseDistances(features);
  std::vector<Hyperedge> edges(static_cast<size_t>(v));
  for (int64_t i = 0; i < v; ++i) {
    Hyperedge& e = edges[static_cast<size_t>(i)];
    e.resize(static_cast<size_t>(k));
    e[0] = i;
    detail::NearestNeighborsInto(dist.data() + i * v, v, i, k - 1,
                                 e.data() + 1);
  }
  return edges;
}

}  // namespace dhgcn

#include "core/dynamic_topology.h"

#include <algorithm>
#include <vector>

#include "base/check.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "hypergraph/hypergraph_conv.h"
#include "hypergraph/kmeans.h"
#include "hypergraph/knn.h"
#include "tensor/workspace.h"

namespace dhgcn {

namespace {

void CheckOptions(const DynamicTopologyOptions& options, int64_t v) {
  DHGCN_CHECK(options.kn >= 1 && options.kn <= v);
  DHGCN_CHECK(options.km >= 1 && options.km <= v);
  DHGCN_CHECK_GT(options.kmeans_max_iters, 0);
}

// The sorted initial K-means medoids of frame index `frame_seed`: they
// depend on nothing else, so a call draws each frame index's once.
void InitialMedoids(const DynamicTopologyOptions& options, int64_t v,
                    uint64_t frame_seed, int64_t* out) {
  Rng rng(options.seed * 1000003ULL + frame_seed);
  std::vector<int64_t> medoids = rng.SampleWithoutReplacement(v, options.km);
  std::sort(medoids.begin(), medoids.end());
  std::copy(medoids.begin(), medoids.end(), out);
}

// Every buffer one frame needs, sized once; a frame overwrites all it
// reads, so consecutive frames can share one set.
struct FrameBuffers {
  FrameBuffers(int64_t v, int64_t c, const DynamicTopologyOptions& options)
      : features(static_cast<size_t>(v * c)),
        gram_scratch(static_cast<size_t>(
            detail::PairwiseDistancesScratchCount(v, c))),
        dist(static_cast<size_t>(v * v)),
        degrees(static_cast<size_t>(v)),
        acc(static_cast<size_t>(v * v)),
        edge_members(static_cast<size_t>(v * options.kn + v)),
        edge_offsets(static_cast<size_t>(v + options.km + 1)),
        medoids(static_cast<size_t>(options.km)),
        next_medoids(static_cast<size_t>(options.km)),
        assignment(static_cast<size_t>(v)),
        cluster_offsets(static_cast<size_t>(options.km + 1)) {}

  std::vector<float> features;      // (V, C)
  std::vector<float> gram_scratch;  // PairwiseDistancesInto staging
  std::vector<float> dist;          // (V, V)
  std::vector<float> degrees;       // Eq. 5 scratch
  std::vector<double> acc;          // Eq. 5 scratch, (V, V)
  // Edges: the V K-NN edges (k_n members each), then the k_m clusters.
  std::vector<int64_t> edge_members;
  std::vector<int64_t> edge_offsets;
  std::vector<int64_t> medoids, next_medoids, assignment, cluster_offsets;
};

// One frame's topology from its features x (V, C): the distances once
// for both selections, the K-NN edges, then K-means from the frame
// index's initial medoids, its clusters landing right after the K-NN
// members.
void FrameEdges(const float* x, int64_t v, int64_t c,
                const DynamicTopologyOptions& options,
                const int64_t* initial_medoids, FrameBuffers* buffers) {
  const int64_t kn = options.kn, km = options.km;
  float* dist = buffers->dist.data();
  detail::PairwiseDistancesInto(x, v, c, buffers->gram_scratch.data(), dist);
  int64_t* members = buffers->edge_members.data();
  int64_t* offsets = buffers->edge_offsets.data();
  for (int64_t i = 0; i < v; ++i) {
    int64_t* edge = members + i * kn;
    edge[0] = i;
    detail::NearestNeighborsInto(dist + i * v, v, i, kn - 1, edge + 1);
    offsets[i] = i * kn;
  }
  std::copy(initial_medoids, initial_medoids + km, buffers->medoids.begin());
  bool converged = false;
  detail::KMeansMedoids(
      dist, v, km, options.kmeans_max_iters,
      {buffers->medoids.data(), buffers->next_medoids.data(),
       buffers->assignment.data(), buffers->cluster_offsets.data(),
       members + v * kn},
      &converged);
  for (int64_t cl = 0; cl <= km; ++cl) {
    offsets[v + cl] = v * kn + buffers->cluster_offsets[cl];
  }
}

}  // namespace

Hypergraph DynamicTopologyHypergraph(const Tensor& features,
                                     const DynamicTopologyOptions& options,
                                     uint64_t frame_seed) {
  DHGCN_CHECK_EQ(features.ndim(), 2);
  const int64_t v = features.dim(0), c = features.dim(1);
  CheckOptions(options, v);
  std::vector<int64_t> initial(static_cast<size_t>(options.km));
  InitialMedoids(options, v, frame_seed, initial.data());
  FrameBuffers buffers(v, c, options);
  FrameEdges(features.data(), v, c, options, initial.data(), &buffers);
  const std::vector<int64_t>& members = buffers.edge_members;
  const std::vector<int64_t>& offsets = buffers.edge_offsets;
  std::vector<Hyperedge> edges;
  for (size_t e = 0; e + 1 < offsets.size(); ++e) {
    edges.emplace_back(members.begin() + offsets[e],
                       members.begin() + offsets[e + 1]);
  }
  return Hypergraph(v, std::move(edges));
}

Tensor DynamicTopologyOperators(const Tensor& features,
                                const DynamicTopologyOptions& options,
                                Workspace* ws) {
  DHGCN_CHECK_EQ(features.ndim(), 4);
  const int64_t n = features.dim(0), c = features.dim(1),
                t = features.dim(2), v = features.dim(3);
  CheckOptions(options, v);
  Tensor ops = NewTensor(ws, {n, t, v, v});
  const int64_t km = options.km;
  std::vector<int64_t> initial(static_cast<size_t>(t * km));
  for (int64_t tt = 0; tt < t; ++tt) {
    InitialMedoids(options, v, static_cast<uint64_t>(tt),
                   initial.data() + tt * km);
  }
  // One buffer set per chunk: a task owns its chunk's set and calls
  // only serial kernels, never a kernel scratch arena.
  const int64_t frames = n * t;
  const int64_t chunks = (frames + kFramesPerChunk - 1) / kFramesPerChunk;
  std::vector<FrameBuffers> buffers(static_cast<size_t>(chunks),
                                    FrameBuffers(v, c, options));
  const float* px = features.data();
  float* po = ops.data();
  ThreadPool::Get().ParallelFor(
      0, frames, kFramesPerChunk, [&](int64_t f0, int64_t f1) {
        FrameBuffers& buf =
            buffers[static_cast<size_t>(f0 / kFramesPerChunk)];
        float* x = buf.features.data();
        for (int64_t f = f0; f < f1; ++f) {
          const int64_t b = f / t, tt = f % t;
          // Gather the frame's vertex features (V, C) from (C, T, V).
          for (int64_t ch = 0; ch < c; ++ch) {
            const float* src = px + ((b * c + ch) * t + tt) * v;
            for (int64_t j = 0; j < v; ++j) x[j * c + ch] = src[j];
          }
          FrameEdges(x, v, c, options, initial.data() + tt * km, &buf);
          detail::NormalizedOperatorFromEdges(
              v, v + km, buf.edge_offsets.data(), buf.edge_members.data(),
              /*weights=*/nullptr, buf.degrees.data(), buf.acc.data(),
              po + f * v * v);
        }
      });
  return ops;
}

}  // namespace dhgcn

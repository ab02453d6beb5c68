// Kernel micro-benchmarks (google-benchmark): the cost of every building
// block the DHGCN pipeline uses, plus the design-choice ablations called
// out in DESIGN.md — the overhead of hypergraph aggregation vs a dense
// matmul, of the dynamic-operator construction (K-NN, K-means, moving
// distance), and of a full DHST block against its three-branch parts.

#include <benchmark/benchmark.h>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "core/dhgcn_model.h"
#include "core/dhst_block.h"
#include "core/dynamic_joint_weight.h"
#include "core/dynamic_topology.h"
#include "core/static_hypergraph.h"
#include "data/skeleton.h"
#include "data/synthetic_generator.h"
#include "data/transforms.h"
#include "hypergraph/hypergraph_conv.h"
#include "hypergraph/kmeans.h"
#include "hypergraph/graph.h"
#include "hypergraph/knn.h"
#include "nn/conv2d.h"
#include "tensor/linalg.h"
#include "tensor/tensor_ops.h"

namespace dhgcn {
namespace {

// --- Tensor kernels ---------------------------------------------------------

void BM_MatMul(benchmark::State& state) {
  int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::RandomNormal({n, n}, rng);
  Tensor b = Tensor::RandomNormal({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(25)->Arg(64)->Arg(128);

// --- Blocked GEMM (recorded in BENCH_gemm.json) -----------------------------
//
// The packed cache-blocked micro-kernel through MatMul, pack time
// included, single-threaded so the number isolates the kernel.

void BM_GemmBlocked(benchmark::State& state) {
  ThreadPool::Get().SetThreads(1);
  int64_t n = state.range(0);
  Rng rng(23);
  Tensor a = Tensor::RandomNormal({n, n}, rng);
  Tensor b = Tensor::RandomNormal({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmBlocked)->Arg(64)->Arg(128)->Arg(256);

// Conv2d general path: the im2col + blocked-GEMM lowering on the DHGCN
// temporal-conv shape (9x1 kernel over (T, V) planes).

Conv2dOptions TemporalConvOptions() {
  Conv2dOptions options;
  options.kernel_h = 9;
  options.pad_h = 4;
  return options;
}

void BM_Conv2dIm2col(benchmark::State& state) {
  Rng rng(24);
  Conv2d conv(32, 32, TemporalConvOptions(), rng);
  Tensor x = Tensor::RandomNormal({4, 32, 32, 25}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x));
  }
}
BENCHMARK(BM_Conv2dIm2col);

void BM_Conv2dIm2colBackward(benchmark::State& state) {
  Rng rng(25);
  Conv2d conv(32, 32, TemporalConvOptions(), rng);
  Tensor x = Tensor::RandomNormal({4, 32, 32, 25}, rng);
  Tensor g = Tensor::RandomNormal(conv.Forward(x).shape(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Backward(g));
  }
}
BENCHMARK(BM_Conv2dIm2colBackward);

void BM_Softmax(benchmark::State& state) {
  Rng rng(2);
  Tensor x = Tensor::RandomNormal({64, state.range(0)}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Softmax(x, 1));
  }
}
BENCHMARK(BM_Softmax)->Arg(60)->Arg(400);

void BM_Conv2dTemporal(benchmark::State& state) {
  Rng rng(3);
  Conv2dOptions options;
  options.kernel_h = 3;
  options.pad_h = 1;
  Conv2d conv(state.range(0), state.range(0), options, rng);
  Tensor x = Tensor::RandomNormal({4, state.range(0), 16, 25}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x));
  }
}
BENCHMARK(BM_Conv2dTemporal)->Arg(16)->Arg(64);

void BM_Conv2dBackward(benchmark::State& state) {
  Rng rng(4);
  Conv2dOptions options;
  options.kernel_h = 3;
  options.pad_h = 1;
  Conv2d conv(32, 32, options, rng);
  Tensor x = Tensor::RandomNormal({4, 32, 16, 25}, rng);
  Tensor y = conv.Forward(x);
  Tensor g = Tensor::RandomNormal(y.shape(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Backward(g));
  }
}
BENCHMARK(BM_Conv2dBackward);

// --- Graph / hypergraph operators --------------------------------------------

void BM_HypergraphOperatorBuild(benchmark::State& state) {
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kNtu25);
  Hypergraph h = StaticSkeletonHypergraph(layout);
  for (auto _ : state) {
    benchmark::DoNotOptimize(NormalizedHypergraphOperator(h));
  }
}
BENCHMARK(BM_HypergraphOperatorBuild);

// Ablation: applying a (V,V) structural operator over the vertex axis
// (the aggregation half of every graph/hypergraph conv) vs an equally
// sized dense matmul — shows the aggregation is matmul-bound.
void BM_VertexMixApply(benchmark::State& state) {
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kNtu25);
  Rng rng(5);
  VertexMix mix(NormalizedHypergraphOperator(
      StaticSkeletonHypergraph(layout)));
  Tensor x = Tensor::RandomNormal({4, 32, 16, 25}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mix.Forward(x));
  }
}
BENCHMARK(BM_VertexMixApply);

// The skeleton adjacency (~12% dense) through VertexMix, which routes
// it to the CSR kernels.
void BM_VertexMixAdjacency(benchmark::State& state) {
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kNtu25);
  Rng rng(51);
  VertexMix mix(SkeletonGraph(layout).NormalizedAdjacency());
  Tensor x = Tensor::RandomNormal({4, 32, 16, 25}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mix.Forward(x));
  }
}
BENCHMARK(BM_VertexMixAdjacency);

void BM_DynamicVertexMixApply(benchmark::State& state) {
  Rng rng(6);
  DynamicVertexMix mix;
  mix.SetOperators(Tensor::RandomNormal({4, 16, 25, 25}, rng));
  Tensor x = Tensor::RandomNormal({4, 32, 16, 25}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mix.Forward(x));
  }
}
BENCHMARK(BM_DynamicVertexMixApply);

// --- Dynamic structure construction -------------------------------------------

void BM_PairwiseDistances(benchmark::State& state) {
  Rng rng(7);
  Tensor features = Tensor::RandomNormal({25, state.range(0)}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PairwiseDistances(features));
  }
}
BENCHMARK(BM_PairwiseDistances)->Arg(3)->Arg(64);

void BM_KnnHyperedges(benchmark::State& state) {
  Rng rng(8);
  Tensor features = Tensor::RandomNormal({25, 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KnnHyperedges(features, state.range(0)));
  }
}
BENCHMARK(BM_KnnHyperedges)->Arg(2)->Arg(3)->Arg(4);

void BM_KMeansHyperedges(benchmark::State& state) {
  Rng feature_rng(9);
  Tensor features = Tensor::RandomNormal({25, 16}, feature_rng);
  for (auto _ : state) {
    Rng rng(10);
    benchmark::DoNotOptimize(
        KMeansHyperedges(features, state.range(0), rng));
  }
}
BENCHMARK(BM_KMeansHyperedges)->Arg(3)->Arg(4)->Arg(5);

void BM_MovingDistances(benchmark::State& state) {
  Rng rng(11);
  Tensor coords = Tensor::RandomNormal({4, 3, 32, 25}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MovingDistances(coords));
  }
}
BENCHMARK(BM_MovingDistances);

void BM_DynamicJointWeightOperators(benchmark::State& state) {
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kNtu25);
  Hypergraph h = StaticSkeletonHypergraph(layout);
  Rng rng(12);
  Tensor coords = Tensor::RandomNormal({4, 3, state.range(0), 25}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DynamicJointWeightOperators(coords, h));
  }
}
BENCHMARK(BM_DynamicJointWeightOperators)->Arg(16)->Arg(32);

// The zoo DHGCN's three block shapes at batch 8 (args: C, T, threads):
// frames run in parallel chunks, so the 2-thread rows show the scaling.
void BM_DynamicTopologyOperators(benchmark::State& state) {
  ThreadPool::Get().SetThreads(state.range(2));
  Rng rng(13);
  Tensor features =
      Tensor::RandomNormal({8, state.range(0), state.range(1), 25}, rng);
  DynamicTopologyOptions options;
  options.kn = 3;
  options.km = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DynamicTopologyOperators(features, options));
  }
  ThreadPool::Get().SetThreads(1);
}
BENCHMARK(BM_DynamicTopologyOperators)
    ->Args({16, 16, 1})
    ->Args({16, 16, 2})
    ->Args({32, 16, 1})
    ->Args({32, 16, 2})
    ->Args({64, 8, 1})
    ->Args({64, 8, 2});

// --- Blocks and full model ------------------------------------------------------

void BM_DhstBlockForward(benchmark::State& state) {
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kNtu25);
  Hypergraph h = StaticSkeletonHypergraph(layout);
  Rng rng(14);
  DhstBlockOptions options;
  options.in_channels = 16;
  options.out_channels = 32;
  DhstBlock block(options, h, rng);
  Tensor x = Tensor::RandomNormal({2, 16, 16, 25}, rng);
  Tensor coords = Tensor::RandomNormal({2, 3, 16, 25}, rng);
  Tensor joint_ops = DynamicJointWeightOperators(coords, h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(block.Forward(x, joint_ops));
  }
}
BENCHMARK(BM_DhstBlockForward);

// Ablation: block cost without the dynamic-topology branch, isolating the
// per-frame K-NN/K-means construction overhead the paper's conclusion
// flags as future optimization work.
void BM_DhstBlockForwardNoTopology(benchmark::State& state) {
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kNtu25);
  Hypergraph h = StaticSkeletonHypergraph(layout);
  Rng rng(15);
  DhstBlockOptions options;
  options.in_channels = 16;
  options.out_channels = 32;
  options.enable_topology = false;
  DhstBlock block(options, h, rng);
  Tensor x = Tensor::RandomNormal({2, 16, 16, 25}, rng);
  Tensor coords = Tensor::RandomNormal({2, 3, 16, 25}, rng);
  Tensor joint_ops = DynamicJointWeightOperators(coords, h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(block.Forward(x, joint_ops));
  }
}
BENCHMARK(BM_DhstBlockForwardNoTopology);

void BM_DhgcnModelForward(benchmark::State& state) {
  DhgcnConfig config = DhgcnConfig::Small(SkeletonLayoutType::kNtu25, 10);
  DhgcnModel model(config);
  model.SetTraining(false);
  Rng rng(16);
  Tensor x = Tensor::RandomNormal({2, 3, 16, 25}, rng, 0.0f, 0.3f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Forward(x));
  }
}
BENCHMARK(BM_DhgcnModelForward);

void BM_DhgcnTrainStep(benchmark::State& state) {
  DhgcnConfig config = DhgcnConfig::Tiny(SkeletonLayoutType::kNtu25, 5);
  config.topology.kn = 2;
  config.topology.km = 2;
  DhgcnModel model(config);
  Rng rng(17);
  Tensor x = Tensor::RandomNormal({2, 3, 12, 25}, rng, 0.0f, 0.3f);
  Tensor g = Tensor::RandomNormal({2, 5}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Forward(x));
    benchmark::DoNotOptimize(model.Backward(g));
  }
}
BENCHMARK(BM_DhgcnTrainStep);

// --- Thread sweep ------------------------------------------------------------------
//
// The same kernels at 1/2/4/8 intra-op threads. Results are bit-identical
// at every width (the determinism contract); these measure only the
// speedup, which is bounded by the physical core count of the machine the
// sweep runs on — see BENCH_threads.json for recorded numbers.

void BM_MatMulThreads(benchmark::State& state) {
  ThreadPool::Get().SetThreads(state.range(1));
  int64_t n = state.range(0);
  Rng rng(19);
  Tensor a = Tensor::RandomNormal({n, n}, rng);
  Tensor b = Tensor::RandomNormal({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  ThreadPool::Get().SetThreads(1);
}
BENCHMARK(BM_MatMulThreads)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 8});

void BM_Conv2dThreads(benchmark::State& state) {
  ThreadPool::Get().SetThreads(state.range(0));
  Rng rng(20);
  Conv2dOptions options;
  options.kernel_h = 3;
  options.pad_h = 1;
  Conv2d conv(32, 32, options, rng);
  Tensor x = Tensor::RandomNormal({4, 32, 16, 25}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x));
  }
  ThreadPool::Get().SetThreads(1);
}
BENCHMARK(BM_Conv2dThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// --- Data pipeline -----------------------------------------------------------------

void BM_SyntheticSampleGeneration(benchmark::State& state) {
  SyntheticSkeletonGenerator generator(NtuLikeConfig(10, 1, 32, 1));
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        generator.GenerateSample(seed % 10, 0, 0, 0, seed));
    ++seed;
  }
}
BENCHMARK(BM_SyntheticSampleGeneration);

void BM_JointToBone(benchmark::State& state) {
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kNtu25);
  Rng rng(18);
  Tensor joints = Tensor::RandomNormal({8, 3, 32, 25}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(JointToBone(joints, layout));
  }
}
BENCHMARK(BM_JointToBone);

}  // namespace
}  // namespace dhgcn

BENCHMARK_MAIN();

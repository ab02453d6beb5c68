// Sparse-execution benchmarks (recorded in BENCH_sparse.json, whose
// SpMM-vs-blocked-GEMM sweep measured the 0.35 density crossover in
// tensor/sparse.h):
//
// 1. The routed operator: `VertexMix` forward across operator
//    densities on the model's own (V, V) aggregation shape. Operators
//    at or below the crossover run the CSR kernels, denser ones the
//    dense loop.
// 2. End-to-end: workspace training steps/sec on a magnitude-pruned
//    model vs the unpruned one.

#include <benchmark/benchmark.h>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "core/dhgcn_model.h"
#include "hypergraph/hypergraph_conv.h"
#include "tensor/workspace.h"
#include "train/pruner.h"

namespace dhgcn {
namespace {

Tensor RandomAtDensity(const Shape& shape, double density, Rng& rng) {
  Tensor t({shape});
  t.Fill(0.0f);
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (rng.Uniform() < static_cast<float>(density)) t.flat(i) = rng.Normal();
  }
  return t;
}

// --- 1. The routed operator at model shape ----------------------------
//
// range(0) = operator density in percent.

void BM_VertexMixRouted(benchmark::State& state) {
  ThreadPool::Get().SetThreads(1);
  double density = static_cast<double>(state.range(0)) / 100.0;
  Rng rng(63);
  Tensor op = RandomAtDensity({25, 25}, density, rng);
  VertexMix mix(op.Clone());
  Tensor x = Tensor::RandomNormal({4, 32, 16, 25}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mix.Forward(x));
  }
}
BENCHMARK(BM_VertexMixRouted)->Arg(5)->Arg(10)->Arg(35)->Arg(50)->Arg(100);

// --- 2. End-to-end: pruned training step ------------------------------
//
// The model's weights are magnitude-pruned to range(0)% sparsity (the
// Pruner keeps them genuinely zero), then a workspace forward+backward
// step runs, as the Trainer runs it.

void BM_PrunedTrainStep(benchmark::State& state) {
  ThreadPool::Get().SetThreads(1);
  double sparsity = static_cast<double>(state.range(0)) / 100.0;

  DhgcnConfig config = DhgcnConfig::Tiny(SkeletonLayoutType::kNtu25, 5);
  config.topology.kn = 2;
  config.topology.km = 2;
  DhgcnModel model(config);
  if (sparsity > 0.0) {
    PruneOptions prune;
    prune.enabled = true;
    prune.target_sparsity = sparsity;
    prune.start_epoch = 0;
    Pruner pruner(&model, prune);
    pruner.OnEpochBegin(0);
  }
  Rng rng(64);
  Tensor x = Tensor::RandomNormal({2, 3, 12, 25}, rng, 0.0f, 0.3f);
  Tensor g = Tensor::RandomNormal({2, 5}, rng);
  Workspace ws;
  for (auto _ : state) {
    ws.Reset();
    Tensor logits, grad_input;
    model.ForwardInto(x, ws, &logits);
    model.BackwardInto(g, ws, &grad_input);
    benchmark::DoNotOptimize(grad_input.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrunedTrainStep)->Arg(0)->Arg(80);

}  // namespace
}  // namespace dhgcn

BENCHMARK_MAIN();

// Allocation-budget guarantees of the workspace-planned execution path.
//
// The acceptance bar for the workspace refactor: a steady-state training
// step (forward + loss + backward + optimizer update) on the full DHGCN
// model — all three branches enabled — performs at most 10 owning tensor
// allocations after a two-step warmup. Warmup steps may allocate: the
// arena grows to the step's high-water mark and the optimizer lazily
// creates its momentum buffers; afterwards every activation lives in the
// arena and the heap goes quiet.

#include <cmath>
#include <vector>

#include "gtest/gtest.h"

#include "base/alloc_stats.h"
#include "base/rng.h"
#include "core/dhgcn_model.h"
#include "core/static_hypergraph.h"
#include "data/dataloader.h"
#include "data/dataset.h"
#include "data/skeleton.h"
#include "data/synthetic_generator.h"
#include "hypergraph/hypergraph_conv.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/sparse.h"
#include "tensor/workspace.h"
#include "tests/oracles.h"
#include "train/trainer.h"

namespace dhgcn {
namespace {

constexpr uint64_t kStepBudget = 10;

// Random normal tensor with ~`density` fraction of nonzeros.
Tensor RandomAtDensity(const Shape& shape, double density, Rng& rng) {
  Tensor t = Tensor::RandomNormal(shape, rng);
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (rng.Uniform() >= static_cast<float>(density)) t.flat(i) = 0.0f;
  }
  return t;
}

TEST(AllocBudgetTest, SteadyStateTrainingStepWithinBudget) {
  DhgcnConfig config =
      DhgcnConfig::Tiny(SkeletonLayoutType::kKinetics18, /*num_classes=*/4);
  ASSERT_TRUE(config.enable_static);
  ASSERT_TRUE(config.enable_joint_weight);
  ASSERT_TRUE(config.enable_topology);
  DhgcnModel model(config);
  SoftmaxCrossEntropy loss;
  SgdOptimizer::Options sgd_options;
  sgd_options.lr = 0.01f;
  SgdOptimizer optimizer(model.Params(), sgd_options);

  Rng rng(7);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 18}, rng);
  std::vector<int64_t> labels = {1, 3};

  Workspace ws;
  for (int step = 0; step < 5; ++step) {
    AllocStatsGuard guard;
    ws.Reset();
    optimizer.ZeroGrad();
    Tensor logits;
    model.ForwardInto(x, ws, &logits);
    float loss_value = loss.TryForward(logits, labels, ws).ValueOrDie();
    ASSERT_TRUE(std::isfinite(loss_value));
    Tensor grad_input;
    model.BackwardInto(loss.Backward(ws), ws, &grad_input);
    optimizer.Step();
    if (step >= 2) {
      EXPECT_LE(guard.allocations(), kStepBudget)
          << "step " << step << " allocated " << guard.allocations()
          << " owning tensors (" << guard.bytes() << " bytes)";
    }
  }
}

TEST(AllocBudgetTest, SteadyStateInferenceStepWithinBudget) {
  DhgcnConfig config =
      DhgcnConfig::Tiny(SkeletonLayoutType::kKinetics18, /*num_classes=*/4);
  DhgcnModel model(config);
  model.SetTraining(false);
  Rng rng(8);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 18}, rng);

  Workspace ws;
  for (int step = 0; step < 5; ++step) {
    AllocStatsGuard guard;
    ws.Reset();
    Tensor logits;
    model.ForwardInto(x, ws, &logits);
    ASSERT_EQ(logits.dim(0), 2);
    if (step >= 2) {
      EXPECT_LE(guard.allocations(), kStepBudget)
          << "inference step " << step << " allocated "
          << guard.allocations() << " owning tensors";
    }
  }
}

TrainOptions TwoEpochOptions() {
  TrainOptions options;
  options.epochs = 2;
  options.initial_lr = 0.01f;
  return options;
}

TEST(AllocBudgetTest, TrainerAllocatesFarLessThanLayerwiseLoop) {
  SyntheticDataConfig data_config = NtuLikeConfig(3, 6, 8, 42);
  SkeletonDataset dataset = SkeletonDataset::Generate(data_config).MoveValue();
  DatasetSplit split = dataset.RandomSplit(0.3f, 1);
  DhgcnConfig config =
      DhgcnConfig::Tiny(SkeletonLayoutType::kNtu25, /*num_classes=*/3);

  DataLoader trainer_loader(&dataset, split.train, 6, InputStream::kJoint,
                            /*shuffle=*/false, Rng(3));
  DhgcnModel trainer_model(config);
  Trainer trainer(&trainer_model, TwoEpochOptions());
  std::vector<EpochStats> planned =
      trainer.Train(trainer_loader).ValueOrDie();

  DataLoader layerwise_loader(&dataset, split.train, 6, InputStream::kJoint,
                              /*shuffle=*/false, Rng(3));
  DhgcnModel layerwise_model(config);
  oracles::LayerwiseTraining layerwise = oracles::TrainLayerwise(
      layerwise_model, layerwise_loader, TwoEpochOptions());
  ASSERT_EQ(planned.size(), 2u);
  ASSERT_EQ(layerwise.allocations.size(), 2u);

  // EpochStats surfaces the per-epoch allocation totals.
  EXPECT_GT(layerwise.allocations[1], 0u);
  EXPECT_GT(planned[1].tensor_alloc_bytes, 0u);  // batch assembly remains

  // Epoch 2 through the Trainer is steady state: only batch assembly
  // (the loader materializes each batch tensor) still allocates, so the
  // allocating layer-by-layer loop must allocate at least 10x more.
  EXPECT_LT(planned[1].tensor_allocations * 10, layerwise.allocations[1]);
}

// Once the CSR capacity is warm, repeated sparse steps must not touch
// the heap at all.
TEST(AllocBudgetTest, CsrKernelsAreAllocationFreeWhenWarm) {
  Rng rng(9);
  Tensor dense_op = RandomAtDensity({25, 25}, 0.2, rng);
  Tensor a = Tensor::RandomNormal({16, 25}, rng);
  Tensor x = Tensor::RandomNormal({2, 3, 4, 25}, rng);

  CsrMatrix csr(1, 1);
  csr.AssignFromDense(dense_op);  // warm the index/value capacity
  Tensor c({16, 25});
  Tensor y(x.shape());
  Tensor gi(x.shape());

  AllocStatsGuard guard;
  for (int step = 0; step < 4; ++step) {
    csr.AssignFromDense(dense_op);  // steady-state re-compression
    SpMMTransposedBInto(a, csr, &c);
    SparseMixInto(csr, x, &y);
    gi.Fill(0.0f);
    SparseMixBackwardInto(csr, x, &gi);
  }
  EXPECT_EQ(guard.allocations(), 0u)
      << "sparse kernels allocated " << guard.allocations()
      << " owning tensors in steady state";
}

// The steady-state budget must hold on the CSR path: every routed
// operator gets an operand below the crossover, and the per-step
// re-compressions reuse warm capacity instead of allocating.
TEST(AllocBudgetTest, SteadyStateCsrRoutedStepWithinBudget) {
  Rng rng(11);
  Tensor op = RandomAtDensity({18, 18}, 0.2, rng);
  Tensor ops = RandomAtDensity({2, 8, 18, 18}, 0.2, rng);
  Tensor imp = RandomAtDensity({18, 9}, 0.2, rng);
  ASSERT_TRUE(ShouldRouteSparse(MeasureDensity(op)));
  ASSERT_TRUE(ShouldRouteSparse(MeasureDensity(ops)));
  Hypergraph hypergraph = StaticSkeletonHypergraph(
      GetSkeletonLayout(SkeletonLayoutType::kKinetics18));
  VertexMix mix(op);
  DynamicVertexMix dynamic_mix;
  Tensor x = Tensor::RandomNormal({2, 4, 8, 18}, rng);
  Tensor g = Tensor::RandomNormal({2, 4, 8, 18}, rng);

  Workspace ws;
  for (int step = 0; step < 5; ++step) {
    AllocStatsGuard guard;
    ws.Reset();
    Tensor omega = NormalizedHypergraphOperator(hypergraph, &ws);
    Tensor weighted = WeightedIncidenceOperator(imp, &ws);
    dynamic_mix.SetOperators(ops);
    Tensor mixed, out, grad_mixed, grad_input;
    mix.ForwardInto(x, ws, &mixed);
    dynamic_mix.ForwardInto(mixed, ws, &out);
    dynamic_mix.BackwardInto(g, ws, &grad_mixed);
    mix.BackwardInto(grad_mixed, ws, &grad_input);
    if (step >= 2) {
      EXPECT_LE(guard.allocations(), kStepBudget)
          << "CSR-routed step " << step << " allocated "
          << guard.allocations() << " owning tensors ("
          << guard.bytes() << " bytes)";
    }
  }
}

TEST(AllocBudgetTest, TrainerAndLayerwiseLoopAreBitIdentical) {
  SyntheticDataConfig data_config = NtuLikeConfig(2, 5, 8, 17);
  SkeletonDataset dataset = SkeletonDataset::Generate(data_config).MoveValue();
  DatasetSplit split = dataset.RandomSplit(0.3f, 1);
  DhgcnConfig config =
      DhgcnConfig::Tiny(SkeletonLayoutType::kNtu25, /*num_classes=*/2);

  DataLoader trainer_loader(&dataset, split.train, 4, InputStream::kJoint,
                            /*shuffle=*/true, Rng(5));
  DhgcnModel trainer_model(config);
  Trainer trainer(&trainer_model, TwoEpochOptions());
  double trainer_loss =
      trainer.Train(trainer_loader).ValueOrDie().back().mean_loss;

  DataLoader layerwise_loader(&dataset, split.train, 4, InputStream::kJoint,
                              /*shuffle=*/true, Rng(5));
  DhgcnModel layerwise_model(config);
  double layerwise_loss =
      oracles::TrainLayerwise(layerwise_model, layerwise_loader,
                              TwoEpochOptions())
          .mean_loss.back();

  EXPECT_EQ(trainer_loss, layerwise_loss);
}

}  // namespace
}  // namespace dhgcn

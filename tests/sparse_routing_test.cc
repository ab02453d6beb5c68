// Sparse conformance layer for the density-routed operators.
//
// The routing decision is a pure function of an operand's measured
// density against one constant crossover; the CSR kernels it selects
// must produce *bit-identical* results to the dense loops they stand in
// for — skipped zero products are exact float/double no-ops and the
// accumulation order is preserved. Every routed operator is therefore
// compared, memcmp-exact, against the dense reference of tests/oracles.h
// at densities on both sides of the crossover, so both branches are
// proven against one reference.

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"

#include "base/rng.h"
#include "core/dhgcn_model.h"
#include "core/static_hypergraph.h"
#include "data/dataloader.h"
#include "data/dataset.h"
#include "data/skeleton.h"
#include "data/synthetic_generator.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/hypergraph_conv.h"
#include "nn/linear.h"
#include "plan/plan_builder.h"
#include "plan/plan_runner.h"
#include "tensor/linalg.h"
#include "tensor/sparse.h"
#include "tensor/tensor_ops.h"
#include "tests/gradcheck.h"
#include "tests/oracles.h"
#include "train/evaluator.h"
#include "train/experiment.h"
#include "train/pruner.h"
#include "train/trainer.h"

namespace dhgcn {
namespace {

void ExpectBitEqual(const Tensor& expected, const Tensor& actual,
                    const char* what) {
  ASSERT_EQ(expected.shape(), actual.shape()) << what;
  EXPECT_EQ(std::memcmp(expected.data(), actual.data(),
                        sizeof(float) * expected.numel()),
            0)
      << what << ": not bit-identical to the dense reference";
}

// Random normal tensor with an expected fraction `density` of nonzeros.
Tensor RandomAtDensity(const Shape& shape, double density, Rng& rng) {
  Tensor t = Tensor::RandomNormal(shape, rng);
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (rng.Uniform() >= static_cast<float>(density)) t.flat(i) = 0.0f;
  }
  return t;
}

// (V, V) operator with exactly `nonzeros` nonzero entries, the first
// `nonzeros` in row-major order.
Tensor OperatorWithNonzeros(int64_t v, int64_t nonzeros, Rng& rng) {
  Tensor op = Tensor::Zeros({v, v});
  for (int64_t i = 0; i < nonzeros; ++i) op.flat(i) = rng.Normal();
  return op;
}

// Kind of the single op a captured VertexMix records.
PlanOpKind CapturedMixKind(VertexMix& mix, int64_t v) {
  mix.SetTraining(false);
  ExecutionPlan plan = CaptureInferencePlan(mix, {1, 2, 3, v}).ValueOrDie();
  EXPECT_EQ(plan.ops.size(), 1u);
  return plan.ops.front().kind;
}

// --- Routing policy ---------------------------------------------------

TEST(SparseRoute, CrossoverIsInclusive) {
  static_assert(kSparseDensityCrossover == 0.35);
  EXPECT_TRUE(ShouldRouteSparse(0.0));
  EXPECT_TRUE(ShouldRouteSparse(kSparseDensityCrossover));
  EXPECT_FALSE(
      ShouldRouteSparse(std::nextafter(kSparseDensityCrossover, 1.0)));
  EXPECT_FALSE(ShouldRouteSparse(1.0));
}

TEST(SparseRoute, VertexMixTakesCsrAtCrossoverAndDenseOneStepAbove) {
  // 140 of 400 entries is exactly the crossover, 141 one step above.
  Rng rng(210);
  Tensor at = OperatorWithNonzeros(20, 140, rng);
  Tensor above = OperatorWithNonzeros(20, 141, rng);
  ASSERT_EQ(MeasureDensity(at), kSparseDensityCrossover);
  ASSERT_GT(MeasureDensity(above), kSparseDensityCrossover);

  VertexMix csr_mix(at.Clone());
  VertexMix dense_mix(above.Clone());
  EXPECT_EQ(CapturedMixKind(csr_mix, 20), PlanOpKind::kSpMM);
  EXPECT_EQ(CapturedMixKind(dense_mix, 20), PlanOpKind::kVertexMix);

  // Both sides of the boundary still match the dense reference.
  Tensor x = Tensor::RandomNormal({2, 3, 4, 20}, rng);
  ExpectBitEqual(oracles::VertexMixForward(at, x), csr_mix.Forward(x),
                 "VertexMix at the crossover");
  ExpectBitEqual(oracles::VertexMixForward(above, x), dense_mix.Forward(x),
                 "VertexMix above the crossover");
}

TEST(SparseRoute, MeasureDensityCountsNonzeros) {
  Tensor t({2, 3});
  t.Fill(0.0f);
  EXPECT_EQ(MeasureDensity(t), 0.0);
  t.flat(0) = 1.0f;
  t.flat(5) = -2.0f;
  EXPECT_NEAR(MeasureDensity(t), 2.0 / 6.0, 1e-12);
  EXPECT_EQ(MeasureDensity(nullptr, 0), 0.0);
}

// --- Kernel conformance: CSR row dots vs the dense transposed-B GEMM --
//
// Shapes deliberately include primes (61, 67, 37, 17) and the
// degenerate 1x1x1.

using Dims = std::tuple<int64_t, int64_t, int64_t>;
using KernelParam = std::tuple<Dims, double>;

class SpmmConformanceTest : public ::testing::TestWithParam<KernelParam> {
};

TEST_P(SpmmConformanceTest, SpMMTransposedBBitwiseMatchesDense) {
  auto [dims, density] = GetParam();
  auto [m, k, n] = dims;
  Rng rng(103);
  Tensor a = Tensor::RandomNormal({m, k}, rng);
  Tensor b = RandomAtDensity({n, k}, density, rng);
  CsrMatrix b_csr(1, 1);
  b_csr.AssignFromDense(b);

  Tensor ref({m, n});
  MatMulTransposedBInto(a, b, &ref);
  Tensor c({m, n});
  SpMMTransposedBInto(a, b_csr, &c);
  ExpectBitEqual(ref, c, "SpMMTransposedBInto");
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndDensities, SpmmConformanceTest,
    ::testing::Combine(::testing::Values(Dims{5, 7, 3}, Dims{61, 67, 37},
                                         Dims{33, 64, 17}, Dims{1, 1, 1},
                                         Dims{17, 16, 16}),
                       ::testing::Values(0.01, 0.1, 0.5, 1.0)));

// --- CSR in-place rebuild (the steady-state compression path) ---------

TEST(CsrAssignFromDense, RoundTripsAfterCapacityReuse) {
  Rng rng(104);
  CsrMatrix csr(1, 1);
  // Dense -> sparse -> dense again: each rebuild must reproduce its
  // input exactly regardless of what capacity the previous build left.
  for (double density : {0.5, 0.01, 1.0, 0.1}) {
    Tensor dense = RandomAtDensity({19, 23}, density, rng);
    csr.AssignFromDense(dense);
    EXPECT_EQ(csr.rows(), 19);
    EXPECT_EQ(csr.cols(), 23);
    EXPECT_EQ(static_cast<double>(csr.nnz()) / (19.0 * 23.0),
              MeasureDensity(dense))
        << "density " << density;
    ExpectBitEqual(dense, oracles::CsrToDense(csr),
                   "AssignFromDense round-trip");
  }
}

// --- Routed operators vs the dense reference, 5% to 100% density -----

class RoutedOperatorTest : public ::testing::TestWithParam<double> {};

TEST_P(RoutedOperatorTest, VertexMixMatchesDenseReference) {
  const double density = GetParam();
  Rng rng(201);
  Tensor op = RandomAtDensity({17, 17}, density, rng);
  Tensor x = Tensor::RandomNormal({2, 3, 5, 17}, rng);
  Tensor gy = Tensor::RandomNormal({2, 3, 5, 17}, rng);

  VertexMix mix(op.Clone());
  ExpectBitEqual(oracles::VertexMixForward(op, x), mix.Forward(x),
                 "VertexMix forward");
  ExpectBitEqual(oracles::VertexMixBackward(op, gy), mix.Backward(gy),
                 "VertexMix backward");
  // Plan replay runs whichever kernel the capture baked in.
  Tensor replayed(x.shape());
  mix.MixPlan(x, &replayed);
  ExpectBitEqual(oracles::VertexMixForward(op, x), replayed,
                 "VertexMix plan replay");
  EXPECT_EQ(CapturedMixKind(mix, 17),
            ShouldRouteSparse(MeasureDensity(op)) ? PlanOpKind::kSpMM
                                                  : PlanOpKind::kVertexMix);
}

TEST_P(RoutedOperatorTest, DynamicVertexMixMatchesDenseReference) {
  const double density = GetParam();
  Rng rng(203);
  Tensor ops = RandomAtDensity({2, 4, 17, 17}, density, rng);
  Tensor x = Tensor::RandomNormal({2, 3, 4, 17}, rng);
  Tensor gy = Tensor::RandomNormal({2, 3, 4, 17}, rng);

  DynamicVertexMix mix;
  mix.SetOperators(ops.Clone());
  ExpectBitEqual(oracles::DynamicVertexMixForward(ops, x), mix.Forward(x),
                 "DynamicVertexMix forward");
  ExpectBitEqual(oracles::DynamicVertexMixBackward(ops, gy),
                 mix.Backward(gy), "DynamicVertexMix backward");
}

TEST_P(RoutedOperatorTest, WeightedIncidenceOperatorMatchesDenseReference) {
  const double density = GetParam();
  Rng rng(204);
  Tensor imp = RandomAtDensity({25, 9}, density, rng);
  ExpectBitEqual(oracles::WeightedIncidenceOperator(imp),
                 WeightedIncidenceOperator(imp), "WeightedIncidenceOperator");
}

INSTANTIATE_TEST_SUITE_P(Densities, RoutedOperatorTest,
                         ::testing::Values(0.05, 0.1, 0.2, 0.35, 0.5, 0.75,
                                           1.0));

TEST(RoutedOperator, NormalizedHypergraphOperatorMatchesDenseReference) {
  // Random topologies (isolated vertices included) and the paper's
  // static skeleton hypergraph.
  for (uint64_t seed : {300u, 301u, 302u, 303u}) {
    Rng rng(seed);
    const int64_t v = 14;
    std::vector<Hyperedge> edges;
    for (int64_t e = 0; e < 5; ++e) {
      edges.push_back(rng.SampleWithoutReplacement(v, rng.UniformInt(2, 5)));
    }
    Hypergraph h(v, std::move(edges));
    ExpectBitEqual(oracles::NormalizedHypergraphOperator(h),
                   NormalizedHypergraphOperator(h), "random hypergraph");
  }
  Hypergraph skeleton = StaticSkeletonHypergraph(
      GetSkeletonLayout(SkeletonLayoutType::kNtu25));
  ExpectBitEqual(oracles::NormalizedHypergraphOperator(skeleton),
                 NormalizedHypergraphOperator(skeleton),
                 "static skeleton hypergraph");
}

// Prime / tile-straddling vertex count on the layer path.
TEST(RoutedOperator, VertexMixPrimeShapeMatchesDenseReference) {
  Rng rng(205);
  Tensor op = RandomAtDensity({61, 61}, 0.1, rng);
  Tensor x = Tensor::RandomNormal({1, 2, 3, 61}, rng);
  VertexMix mix(op.Clone());
  ExpectBitEqual(oracles::VertexMixForward(op, x), mix.Forward(x),
                 "VertexMix prime-V forward");
}

// --- Whole model: CSR capture and replay -------------------------------

// The Tiny NTU model's static operators sit below the crossover, so
// plan capture bakes them in as kSpMM ops; replay must still be
// bit-identical to the layer path.
TEST(RoutedOperator, PlanReplayWithCsrCaptureBitIdentical) {
  DhgcnConfig config =
      DhgcnConfig::Tiny(SkeletonLayoutType::kNtu25, /*num_classes=*/3);
  DhgcnModel model(config);
  model.SetTraining(false);
  Rng rng(207);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 25}, rng);

  Tensor layer_path = model.Forward(x);
  ExecutionPlan plan =
      BuildInferencePlan(model, x.shape(), PlanMode::kUnfused).ValueOrDie();
  int64_t csr_ops = 0;
  for (const PlanOp& op : plan.ops) {
    if (op.kind == PlanOpKind::kSpMM) ++csr_ops;
  }
  EXPECT_GT(csr_ops, 0);
  PlanRunner runner(std::move(plan));
  ExpectBitEqual(layer_path, runner.Run(x), "CSR-captured plan replay");
}

// --- Gradcheck through the CSR path -----------------------------------

TEST(RoutedOperator, GradcheckVertexMixCsrPath) {
  Rng rng(208);
  Tensor op = RandomAtDensity({9, 9}, 0.3, rng);
  ASSERT_TRUE(ShouldRouteSparse(MeasureDensity(op)));
  VertexMix mix(op.Clone());
  Tensor x = Tensor::RandomNormal({2, 2, 3, 9}, rng);
  testing::ExpectGradientsMatch(mix, x);
}

// --- Pruner: schedule, determinism, mask discipline -------------------

TEST(PrunerTest, CubicScheduleRampsFromZeroToTarget) {
  Rng rng(401);
  Linear layer(8, 16, rng);
  PruneOptions options;
  options.enabled = true;
  options.target_sparsity = 0.8;
  options.start_epoch = 2;
  options.end_epoch = 6;
  Pruner pruner(&layer, options);

  EXPECT_EQ(pruner.SparsityForEpoch(0), 0.0);
  EXPECT_EQ(pruner.SparsityForEpoch(1), 0.0);
  EXPECT_GT(pruner.SparsityForEpoch(2), 0.0);
  EXPECT_EQ(pruner.SparsityForEpoch(6), 0.8);
  EXPECT_EQ(pruner.SparsityForEpoch(100), 0.8);
  double prev = 0.0;
  for (int64_t e = 0; e <= 10; ++e) {
    double s = pruner.SparsityForEpoch(e);
    EXPECT_GE(s, prev) << "epoch " << e;
    EXPECT_LE(s, 0.8);
    prev = s;
  }
}

TEST(PrunerTest, OneShotScheduleJumpsAtStart) {
  Rng rng(402);
  Linear layer(8, 16, rng);
  PruneOptions options;
  options.enabled = true;
  options.target_sparsity = 0.5;
  options.start_epoch = 3;
  options.end_epoch = -1;  // one-shot
  Pruner pruner(&layer, options);
  EXPECT_EQ(pruner.SparsityForEpoch(2), 0.0);
  EXPECT_EQ(pruner.SparsityForEpoch(3), 0.5);
}

TEST(PrunerTest, PrunesExactCountWithDeterministicTieBreak) {
  Rng rng(403);
  Linear layer(8, 16, rng);  // weight (16, 8): 128 elements, bias excluded

  // All-equal magnitudes: the (|w|, flat index) total order must prune
  // exactly floor(s * numel) entries, lowest flat indices first.
  Tensor* weight = layer.Params()[0].value;
  ASSERT_EQ(weight->numel(), 128);
  weight->Fill(1.0f);
  PruneOptions options;
  options.enabled = true;
  options.target_sparsity = 0.5;
  options.start_epoch = 0;
  Pruner pruner(&layer, options);
  EXPECT_EQ(pruner.prunable_tensors(), 1);  // the 1-D bias is excluded
  pruner.OnEpochBegin(0);
  EXPECT_EQ(pruner.MaskedFraction(), 0.5);
  for (int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(weight->flat(i), 0.0f) << "index " << i;
  }
  for (int64_t i = 64; i < 128; ++i) {
    EXPECT_EQ(weight->flat(i), 1.0f) << "index " << i;
  }
}

TEST(PrunerTest, ApplyReZeroesMaskedWeightsAfterUpdates) {
  Rng rng(404);
  Linear layer(8, 16, rng);
  PruneOptions options;
  options.enabled = true;
  options.target_sparsity = 0.75;
  options.start_epoch = 0;
  Pruner pruner(&layer, options);
  pruner.OnEpochBegin(0);
  double masked = pruner.MaskedFraction();
  EXPECT_EQ(masked, 96.0 / 128.0);
  EXPECT_GE(pruner.MeasuredSparsity(), masked);

  // Simulate an optimizer step resurrecting every weight.
  Tensor* weight = layer.Params()[0].value;
  for (int64_t i = 0; i < weight->numel(); ++i) weight->flat(i) += 0.5f;
  EXPECT_LT(pruner.MeasuredSparsity(), masked);
  pruner.Apply();
  EXPECT_GE(pruner.MeasuredSparsity(), masked);
  EXPECT_EQ(pruner.MaskedFraction(), masked);
}

// --- Pruned fine-tuned training: accuracy parity and real sparsity ----

TEST(PrunerTest, PrunedFineTunedModelNearBaselineAccuracy) {
  SyntheticDataConfig data_config = NtuLikeConfig(2, 14, 8, 21);
  SkeletonDataset dataset =
      SkeletonDataset::Generate(data_config).MoveValue();
  DatasetSplit split = MakeSplit(dataset, SplitProtocol::kRandom, 4);

  auto run = [&](bool prune) {
    DataLoader loader(&dataset, split.train, 4, InputStream::kJoint,
                      /*shuffle=*/true, Rng(9));
    DhgcnConfig config =
        DhgcnConfig::Tiny(SkeletonLayoutType::kNtu25, /*num_classes=*/2);
    DhgcnModel model(config);
    TrainOptions options;
    options.epochs = 8;
    options.initial_lr = 0.05f;
    options.lr_milestones = {6};
    if (prune) {
      options.prune.enabled = true;
      options.prune.target_sparsity = 0.5;
      options.prune.start_epoch = 3;
      options.prune.end_epoch = 5;  // epochs 6-7 fine-tune the survivors
    }
    Trainer trainer(&model, options);
    std::vector<EpochStats> history =
        trainer.Train(loader).ValueOrDie();
    double sparsity = prune ? trainer.pruner()->MeasuredSparsity() : 0.0;
    DataLoader eval_loader(&dataset, split.test, 4, InputStream::kJoint,
                           /*shuffle=*/false, Rng(10));
    EvalMetrics metrics = Evaluate(model, eval_loader);
    return std::make_tuple(history.back().train_top1, metrics.top1,
                           sparsity);
  };

  auto [base_train, base_test, base_sparsity] = run(/*prune=*/false);
  auto [pruned_train, pruned_test, pruned_sparsity] = run(/*prune=*/true);

  // The pruner must actually have zeroed the target fraction...
  EXPECT_GE(pruned_sparsity, 0.5);
  EXPECT_EQ(base_sparsity, 0.0);
  // ...without costing accuracy: fine-tuned pruned model within one
  // test sample of the unpruned baseline.
  double one_sample = 1.0 / static_cast<double>(split.test.size());
  EXPECT_GE(pruned_test, base_test - one_sample - 1e-9)
      << "baseline=" << base_test << " pruned=" << pruned_test;
  EXPECT_GT(pruned_train, 0.5);
  (void)base_train;
}

}  // namespace
}  // namespace dhgcn

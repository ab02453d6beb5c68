// Finite-difference gradient checks for every differentiable layer in the
// library — the backbone property suite validating all hand-written
// Backward implementations.

#include "tests/gradcheck.h"

#include "gtest/gtest.h"

#include "base/rng.h"
#include "base/thread_pool.h"
#include "core/static_hypergraph.h"
#include "data/skeleton.h"
#include "hypergraph/hypergraph_conv.h"
#include "models/agcn.h"
#include "models/pbgcn.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/pooling.h"
#include "nn/relu.h"
#include "nn/sequential.h"

namespace dhgcn {
namespace {

using ::dhgcn::testing::ExpectGradientsMatch;
using ::dhgcn::testing::GradCheckOptions;

TEST(GradCheck, Linear) {
  Rng rng(100);
  Linear layer(5, 3, rng);
  Tensor x = Tensor::RandomNormal({4, 5}, rng);
  ExpectGradientsMatch(layer, x);
}

TEST(GradCheck, LinearNoBias3d) {
  Rng rng(101);
  Linear layer(4, 6, rng, /*has_bias=*/false);
  Tensor x = Tensor::RandomNormal({2, 3, 4}, rng);
  ExpectGradientsMatch(layer, x);
}

TEST(GradCheck, Conv1x1) {
  Rng rng(102);
  Conv2d layer(3, 4, Conv2dOptions{}, rng);
  Tensor x = Tensor::RandomNormal({2, 3, 4, 5}, rng);
  ExpectGradientsMatch(layer, x);
}

TEST(GradCheck, ConvTemporalPadded) {
  Rng rng(103);
  Conv2dOptions options;
  options.kernel_h = 3;
  options.pad_h = 1;
  Conv2d layer(2, 3, options, rng);
  Tensor x = Tensor::RandomNormal({2, 2, 6, 4}, rng);
  ExpectGradientsMatch(layer, x);
}

TEST(GradCheck, ConvStridedDilated) {
  Rng rng(104);
  Conv2dOptions options;
  options.kernel_h = 3;
  options.pad_h = 2;
  options.stride_h = 2;
  options.dilation_h = 2;
  Conv2d layer(2, 2, options, rng);
  Tensor x = Tensor::RandomNormal({2, 2, 9, 3}, rng);
  ExpectGradientsMatch(layer, x);
}

TEST(GradCheck, ConvSpatialKernel) {
  Rng rng(105);
  Conv2dOptions options;
  options.kernel_h = 3;
  options.kernel_w = 3;
  options.pad_h = 1;
  options.pad_w = 1;
  Conv2d layer(2, 2, options, rng);
  Tensor x = Tensor::RandomNormal({1, 2, 5, 5}, rng);
  ExpectGradientsMatch(layer, x);
}

TEST(GradCheck, BatchNormTraining) {
  Rng rng(106);
  BatchNorm2d layer(3);
  layer.SetTraining(true);
  // Non-unit gamma/beta so their gradients are exercised non-trivially.
  layer.gamma() = Tensor::RandomUniform({3}, rng, 0.5f, 1.5f);
  layer.beta() = Tensor::RandomNormal({3}, rng);
  Tensor x = Tensor::RandomNormal({4, 3, 3, 2}, rng);
  // BatchNorm gradients involve batch-statistic terms that amplify
  // float32 noise; use slightly looser tolerances.
  GradCheckOptions options;
  options.rtol = 8e-2f;
  options.atol = 1e-3f;
  ExpectGradientsMatch(layer, x, options);
}

TEST(GradCheck, BatchNorm2dInput) {
  Rng rng(107);
  BatchNorm2d layer(4);
  Tensor x = Tensor::RandomNormal({8, 4}, rng);
  GradCheckOptions options;
  options.rtol = 8e-2f;
  options.atol = 1e-3f;
  ExpectGradientsMatch(layer, x, options);
}

TEST(GradCheck, Relu) {
  Rng rng(108);
  ReLU layer;
  // Keep inputs away from the kink at 0 where the derivative jumps.
  Tensor x = Tensor::RandomNormal({3, 4}, rng);
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(x.flat(i)) < 0.1f) x.flat(i) = 0.5f;
  }
  ExpectGradientsMatch(layer, x);
}

TEST(GradCheck, GlobalAvgPool) {
  Rng rng(109);
  GlobalAvgPool2d layer;
  Tensor x = Tensor::RandomNormal({2, 3, 4, 5}, rng);
  ExpectGradientsMatch(layer, x);
}

TEST(GradCheck, VertexMixFixed) {
  Rng rng(111);
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kKinetics18);
  Tensor op = NormalizedHypergraphOperator(StaticSkeletonHypergraph(layout));
  VertexMix layer(op);
  Tensor x = Tensor::RandomNormal({2, 3, 4, 18}, rng);
  ExpectGradientsMatch(layer, x);
}

// DynamicVertexMix needs its operators configured before Forward; wrap it
// so the gradcheck's repeated Forward calls reuse the same operators.
class DynamicVertexMixHarness : public Layer {
 public:
  DynamicVertexMixHarness(Tensor ops) { mix_.SetOperators(std::move(ops)); }
  Tensor Forward(const Tensor& x) override { return mix_.Forward(x); }
  Tensor Backward(const Tensor& g) override { return mix_.Backward(g); }
  std::string name() const override { return "DynamicVertexMixHarness"; }

 private:
  DynamicVertexMix mix_;
};

TEST(GradCheck, DynamicVertexMix) {
  Rng rng(113);
  Tensor ops = Tensor::RandomNormal({2, 4, 5, 5}, rng, 0.0f, 0.4f);
  DynamicVertexMixHarness layer(ops);
  Tensor x = Tensor::RandomNormal({2, 3, 4, 5}, rng);
  ExpectGradientsMatch(layer, x);
}

TEST(GradCheck, SequentialComposition) {
  Rng rng(114);
  Sequential seq;
  seq.Emplace<Linear>(4, 8, rng);
  seq.Emplace<ReLU>();
  seq.Emplace<Linear>(8, 3, rng);
  Tensor x = Tensor::RandomNormal({3, 4}, rng);
  // Shift away from ReLU kinks.
  ExpectGradientsMatch(seq, x);
}

TEST(GradCheck, AdaptiveSpatialFullAttention) {
  Rng rng(115);
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kKinetics18);
  Tensor adjacency = SkeletonGraph(layout).NormalizedAdjacency();
  AdaptiveSpatial layer(3, 4, adjacency, rng, /*embed_channels=*/3);
  Tensor x = Tensor::RandomNormal({2, 3, 3, 18}, rng);
  GradCheckOptions options;
  options.rtol = 8e-2f;
  options.atol = 1e-3f;
  ExpectGradientsMatch(layer, x, options);
}

TEST(GradCheck, PartSumSpatial) {
  Rng rng(116);
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kKinetics18);
  PartSumSpatial layer(3, 4, layout, /*num_parts=*/4, rng);
  Tensor x = Tensor::RandomNormal({2, 3, 3, 18}, rng);
  ExpectGradientsMatch(layer, x);
}

// ---------------------------------------------------------------------------
// The same analytic-vs-numeric checks under a multi-threaded pool: the
// parallelized Conv2d / BatchNorm2d / loss backward passes must agree
// with finite differences regardless of the worker count.
// ---------------------------------------------------------------------------

// Sets the pool size for one test and restores the previous size on exit.
class ThreadPoolGuard {
 public:
  explicit ThreadPoolGuard(int64_t n)
      : previous_(ThreadPool::Get().thread_count()) {
    ThreadPool::Get().SetThreads(n);
  }
  ~ThreadPoolGuard() { ThreadPool::Get().SetThreads(previous_); }

 private:
  int64_t previous_;
};

TEST(GradCheckThreaded, Conv1x1FourThreads) {
  ThreadPoolGuard pool(4);
  Rng rng(118);
  Conv2d layer(3, 4, Conv2dOptions{}, rng);
  Tensor x = Tensor::RandomNormal({2, 3, 4, 5}, rng);
  ExpectGradientsMatch(layer, x);
}

TEST(GradCheckThreaded, ConvSpatialKernelFourThreads) {
  ThreadPoolGuard pool(4);
  Rng rng(119);
  Conv2dOptions options;
  options.kernel_h = 3;
  options.kernel_w = 3;
  options.pad_h = 1;
  options.pad_w = 1;
  Conv2d layer(2, 2, options, rng);
  Tensor x = Tensor::RandomNormal({1, 2, 5, 5}, rng);
  ExpectGradientsMatch(layer, x);
}

TEST(GradCheckThreaded, ConvStridedDilatedFourThreads) {
  ThreadPoolGuard pool(4);
  Rng rng(120);
  Conv2dOptions options;
  options.kernel_h = 3;
  options.pad_h = 2;
  options.stride_h = 2;
  options.dilation_h = 2;
  Conv2d layer(2, 2, options, rng);
  Tensor x = Tensor::RandomNormal({2, 2, 9, 3}, rng);
  ExpectGradientsMatch(layer, x);
}

TEST(GradCheckThreaded, BatchNormTrainingFourThreads) {
  ThreadPoolGuard pool(4);
  Rng rng(121);
  BatchNorm2d layer(3);
  layer.SetTraining(true);
  layer.gamma() = Tensor::RandomUniform({3}, rng, 0.5f, 1.5f);
  layer.beta() = Tensor::RandomNormal({3}, rng);
  Tensor x = Tensor::RandomNormal({4, 3, 3, 2}, rng);
  GradCheckOptions options;
  options.rtol = 8e-2f;
  options.atol = 1e-3f;
  ExpectGradientsMatch(layer, x, options);
}

TEST(GradCheckThreaded, SoftmaxCrossEntropyFourThreads) {
  ThreadPoolGuard pool(4);
  Rng rng(122);
  // Batch larger than the loss reduction grain (8) so the chunked
  // reduction path is exercised, not just the single-chunk fast case.
  const int64_t n = 11, k = 5;
  Tensor logits = Tensor::RandomNormal({n, k}, rng);
  std::vector<int64_t> labels;
  for (int64_t i = 0; i < n; ++i) labels.push_back(i % k);

  SoftmaxCrossEntropy loss(/*label_smoothing=*/0.1f);
  loss.Forward(logits, labels);
  Tensor analytic = loss.Backward();

  const float eps = 1e-2f;
  for (int64_t i = 0; i < logits.numel(); ++i) {
    float original = logits.flat(i);
    logits.flat(i) = original + eps;
    double up = loss.Forward(logits, labels);
    logits.flat(i) = original - eps;
    double down = loss.Forward(logits, labels);
    logits.flat(i) = original;
    double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic.flat(i), numeric,
                1e-3 + 6e-2 * std::fabs(numeric))
        << "logit " << i;
  }
}

}  // namespace
}  // namespace dhgcn

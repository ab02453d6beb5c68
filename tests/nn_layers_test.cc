#include <cmath>

#include "gtest/gtest.h"

#include "base/rng.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dropout.h"
#include "nn/initializer.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/relu.h"
#include "nn/sequential.h"
#include "tensor/tensor_ops.h"

namespace dhgcn {
namespace {

// --- Initializers -------------------------------------------------------------

TEST(InitializerTest, KaimingUniformBounds) {
  Rng rng(1);
  Tensor w({64, 16});
  KaimingUniform(w, 16, rng);
  float bound = std::sqrt(6.0f / 16.0f);
  for (int64_t i = 0; i < w.numel(); ++i) {
    EXPECT_GE(w.flat(i), -bound);
    EXPECT_LE(w.flat(i), bound);
  }
  // Not all zero.
  EXPECT_GT(Norm2(w), 0.1f);
}

TEST(InitializerTest, KaimingNormalVariance) {
  Rng rng(2);
  Tensor w({200, 50});
  KaimingNormal(w, 50, rng);
  double var = 0.0;
  for (int64_t i = 0; i < w.numel(); ++i) {
    var += static_cast<double>(w.flat(i)) * w.flat(i);
  }
  var /= static_cast<double>(w.numel());
  EXPECT_NEAR(var, 2.0 / 50.0, 0.01);
}

TEST(InitializerTest, XavierAndBiasBounds) {
  Rng rng(3);
  Tensor w({10, 20});
  XavierUniform(w, 20, 10, rng);
  float bound = std::sqrt(6.0f / 30.0f);
  EXPECT_LE(MaxAll(Abs(w)), bound);
  Tensor b({10});
  BiasUniform(b, 16, rng);
  EXPECT_LE(MaxAll(Abs(b)), 0.25f);
}

// --- Linear -------------------------------------------------------------------

TEST(LinearTest, ForwardMatchesManual) {
  Rng rng(4);
  Linear linear(3, 2, rng);
  linear.weight() = Tensor::FromVector({2, 3}, {1, 0, -1, 2, 1, 0});
  linear.bias() = Tensor::FromList({0.5f, -0.5f});
  Tensor x = Tensor::FromVector({1, 3}, {1, 2, 3});
  Tensor y = linear.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 1 * 1 + 2 * 0 + 3 * -1 + 0.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 1 * 2 + 2 * 1 + 3 * 0 - 0.5f);
}

TEST(LinearTest, HandlesLeadingDims) {
  Rng rng(5);
  Linear linear(4, 6, rng);
  Tensor x = Tensor::RandomNormal({2, 3, 4}, rng);
  Tensor y = linear.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 3, 6}));
}

TEST(LinearTest, NoBiasOption) {
  Rng rng(6);
  Linear linear(3, 2, rng, /*has_bias=*/false);
  EXPECT_EQ(linear.Params().size(), 1u);
  Tensor zero({1, 3});
  Tensor y = linear.Forward(zero);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 0.0f);
}

TEST(LinearTest, ParameterCount) {
  Rng rng(7);
  Linear linear(8, 5, rng);
  EXPECT_EQ(linear.ParameterCount(), 8 * 5 + 5);
}

TEST(LinearTest, ZeroGradClears) {
  Rng rng(8);
  Linear linear(2, 2, rng);
  Tensor x = Tensor::Ones({3, 2});
  linear.Forward(x);
  linear.Backward(Tensor::Ones({3, 2}));
  bool any_nonzero = false;
  for (ParamRef& p : linear.Params()) {
    any_nonzero = any_nonzero || Norm2(*p.grad) > 0.0f;
  }
  EXPECT_TRUE(any_nonzero);
  linear.ZeroGrad();
  for (ParamRef& p : linear.Params()) EXPECT_FLOAT_EQ(Norm2(*p.grad), 0.0f);
}

// --- Conv2d -------------------------------------------------------------------

TEST(Conv2dTest, OutputDimFormula) {
  EXPECT_EQ(Conv2d::OutputDim(32, 3, 1, 1, 1), 32);   // same padding
  EXPECT_EQ(Conv2d::OutputDim(32, 3, 2, 1, 1), 16);   // stride 2
  EXPECT_EQ(Conv2d::OutputDim(32, 3, 1, 2, 2), 32);   // dilation 2, pad 2
  EXPECT_EQ(Conv2d::OutputDim(10, 1, 1, 0, 1), 10);   // 1x1
  EXPECT_EQ(Conv2d::OutputDim(7, 3, 2, 1, 1), 4);
}

TEST(Conv2dTest, OneByOneIsChannelMix) {
  Rng rng(9);
  Conv2dOptions options;  // 1x1
  Conv2d conv(2, 1, options, rng);
  // Set weight: out = 2*c0 + 3*c1 + bias 1.
  std::vector<ParamRef> params = conv.Params();
  params[0].value->flat(0) = 2.0f;
  params[0].value->flat(1) = 3.0f;
  params[1].value->flat(0) = 1.0f;
  Tensor x({1, 2, 2, 2});
  x.Fill(1.0f);
  x.at(0, 1, 0, 0) = 5.0f;
  Tensor y = conv.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 2 * 1 + 3 * 5 + 1);
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 2 + 3 + 1);
}

TEST(Conv2dTest, TemporalKernelManualValue) {
  Rng rng(10);
  Conv2dOptions options;
  options.kernel_h = 3;
  options.pad_h = 1;
  options.has_bias = false;
  Conv2d conv(1, 1, options, rng);
  // Moving-average kernel [1, 1, 1]^T / 1.
  conv.Params()[0].value->Fill(1.0f);
  Tensor x = Tensor::Arange(5).Reshape({1, 1, 5, 1});
  Tensor y = conv.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 5, 1}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 0.0f + 0.0f + 1.0f);  // zero padded
  EXPECT_FLOAT_EQ(y.at(0, 0, 2, 0), 1.0f + 2.0f + 3.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 4, 0), 3.0f + 4.0f + 0.0f);
}

TEST(Conv2dTest, DilationSkipsFrames) {
  Rng rng(11);
  Conv2dOptions options;
  options.kernel_h = 3;
  options.pad_h = 2;
  options.dilation_h = 2;
  options.has_bias = false;
  Conv2d conv(1, 1, options, rng);
  conv.Params()[0].value->Fill(1.0f);
  Tensor x = Tensor::Arange(5).Reshape({1, 1, 5, 1});
  Tensor y = conv.Forward(x);
  // Center position 2 sees frames 0, 2, 4.
  EXPECT_FLOAT_EQ(y.at(0, 0, 2, 0), 0.0f + 2.0f + 4.0f);
}

TEST(Conv2dTest, StrideHalvesTime) {
  Rng rng(12);
  Conv2dOptions options;
  options.kernel_h = 3;
  options.pad_h = 1;
  options.stride_h = 2;
  Conv2d conv(3, 4, options, rng);
  Tensor x = Tensor::RandomNormal({2, 3, 16, 5}, rng);
  Tensor y = conv.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 4, 8, 5}));
}

struct ConvShapeCase {
  int64_t t;
  int64_t kernel;
  int64_t stride;
  int64_t pad;
  int64_t dilation;
  int64_t expected;
};

class ConvShapeParamTest : public ::testing::TestWithParam<ConvShapeCase> {};

TEST_P(ConvShapeParamTest, ForwardShapeMatchesFormula) {
  const ConvShapeCase& c = GetParam();
  Rng rng(13);
  Conv2dOptions options;
  options.kernel_h = c.kernel;
  options.stride_h = c.stride;
  options.pad_h = c.pad;
  options.dilation_h = c.dilation;
  Conv2d conv(2, 3, options, rng);
  Tensor x = Tensor::RandomNormal({1, 2, c.t, 4}, rng);
  Tensor y = conv.Forward(x);
  EXPECT_EQ(y.dim(2), c.expected);
  // Backward must return the input shape regardless of geometry.
  Tensor g = conv.Backward(Tensor::Ones(y.shape()));
  EXPECT_EQ(g.shape(), x.shape());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvShapeParamTest,
    ::testing::Values(ConvShapeCase{16, 3, 1, 1, 1, 16},
                      ConvShapeCase{16, 3, 2, 1, 1, 8},
                      ConvShapeCase{16, 5, 1, 2, 1, 16},
                      ConvShapeCase{16, 3, 1, 2, 2, 16},
                      ConvShapeCase{9, 3, 2, 1, 1, 5},
                      ConvShapeCase{16, 1, 1, 0, 1, 16}));

// --- BatchNorm ------------------------------------------------------------------

TEST(BatchNormTest, TrainingNormalizesBatch) {
  BatchNorm2d bn(2);
  bn.SetTraining(true);
  Rng rng(14);
  Tensor x = Tensor::RandomNormal({4, 2, 3, 3}, rng, 5.0f, 2.0f);
  Tensor y = bn.Forward(x);
  // Per-channel mean ~0 and var ~1 after normalization.
  for (int64_t c = 0; c < 2; ++c) {
    double sum = 0.0, sum_sq = 0.0;
    int64_t count = 0;
    for (int64_t n = 0; n < 4; ++n) {
      for (int64_t h = 0; h < 3; ++h) {
        for (int64_t w = 0; w < 3; ++w) {
          double v = y.at(n, c, h, w);
          sum += v;
          sum_sq += v * v;
          ++count;
        }
      }
    }
    double mean = sum / static_cast<double>(count);
    double var = sum_sq / static_cast<double>(count) - mean * mean;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, GammaBetaApply) {
  BatchNorm2d bn(1);
  bn.gamma().Fill(3.0f);
  bn.beta().Fill(-1.0f);
  Rng rng(15);
  Tensor x = Tensor::RandomNormal({8, 1, 2, 2}, rng);
  Tensor y = bn.Forward(x);
  double mean = 0.0;
  for (int64_t i = 0; i < y.numel(); ++i) mean += y.flat(i);
  mean /= static_cast<double>(y.numel());
  EXPECT_NEAR(mean, -1.0, 1e-4);  // beta shifts the normalized mean
}

TEST(BatchNormTest, EvalUsesRunningStats) {
  BatchNorm2d bn(1, /*eps=*/1e-5f, /*momentum=*/1.0f);  // adopt last batch
  Rng rng(16);
  Tensor x = Tensor::RandomNormal({16, 1, 4, 4}, rng, 2.0f, 3.0f);
  bn.Forward(x);  // training: records stats
  bn.SetTraining(false);
  Tensor y = bn.Forward(x);
  // With momentum 1 the running stats equal the batch stats, so eval
  // output is ~normalized too (up to the biased/unbiased var correction).
  double mean = 0.0;
  for (int64_t i = 0; i < y.numel(); ++i) mean += y.flat(i);
  mean /= static_cast<double>(y.numel());
  EXPECT_NEAR(mean, 0.0, 1e-3);
}

TEST(BatchNormTest, Supports2dInput) {
  BatchNorm2d bn(4);
  Rng rng(17);
  Tensor x = Tensor::RandomNormal({8, 4}, rng, 1.0f, 2.0f);
  Tensor y = bn.Forward(x);
  EXPECT_EQ(y.shape(), x.shape());
  for (int64_t c = 0; c < 4; ++c) {
    double sum = 0.0;
    for (int64_t n = 0; n < 8; ++n) sum += y.at(n, c);
    EXPECT_NEAR(sum / 8.0, 0.0, 1e-4);
  }
}

// --- ReLU / Dropout ------------------------------------------------------------

TEST(ReluTest, ClampsNegatives) {
  ReLU relu;
  Tensor x = Tensor::FromList({-2, -0.5f, 0, 1, 3});
  Tensor y = relu.Forward(x);
  EXPECT_FLOAT_EQ(y.flat(0), 0.0f);
  EXPECT_FLOAT_EQ(y.flat(2), 0.0f);
  EXPECT_FLOAT_EQ(y.flat(4), 3.0f);
}

TEST(ReluTest, BackwardMasks) {
  ReLU relu;
  Tensor x = Tensor::FromList({-1, 2});
  relu.Forward(x);
  Tensor g = relu.Backward(Tensor::FromList({10, 10}));
  EXPECT_FLOAT_EQ(g.flat(0), 0.0f);
  EXPECT_FLOAT_EQ(g.flat(1), 10.0f);
}

TEST(DropoutTest, EvalIsIdentity) {
  Rng rng(18);
  Dropout dropout(0.5f, rng);
  dropout.SetTraining(false);
  Tensor x = Tensor::Arange(10);
  EXPECT_TRUE(AllClose(dropout.Forward(x), x));
}

TEST(DropoutTest, TrainingZeroesAboutPFraction) {
  Rng rng(19);
  Dropout dropout(0.3f, rng);
  dropout.SetTraining(true);
  Tensor x = Tensor::Ones({10000});
  Tensor y = dropout.Forward(x);
  int64_t zeros = 0;
  float scale = 1.0f / 0.7f;
  for (int64_t i = 0; i < y.numel(); ++i) {
    if (y.flat(i) == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(y.flat(i), scale, 1e-5f);
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / static_cast<double>(y.numel()),
              0.3, 0.03);
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Rng rng(20);
  Dropout dropout(0.5f, rng);
  Tensor x = Tensor::Ones({1000});
  Tensor y = dropout.Forward(x);
  Tensor g = dropout.Backward(Tensor::Ones({1000}));
  for (int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_FLOAT_EQ(g.flat(i), y.flat(i));  // identical masking and scale
  }
}

TEST(DropoutTest, ZeroProbabilityIsIdentityInTraining) {
  Rng rng(21);
  Dropout dropout(0.0f, rng);
  Tensor x = Tensor::Arange(5);
  EXPECT_TRUE(AllClose(dropout.Forward(x), x));
}

// --- Pooling ---------------------------------------------------------------------

TEST(GlobalAvgPoolTest, AveragesSpatial) {
  GlobalAvgPool2d pool;
  Tensor x({1, 2, 2, 2});
  x.at(0, 0, 0, 0) = 1;
  x.at(0, 0, 0, 1) = 2;
  x.at(0, 0, 1, 0) = 3;
  x.at(0, 0, 1, 1) = 4;
  x.at(0, 1, 0, 0) = 10;
  Tensor y = pool.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2.5f);
}

TEST(GlobalAvgPoolTest, BackwardSpreadsEvenly) {
  GlobalAvgPool2d pool;
  Tensor x = Tensor::Ones({1, 1, 2, 2});
  pool.Forward(x);
  Tensor g = pool.Backward(Tensor::FromVector({1, 1}, {8.0f}));
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(g.flat(i), 2.0f);
}

// --- Sequential ------------------------------------------------------------------

TEST(SequentialTest, ChainsLayers) {
  Rng rng(22);
  Sequential seq;
  seq.Emplace<Linear>(3, 4, rng);
  seq.Emplace<ReLU>();
  seq.Emplace<Linear>(4, 2, rng);
  Tensor x = Tensor::RandomNormal({5, 3}, rng);
  Tensor y = seq.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{5, 2}));
  Tensor g = seq.Backward(Tensor::Ones({5, 2}));
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(SequentialTest, ParamsAreNamespaced) {
  Rng rng(23);
  Sequential seq;
  seq.Emplace<Linear>(2, 2, rng);
  seq.Emplace<Linear>(2, 2, rng);
  std::vector<ParamRef> params = seq.Params();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_NE(params[0].name.find("0."), std::string::npos);
  EXPECT_NE(params[2].name.find("1."), std::string::npos);
}

TEST(SequentialTest, SetTrainingPropagates) {
  Rng rng(24);
  Sequential seq;
  Dropout* dropout = seq.Emplace<Dropout>(0.5f, rng);
  seq.SetTraining(false);
  EXPECT_FALSE(dropout->training());
  seq.SetTraining(true);
  EXPECT_TRUE(dropout->training());
}

}  // namespace
}  // namespace dhgcn

// Equivalence suite for the cache-blocked GEMM micro-kernel
// (tensor/gemm_kernel.h) and the lowerings that ride it. The blocked
// kernel uses a different — still shape-pure — accumulation order than
// the reference row kernel of tests/oracles.h, so these tests bound the
// float drift with relative tolerances instead of bit comparison; the
// bit-level guarantees (across thread counts) live in
// parallel_determinism_test.cc.

#include <cmath>
#include <vector>

#include "gtest/gtest.h"

#include "base/rng.h"
#include "gradcheck.h"
#include "hypergraph/knn.h"
#include "nn/conv2d.h"
#include "tensor/gemm_kernel.h"
#include "tensor/linalg.h"
#include "tensor/workspace.h"
#include "tests/oracles.h"

namespace dhgcn {
namespace {

// rtol sized for float accumulation over k <= a few hundred terms; atol
// absorbs catastrophic cancellation near zero.
constexpr float kRtol = 1e-4f;
constexpr float kAtol = 1e-5f;

void ExpectAllClose(const Tensor& expected, const Tensor& actual,
                    const char* what) {
  ASSERT_TRUE(ShapesEqual(expected.shape(), actual.shape())) << what;
  for (int64_t i = 0; i < expected.numel(); ++i) {
    const float e = expected.flat(i);
    const float a = actual.flat(i);
    ASSERT_NEAR(e, a, kAtol + kRtol * std::fabs(e))
        << what << " at flat index " << i;
  }
}

using oracles::ReferenceMatMul;

// Shapes chosen to straddle every tiling boundary: micro-tile exact
// multiples, one-off remainders, sub-tile sizes, primes, k crossing the
// kGemmKC block edge, and n crossing the packed-panel edge.
struct GemmShape {
  int64_t m, k, n;
};

const GemmShape kShapes[] = {
    {detail::kGemmMR, 8, detail::kGemmNR},            // exactly one tile
    {detail::kGemmMR * 3, 64, detail::kGemmNR * 2},   // tile multiples
    {detail::kGemmMR + 1, 37, detail::kGemmNR + 1},   // one-off remainders
    {61, 67, 53},                                     // all prime
    {5, detail::kGemmKC + 7, 19},                     // k straddles KC
    {48, 300, detail::kGemmNR / 2},                   // below-threshold n
    {128, 128, 128},                                  // square, blocked
    {3, 500, 9},                                      // too small to block
};

TEST(GemmKernel, MatchesReferenceKernel) {
  for (const GemmShape& s : kShapes) {
    Rng rng(300 + s.m + s.k + s.n);
    Tensor a = Tensor::RandomNormal({s.m, s.k}, rng);
    Tensor b = Tensor::RandomNormal({s.k, s.n}, rng);
    Tensor got = MatMul(a, b);
    ExpectAllClose(ReferenceMatMul(a, b), got, "MatMul vs reference");
  }
}

TEST(GemmKernel, AccumulateMatchesReferenceKernel) {
  for (const GemmShape& s : kShapes) {
    Rng rng(400 + s.m + s.k + s.n);
    Tensor a = Tensor::RandomNormal({s.m, s.k}, rng);
    Tensor b = Tensor::RandomNormal({s.k, s.n}, rng);
    Tensor init = Tensor::RandomNormal({s.m, s.n}, rng);

    Tensor want = init.Clone();
    oracles::GemmReferenceAccumulate(a.data(), b.data(), want.data(), s.m,
                                     s.k, s.n);
    Tensor got = init.Clone();
    MatMulInto(a, b, &got, /*accumulate=*/true);
    ExpectAllClose(want, got, "accumulating MatMulInto vs reference");
  }
}

TEST(GemmKernel, PackBRoundTrip) {
  const int64_t k = 7, n = detail::kGemmNR + 5;  // forces a padded panel
  Rng rng(501);
  Tensor b = Tensor::RandomNormal({k, n}, rng);
  std::vector<float> bp(
      static_cast<size_t>(detail::GemmPackedBCount(k, n)), -1.0f);
  detail::GemmPackB(b.data(), k, n, bp.data());
  const int64_t panels = (n + detail::kGemmNR - 1) / detail::kGemmNR;
  for (int64_t panel = 0; panel < panels; ++panel) {
    for (int64_t p = 0; p < k; ++p) {
      for (int64_t j = 0; j < detail::kGemmNR; ++j) {
        const int64_t col = panel * detail::kGemmNR + j;
        const float want = col < n ? b.data()[p * n + col] : 0.0f;
        ASSERT_EQ(bp[static_cast<size_t>((panel * k + p) * detail::kGemmNR +
                                         j)],
                  want)
            << "panel=" << panel << " p=" << p << " j=" << j;
      }
    }
  }
}

TEST(GemmKernel, PackTransposedIsExactTranspose) {
  const int64_t k = 37, m = 41;  // straddles the 32x32 transpose tile
  Rng rng(502);
  Tensor a = Tensor::RandomNormal({k, m}, rng);
  std::vector<float> at(static_cast<size_t>(k * m));
  detail::GemmPackTransposed(a.data(), k, m, at.data());
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      ASSERT_EQ(at[static_cast<size_t>(i * k + p)], a.data()[p * m + i]);
    }
  }
}

TEST(GemmKernel, TransposedAMatchesReference) {
  // MatMulTransposedA routes through the pack-transpose + blocked kernel
  // at blocked shapes; compare against the reference product on
  // materialized a^T.
  Rng rng(503);
  Tensor a = Tensor::RandomNormal({70, 45}, rng);  // (K,M)
  Tensor b = Tensor::RandomNormal({70, 33}, rng);  // (K,N)
  Tensor at({45, 70});
  for (int64_t p = 0; p < 70; ++p) {
    for (int64_t i = 0; i < 45; ++i) {
      at.data()[i * 70 + p] = a.data()[p * 45 + i];
    }
  }
  ExpectAllClose(ReferenceMatMul(at, b), MatMulTransposedA(a, b),
                 "MatMulTransposedA vs reference");
}

TEST(GemmKernel, BatchedSharedBMatchesReference) {
  Rng rng(504);
  Tensor a = Tensor::RandomNormal({3, 48, 32}, rng);
  Tensor b = Tensor::RandomNormal({32, 40}, rng);
  Tensor got = BatchedMatMul(a, b);
  for (int64_t bi = 0; bi < 3; ++bi) {
    Tensor ai({48, 32});
    for (int64_t i = 0; i < ai.numel(); ++i) {
      ai.flat(i) = a.data()[bi * 48 * 32 + i];
    }
    Tensor want = ReferenceMatMul(ai, b);
    for (int64_t i = 0; i < want.numel(); ++i) {
      ASSERT_NEAR(want.flat(i), got.data()[bi * 48 * 40 + i],
                  kAtol + kRtol * std::fabs(want.flat(i)))
          << "batch " << bi << " flat " << i;
    }
  }
}

// --- Conv2d im2col lowering vs the direct loop nest ----------------------

struct ConvCase {
  const char* name;
  Conv2dOptions options;
  int64_t in_channels, out_channels;
  Shape x_shape;
};

std::vector<ConvCase> ConvCases() {
  std::vector<ConvCase> cases;
  {
    ConvCase c{"3x3 pad1", {}, 5, 7, {2, 5, 9, 8}};
    c.options.kernel_h = 3;
    c.options.kernel_w = 3;
    c.options.pad_h = 1;
    c.options.pad_w = 1;
    cases.push_back(c);
  }
  {
    // DHGCN temporal shape: tall kernel, dilation and stride on the
    // time axis, joints untouched.
    ConvCase c{"9x1 dilated strided", {}, 4, 6, {2, 4, 20, 7}};
    c.options.kernel_h = 9;
    c.options.pad_h = 8;
    c.options.dilation_h = 2;
    c.options.stride_h = 2;
    cases.push_back(c);
  }
  {
    ConvCase c{"2x2 no pad, no bias", {}, 3, 4, {1, 3, 6, 5}};
    c.options.kernel_h = 2;
    c.options.kernel_w = 2;
    c.options.has_bias = false;
    cases.push_back(c);
  }
  return cases;
}

TEST(Conv2dIm2col, ForwardBackwardMatchDirect) {
  for (const ConvCase& cc : ConvCases()) {
    Rng rng(600);
    Conv2d conv(cc.in_channels, cc.out_channels, cc.options, rng);
    Tensor x = Tensor::RandomNormal(cc.x_shape, rng);

    Tensor out = conv.Forward(x);
    ExpectAllClose(oracles::Conv2dForward(conv, x), out, cc.name);
    Tensor g = Tensor::Ones(out.shape());
    conv.ZeroGrad();
    Tensor gi = conv.Backward(g);
    oracles::Conv2dGrads direct = oracles::Conv2dBackward(conv, x, g);
    ExpectAllClose(direct.input, gi, cc.name);
    ExpectAllClose(direct.weight, *conv.Params()[0].grad, cc.name);
    if (cc.options.has_bias) {
      ExpectAllClose(direct.bias, *conv.Params()[1].grad, cc.name);
    }
  }
}

TEST(Conv2dIm2col, GradcheckThroughIm2colLowering) {
  Conv2dOptions options;
  options.kernel_h = 3;
  options.kernel_w = 3;
  options.pad_h = 1;
  options.pad_w = 1;
  options.stride_h = 2;
  Rng rng(601);
  Conv2d conv(3, 5, options, rng);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 6}, rng);
  testing::ExpectGradientsMatch(conv, x);
}

// --- PairwiseDistances GEMM formulation ---------------------------------

TEST(PairwiseDistancesGemm, MatchesNaiveDifferences) {
  Rng rng(602);
  const int64_t v = 37, f = 11;
  Tensor features = Tensor::RandomNormal({v, f}, rng);
  Tensor dist = PairwiseDistances(features);
  const float* px = features.data();
  for (int64_t i = 0; i < v; ++i) {
    for (int64_t j = 0; j < v; ++j) {
      double acc = 0.0;
      for (int64_t c = 0; c < f; ++c) {
        const double d = static_cast<double>(px[i * f + c]) -
                         static_cast<double>(px[j * f + c]);
        acc += d * d;
      }
      const float want = static_cast<float>(std::sqrt(acc));
      EXPECT_NEAR(dist.data()[i * v + j], want, 1e-3f + 1e-3f * want)
          << "(" << i << ", " << j << ")";
    }
  }
}

TEST(PairwiseDistancesGemm, ExactlySymmetricWithZeroDiagonal) {
  Rng rng(603);
  const int64_t v = 50;
  Tensor features = Tensor::RandomNormal({v, 8}, rng);
  Tensor dist = PairwiseDistances(features);
  const float* pd = dist.data();
  for (int64_t i = 0; i < v; ++i) {
    EXPECT_EQ(pd[i * v + i], 0.0f) << "diagonal " << i;
    for (int64_t j = 0; j < i; ++j) {
      EXPECT_EQ(pd[i * v + j], pd[j * v + i])
          << "asymmetric at (" << i << ", " << j << ")";
    }
  }
}

// Near-duplicate rows exercise the max(., 0) clamp: cancellation in
// Gii + Gjj - 2 Gij can leave a tiny negative residual that would
// otherwise produce NaN under sqrt.
TEST(PairwiseDistancesGemm, NearDuplicateRowsStayFinite) {
  Rng rng(604);
  Tensor features = Tensor::RandomNormal({12, 16}, rng, 0.0f, 100.0f);
  for (int64_t c = 0; c < 16; ++c) {
    features.data()[1 * 16 + c] = features.data()[0 * 16 + c];
    features.data()[2 * 16 + c] =
        features.data()[0 * 16 + c] * (1.0f + 1e-7f);
  }
  Tensor dist = PairwiseDistances(features);
  for (int64_t i = 0; i < dist.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(dist.flat(i))) << "flat " << i;
    ASSERT_GE(dist.flat(i), 0.0f) << "flat " << i;
  }
}

}  // namespace
}  // namespace dhgcn

#include "tensor/tensor_ops.h"

#include <limits>
#include <tuple>

#include "gtest/gtest.h"

#include "base/rng.h"

namespace dhgcn {
namespace {

// --- Broadcasting shape algebra ---------------------------------------------

TEST(BroadcastTest, EqualShapes) {
  EXPECT_TRUE(CanBroadcast({2, 3}, {2, 3}));
  EXPECT_EQ(BroadcastShapes({2, 3}, {2, 3}), (Shape{2, 3}));
}

TEST(BroadcastTest, ScalarAgainstAnything) {
  EXPECT_TRUE(CanBroadcast({}, {4, 5}));
  EXPECT_EQ(BroadcastShapes({}, {4, 5}), (Shape{4, 5}));
}

TEST(BroadcastTest, OnesExpand) {
  EXPECT_EQ(BroadcastShapes({4, 1}, {1, 5}), (Shape{4, 5}));
  EXPECT_EQ(BroadcastShapes({3, 1, 2}, {7, 2}), (Shape{3, 7, 2}));
}

TEST(BroadcastTest, IncompatibleShapes) {
  EXPECT_FALSE(CanBroadcast({2, 3}, {2, 4}));
  EXPECT_FALSE(CanBroadcast({5}, {4}));
}

struct BroadcastCase {
  Shape a;
  Shape b;
  Shape expected;
};

class BroadcastShapesParamTest
    : public ::testing::TestWithParam<BroadcastCase> {};

TEST_P(BroadcastShapesParamTest, ComputesExpected) {
  const BroadcastCase& c = GetParam();
  ASSERT_TRUE(CanBroadcast(c.a, c.b));
  EXPECT_EQ(BroadcastShapes(c.a, c.b), c.expected);
  EXPECT_EQ(BroadcastShapes(c.b, c.a), c.expected);  // symmetry
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastShapesParamTest,
    ::testing::Values(BroadcastCase{{1}, {3}, {3}},
                      BroadcastCase{{2, 1, 4}, {3, 1}, {2, 3, 4}},
                      BroadcastCase{{1, 1}, {6, 6}, {6, 6}},
                      BroadcastCase{{2, 3, 4}, {4}, {2, 3, 4}},
                      BroadcastCase{{5, 1, 1}, {1, 2, 3}, {5, 2, 3}}));

// --- Elementwise ops --------------------------------------------------------

TEST(ElementwiseTest, AddSameShape) {
  Tensor a = Tensor::FromList({1, 2, 3});
  Tensor b = Tensor::FromList({10, 20, 30});
  Tensor c = Add(a, b);
  EXPECT_FLOAT_EQ(c.flat(0), 11.0f);
  EXPECT_FLOAT_EQ(c.flat(2), 33.0f);
}

TEST(ElementwiseTest, AddBroadcastRowVector) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor row = Tensor::FromList({10, 20, 30});
  Tensor c = Add(a, row);
  EXPECT_FLOAT_EQ(c.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(c.at(1, 2), 36.0f);
}

TEST(ElementwiseTest, MulBroadcastColumnVector) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor col = Tensor::FromVector({2, 1}, {2, 3});
  Tensor c = Mul(a, col);
  EXPECT_FLOAT_EQ(c.at(0, 2), 6.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 12.0f);
}

TEST(ElementwiseTest, SubSameShape) {
  Tensor a = Tensor::FromList({4, 9});
  Tensor b = Tensor::FromList({2, 3});
  EXPECT_FLOAT_EQ(Sub(a, b).flat(1), 6.0f);
}

TEST(ElementwiseTest, ScalarBroadcastBothWays) {
  Tensor a = Tensor::FromList({1, 2});
  Tensor s = Tensor::Scalar(10.0f);
  EXPECT_FLOAT_EQ(Add(a, s).flat(1), 12.0f);
  EXPECT_FLOAT_EQ(Add(s, a).flat(1), 12.0f);
  EXPECT_FLOAT_EQ(Sub(s, a).flat(0), 9.0f);
}

TEST(ElementwiseTest, InPlaceVariants) {
  Tensor a = Tensor::FromList({1, 2, 3});
  Tensor b = Tensor::Ones({3});
  AddInPlace(a, b);
  EXPECT_FLOAT_EQ(a.flat(0), 2.0f);
  MulScalarInPlace(a, 2.0f);
  EXPECT_FLOAT_EQ(a.flat(0), 4.0f);
}

TEST(ElementwiseTest, ScalarHelpers) {
  Tensor a = Tensor::FromList({1, -2});
  EXPECT_FLOAT_EQ(AddScalar(a, 5.0f).flat(1), 3.0f);
  EXPECT_FLOAT_EQ(MulScalar(a, -1.0f).flat(0), -1.0f);
}

TEST(UnaryTest, MathFunctions) {
  Tensor a = Tensor::FromList({1.0f, 4.0f});
  EXPECT_FLOAT_EQ(Exp(Tensor::Scalar(0.0f)).flat(0), 1.0f);
  EXPECT_FLOAT_EQ(Neg(a).flat(0), -1.0f);
  EXPECT_FLOAT_EQ(Abs(Tensor::FromList({-3})).flat(0), 3.0f);
}

// --- Reductions ---------------------------------------------------------------

TEST(ReduceTest, SumAllMaxAll) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(SumAll(a), 10.0f);
  EXPECT_FLOAT_EQ(MaxAll(a), 4.0f);
}

TEST(ReduceTest, ReduceSumAxis0) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s = ReduceSum(a, 0);
  EXPECT_EQ(s.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(s.flat(0), 5.0f);
  EXPECT_FLOAT_EQ(s.flat(2), 9.0f);
}

TEST(ReduceTest, ReduceSumAxis1KeepDim) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s = ReduceSum(a, 1, /*keepdim=*/true);
  EXPECT_EQ(s.shape(), (Shape{2, 1}));
  EXPECT_FLOAT_EQ(s.flat(0), 6.0f);
  EXPECT_FLOAT_EQ(s.flat(1), 15.0f);
}

TEST(ReduceTest, ReduceMeanMiddleAxis) {
  Tensor a = Tensor::FromVector({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor m = ReduceMean(a, 1);
  EXPECT_EQ(m.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(m.at(0, 0), 2.0f);  // (1+3)/2
  EXPECT_FLOAT_EQ(m.at(1, 1), 7.0f);  // (6+8)/2
}

TEST(ReduceTest, ReduceSumNegativeAxis) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 9, 3, 4, 5, 6});
  Tensor s = ReduceSum(a, -1);
  EXPECT_FLOAT_EQ(s.flat(0), 13.0f);
  EXPECT_FLOAT_EQ(s.flat(1), 15.0f);
}

TEST(ReduceTest, ArgMaxBreaksTiesLow) {
  Tensor a = Tensor::FromVector({2, 3}, {5, 5, 1, 0, 7, 7});
  Tensor idx = ArgMax(a, 1);
  EXPECT_FLOAT_EQ(idx.flat(0), 0.0f);
  EXPECT_FLOAT_EQ(idx.flat(1), 1.0f);
}

// --- Softmax / LogSoftmax -----------------------------------------------------

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(11);
  Tensor a = Tensor::RandomNormal({4, 7}, rng, 0.0f, 3.0f);
  Tensor p = Softmax(a, 1);
  for (int64_t i = 0; i < 4; ++i) {
    double sum = 0.0;
    for (int64_t j = 0; j < 7; ++j) {
      float v = p.at(i, j);
      EXPECT_GT(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(SoftmaxTest, InvariantToShift) {
  Tensor a = Tensor::FromList({1, 2, 3});
  Tensor b = AddScalar(a, 100.0f);
  EXPECT_TRUE(AllClose(Softmax(a, 0), Softmax(b, 0), 1e-5f, 1e-6f));
}

TEST(SoftmaxTest, StableForLargeLogits) {
  Tensor a = Tensor::FromList({1000.0f, 1001.0f});
  Tensor p = Softmax(a, 0);
  EXPECT_FALSE(HasNonFinite(p));
  EXPECT_NEAR(p.flat(0) + p.flat(1), 1.0f, 1e-5f);
  EXPECT_GT(p.flat(1), p.flat(0));
}

TEST(SoftmaxTest, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(12);
  Tensor a = Tensor::RandomNormal({3, 5}, rng);
  Tensor lp = LogSoftmax(a, 1);
  Tensor p = Softmax(a, 1);
  EXPECT_TRUE(AllClose(Exp(lp), p, 1e-4f, 1e-5f));
}

TEST(SoftmaxTest, AlongMiddleAxis) {
  Rng rng(13);
  Tensor a = Tensor::RandomNormal({2, 4, 3}, rng);
  Tensor p = Softmax(a, 1);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t k = 0; k < 3; ++k) {
      double sum = 0.0;
      for (int64_t j = 0; j < 4; ++j) sum += p.at(i, j, k);
      EXPECT_NEAR(sum, 1.0, 1e-5);
    }
  }
}

// --- Layout ops ---------------------------------------------------------------

TEST(PermuteTest, TwoDTranspose) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose2D(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(t.at(0, 1), 4.0f);
  EXPECT_FLOAT_EQ(t.at(2, 0), 3.0f);
}

TEST(PermuteTest, ThreeDPermutation) {
  Tensor a = Tensor::Arange(24).Reshape({2, 3, 4});
  Tensor p = Permute(a, {2, 0, 1});
  EXPECT_EQ(p.shape(), (Shape{4, 2, 3}));
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      for (int64_t k = 0; k < 4; ++k) {
        EXPECT_FLOAT_EQ(p.at(k, i, j), a.at(i, j, k));
      }
    }
  }
}

TEST(PermuteTest, IdentityPermutation) {
  Tensor a = Tensor::Arange(6).Reshape({2, 3});
  Tensor p = Permute(a, {0, 1});
  EXPECT_TRUE(AllClose(p, a));
}

TEST(PermuteTest, DoublePermuteIsIdentity) {
  Rng rng(14);
  Tensor a = Tensor::RandomNormal({2, 3, 4, 5}, rng);
  Tensor p = Permute(Permute(a, {3, 1, 0, 2}), {2, 1, 3, 0});
  EXPECT_TRUE(AllClose(p, a));
}

TEST(ConcatTest, AlongAxis0) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2});
  Tensor b = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  Tensor c = Concat({a, b}, 0);
  EXPECT_EQ(c.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(c.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(c.at(2, 1), 6.0f);
}

TEST(ConcatTest, AlongAxis1) {
  Tensor a = Tensor::FromVector({2, 1}, {1, 2});
  Tensor b = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  Tensor c = Concat({a, b}, 1);
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(c.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(c.at(1, 2), 6.0f);
}

TEST(SliceTest, MiddleOfAxis) {
  Tensor a = Tensor::Arange(24).Reshape({2, 3, 4});
  Tensor s = Slice(a, 1, 1, 2);
  EXPECT_EQ(s.shape(), (Shape{2, 2, 4}));
  EXPECT_FLOAT_EQ(s.at(0, 0, 0), a.at(0, 1, 0));
  EXPECT_FLOAT_EQ(s.at(1, 1, 3), a.at(1, 2, 3));
}

TEST(SliceTest, SliceThenConcatRestores) {
  Tensor a = Tensor::Arange(12).Reshape({3, 4});
  Tensor left = Slice(a, 1, 0, 2);
  Tensor right = Slice(a, 1, 2, 2);
  EXPECT_TRUE(AllClose(Concat({left, right}, 1), a));
}

TEST(StackTest, AddsLeadingAxis) {
  Tensor a = Tensor::FromList({1, 2});
  Tensor b = Tensor::FromList({3, 4});
  Tensor s = Stack({a, b});
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(s.at(1, 0), 3.0f);
}

TEST(BroadcastToTest, ExpandsAndCopies) {
  Tensor a = Tensor::FromVector({1, 3}, {1, 2, 3});
  Tensor big = BroadcastTo(a, {4, 3});
  EXPECT_EQ(big.shape(), (Shape{4, 3}));
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(big.at(i, 1), 2.0f);
}

TEST(ReduceToShapeTest, IsAdjointOfBroadcast) {
  // <BroadcastTo(a, S), g> == <a, ReduceToShape(g, shape(a))> for all g.
  Rng rng(15);
  Tensor a = Tensor::RandomNormal({3, 1}, rng);
  Shape target = {2, 3, 4};
  Tensor g = Tensor::RandomNormal(target, rng);
  float lhs = Dot(BroadcastTo(a, target), g);
  float rhs = Dot(a, ReduceToShape(g, a.shape()));
  EXPECT_NEAR(lhs, rhs, 1e-3f);
}

TEST(ReduceToShapeTest, NoOpWhenShapesMatch) {
  Rng rng(16);
  Tensor g = Tensor::RandomNormal({2, 3}, rng);
  EXPECT_TRUE(AllClose(ReduceToShape(g, {2, 3}), g));
}

// --- Scalar queries -------------------------------------------------------------

TEST(QueriesTest, AllCloseToleratesSmallError) {
  Tensor a = Tensor::FromList({1.0f, 2.0f});
  Tensor b = Tensor::FromList({1.0f + 1e-7f, 2.0f});
  EXPECT_TRUE(AllClose(a, b));
  Tensor c = Tensor::FromList({1.1f, 2.0f});
  EXPECT_FALSE(AllClose(a, c));
}

TEST(QueriesTest, AllCloseRejectsShapeMismatch) {
  EXPECT_FALSE(AllClose(Tensor::Ones({2}), Tensor::Ones({3})));
}

TEST(QueriesTest, HasNonFinite) {
  Tensor ok = Tensor::Ones({3});
  EXPECT_FALSE(HasNonFinite(ok));
  Tensor bad = Tensor::Ones({3});
  bad.flat(1) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(HasNonFinite(bad));
  Tensor inf = Tensor::Ones({3});
  inf.flat(2) = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(HasNonFinite(inf));
}

TEST(QueriesTest, NormAndDot) {
  Tensor a = Tensor::FromList({3, 4});
  EXPECT_FLOAT_EQ(Norm2(a), 5.0f);
  Tensor b = Tensor::FromList({1, 2});
  EXPECT_FLOAT_EQ(Dot(a, b), 11.0f);
}

}  // namespace
}  // namespace dhgcn

#include "tensor/linalg.h"

#include "gtest/gtest.h"

#include "base/rng.h"
#include "tensor/tensor_ops.h"

namespace dhgcn {
namespace {

// Naive triple-loop reference used to validate the optimized kernels.
Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
      }
      out.at(i, j) = static_cast<float>(acc);
    }
  }
  return out;
}

TEST(MatMulTest, SmallKnownValues) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(MatMulTest, IdentityIsNeutral) {
  Rng rng(20);
  Tensor a = Tensor::RandomNormal({5, 5}, rng);
  EXPECT_TRUE(AllClose(MatMul(a, Tensor::Eye(5)), a, 1e-5f, 1e-6f));
  EXPECT_TRUE(AllClose(MatMul(Tensor::Eye(5), a), a, 1e-5f, 1e-6f));
}

TEST(MatMulTest, MatchesNaiveOnRandom) {
  Rng rng(21);
  Tensor a = Tensor::RandomNormal({7, 11}, rng);
  Tensor b = Tensor::RandomNormal({11, 5}, rng);
  EXPECT_TRUE(AllClose(MatMul(a, b), NaiveMatMul(a, b), 1e-4f, 1e-5f));
}

TEST(MatMulTest, SkipsZerosCorrectly) {
  // The kernel short-circuits zero entries of A; results must still match.
  Rng rng(22);
  Tensor a = Tensor::RandomNormal({6, 6}, rng);
  for (int64_t i = 0; i < a.numel(); i += 2) a.flat(i) = 0.0f;
  Tensor b = Tensor::RandomNormal({6, 4}, rng);
  EXPECT_TRUE(AllClose(MatMul(a, b), NaiveMatMul(a, b), 1e-4f, 1e-5f));
}

TEST(MatMulDeathTest, InnerDimensionMismatch) {
  Tensor a({2, 3});
  Tensor b({4, 2});
  EXPECT_DEATH(MatMul(a, b), "DHGCN_CHECK");
}

TEST(MatMulTransposedTest, TransposedAMatchesExplicit) {
  Rng rng(23);
  Tensor a = Tensor::RandomNormal({9, 4}, rng);  // (K, M)
  Tensor b = Tensor::RandomNormal({9, 6}, rng);  // (K, N)
  Tensor expected = MatMul(Transpose2D(a), b);
  EXPECT_TRUE(AllClose(MatMulTransposedA(a, b), expected, 1e-4f, 1e-5f));
}

TEST(MatMulTransposedTest, TransposedBMatchesExplicit) {
  Rng rng(24);
  Tensor a = Tensor::RandomNormal({4, 9}, rng);  // (M, K)
  Tensor b = Tensor::RandomNormal({6, 9}, rng);  // (N, K)
  Tensor expected = MatMul(a, Transpose2D(b));
  EXPECT_TRUE(AllClose(MatMulTransposedB(a, b), expected, 1e-4f, 1e-5f));
}

TEST(MatMulPropertyTest, Associativity) {
  Rng rng(27);
  Tensor a = Tensor::RandomNormal({3, 4}, rng);
  Tensor b = Tensor::RandomNormal({4, 5}, rng);
  Tensor c = Tensor::RandomNormal({5, 2}, rng);
  Tensor left = MatMul(MatMul(a, b), c);
  Tensor right = MatMul(a, MatMul(b, c));
  EXPECT_TRUE(AllClose(left, right, 1e-3f, 1e-4f));
}

TEST(MatMulPropertyTest, DistributesOverAddition) {
  Rng rng(28);
  Tensor a = Tensor::RandomNormal({3, 4}, rng);
  Tensor b1 = Tensor::RandomNormal({4, 5}, rng);
  Tensor b2 = Tensor::RandomNormal({4, 5}, rng);
  Tensor lhs = MatMul(a, Add(b1, b2));
  Tensor rhs = Add(MatMul(a, b1), MatMul(a, b2));
  EXPECT_TRUE(AllClose(lhs, rhs, 1e-3f, 1e-4f));
}

}  // namespace
}  // namespace dhgcn

// Parameterized property tests: algebraic invariants checked across
// swept shapes/sizes rather than single examples.

#include <cstring>
#include <sstream>
#include <tuple>

#include "gtest/gtest.h"

#include "base/rng.h"
#include "core/dynamic_joint_weight.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/hypergraph_conv.h"
#include "hypergraph/kmeans.h"
#include "hypergraph/knn.h"
#include "io/serialization.h"
#include "nn/conv2d.h"
#include "tensor/linalg.h"
#include "tensor/sparse.h"
#include "tensor/tensor_ops.h"
#include "tests/oracles.h"

namespace dhgcn {
namespace {

// --- Broadcast algebra over shape pairs ---------------------------------------

using ShapePair = std::tuple<Shape, Shape>;

class BroadcastAlgebraTest : public ::testing::TestWithParam<ShapePair> {};

TEST_P(BroadcastAlgebraTest, AddAndMulAreCommutative) {
  auto [sa, sb] = GetParam();
  Rng rng(1);
  Tensor a = Tensor::RandomNormal(sa, rng);
  Tensor b = Tensor::RandomNormal(sb, rng);
  EXPECT_TRUE(AllClose(Add(a, b), Add(b, a), 1e-6f, 1e-7f));
  EXPECT_TRUE(AllClose(Mul(a, b), Mul(b, a), 1e-6f, 1e-7f));
}

TEST_P(BroadcastAlgebraTest, SubIsAntiCommutative) {
  auto [sa, sb] = GetParam();
  Rng rng(2);
  Tensor a = Tensor::RandomNormal(sa, rng);
  Tensor b = Tensor::RandomNormal(sb, rng);
  EXPECT_TRUE(AllClose(Sub(a, b), Neg(Sub(b, a)), 1e-6f, 1e-7f));
}

TEST_P(BroadcastAlgebraTest, MulDistributesOverAdd) {
  auto [sa, sb] = GetParam();
  Rng rng(3);
  Tensor a = Tensor::RandomNormal(sa, rng);
  Tensor b = Tensor::RandomNormal(sb, rng);
  Tensor c = Tensor::RandomNormal(sb, rng);
  Tensor lhs = Mul(a, Add(b, c));
  Tensor rhs = Add(Mul(a, b), Mul(a, c));
  EXPECT_TRUE(AllClose(lhs, rhs, 1e-4f, 1e-5f));
}

TEST_P(BroadcastAlgebraTest, ReduceToShapeIsBroadcastAdjoint) {
  auto [sa, sb] = GetParam();
  Rng rng(4);
  Tensor a = Tensor::RandomNormal(sa, rng);
  Shape target = BroadcastShapes(sa, sb);
  Tensor g = Tensor::RandomNormal(target, rng);
  float lhs = Dot(BroadcastTo(a, target), g);
  float rhs = Dot(a, ReduceToShape(g, sa));
  EXPECT_NEAR(lhs, rhs, 2e-3f * (1.0f + std::fabs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(
    ShapePairs, BroadcastAlgebraTest,
    ::testing::Values(ShapePair{{4}, {4}}, ShapePair{{1}, {5}},
                      ShapePair{{3, 1}, {1, 4}},
                      ShapePair{{2, 3, 4}, {3, 4}},
                      ShapePair{{2, 1, 4}, {2, 5, 1}},
                      ShapePair{{}, {2, 2}}));

// --- Softmax along every axis ----------------------------------------------------

class SoftmaxAxisTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(SoftmaxAxisTest, SlicesSumToOne) {
  int64_t axis = GetParam();
  Rng rng(5);
  Tensor x = Tensor::RandomNormal({3, 4, 5}, rng, 0.0f, 4.0f);
  Tensor p = Softmax(x, axis);
  Tensor sums = ReduceSum(p, axis);
  for (int64_t i = 0; i < sums.numel(); ++i) {
    EXPECT_NEAR(sums.flat(i), 1.0f, 1e-5f);
  }
}

TEST_P(SoftmaxAxisTest, LogSoftmaxIsLogOfSoftmax) {
  int64_t axis = GetParam();
  Rng rng(6);
  Tensor x = Tensor::RandomNormal({3, 4, 5}, rng);
  EXPECT_TRUE(
      AllClose(Exp(LogSoftmax(x, axis)), Softmax(x, axis), 1e-4f, 1e-5f));
}

INSTANTIATE_TEST_SUITE_P(Axes, SoftmaxAxisTest,
                         ::testing::Values(0, 1, 2, -1));

// --- K-means invariants over (V, k) -----------------------------------------------

using VkParam = std::tuple<int64_t, int64_t>;

class KMeansSweepTest : public ::testing::TestWithParam<VkParam> {};

TEST_P(KMeansSweepTest, DisjointCoverWithKClusters) {
  auto [v, k] = GetParam();
  Rng data_rng(7);
  Tensor features = Tensor::RandomNormal({v, 3}, data_rng);
  Rng rng(8);
  KMeansResult result = KMeansClusters(features, k, rng);
  ASSERT_EQ(static_cast<int64_t>(result.clusters.size()), k);
  std::vector<int64_t> seen(static_cast<size_t>(v), 0);
  for (const Hyperedge& cluster : result.clusters) {
    EXPECT_FALSE(cluster.empty());
    for (int64_t vertex : cluster) ++seen[static_cast<size_t>(vertex)];
  }
  for (int64_t count : seen) EXPECT_EQ(count, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, KMeansSweepTest,
    ::testing::Values(VkParam{5, 1}, VkParam{5, 5}, VkParam{18, 4},
                      VkParam{25, 3}, VkParam{25, 4}, VkParam{25, 5},
                      VkParam{40, 8}));

// --- K-NN invariants over k ---------------------------------------------------------

class KnnSweepTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(KnnSweepTest, EveryEdgeAnchoredWithKDistinctVertices) {
  int64_t k = GetParam();
  Rng rng(9);
  Tensor features = Tensor::RandomNormal({25, 3}, rng);
  std::vector<Hyperedge> edges = KnnHyperedges(features, k);
  ASSERT_EQ(edges.size(), 25u);
  Tensor dist = PairwiseDistances(features);
  for (int64_t i = 0; i < 25; ++i) {
    const Hyperedge& e = edges[static_cast<size_t>(i)];
    ASSERT_EQ(static_cast<int64_t>(e.size()), k);
    EXPECT_EQ(e[0], i);
    // Every member is at most as far as any non-member.
    float worst_member = 0.0f;
    for (int64_t m : e) {
      if (m != i) worst_member = std::max(worst_member, dist.at(i, m));
    }
    for (int64_t u = 0; u < 25; ++u) {
      bool is_member = std::find(e.begin(), e.end(), u) != e.end();
      if (!is_member) {
        EXPECT_GE(dist.at(i, u), worst_member - 1e-6f);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KnnSweepTest, ::testing::Values(2, 3, 4, 6));

// --- Hypergraph operator PSD over random topologies ----------------------------------

class RandomHypergraphTest : public ::testing::TestWithParam<uint64_t> {};

Hypergraph RandomHypergraph(uint64_t seed) {
  Rng rng(seed);
  int64_t v = rng.UniformInt(5, 20);
  int64_t ne = rng.UniformInt(2, 8);
  std::vector<Hyperedge> edges;
  for (int64_t e = 0; e < ne; ++e) {
    int64_t size = rng.UniformInt(2, std::min<int64_t>(v, 6));
    edges.push_back(rng.SampleWithoutReplacement(v, size));
  }
  return Hypergraph(v, std::move(edges));
}

TEST_P(RandomHypergraphTest, OperatorSymmetricPsdBoundedSpectrum) {
  Hypergraph h = RandomHypergraph(GetParam());
  Tensor op = NormalizedHypergraphOperator(h);
  int64_t v = h.num_vertices();
  EXPECT_TRUE(AllClose(op, Transpose2D(op), 1e-5f, 1e-6f));
  Rng rng(GetParam() + 1);
  for (int trial = 0; trial < 8; ++trial) {
    Tensor x = Tensor::RandomNormal({v, 1}, rng);
    float quad = MatMul(Transpose2D(x), MatMul(op, x)).flat(0);
    EXPECT_GE(quad, -1e-4f);
    // Rayleigh quotient bounded by 1 (normalized operator).
    float norm_sq = Dot(x, x);
    EXPECT_LE(quad, norm_sq * (1.0f + 1e-4f));
  }
}

TEST_P(RandomHypergraphTest, VertexMixMatchesDenseAggregation) {
  Hypergraph h = RandomHypergraph(GetParam() + 200);
  Tensor op = NormalizedHypergraphOperator(h);
  VertexMix mix(op);
  Rng rng(GetParam() + 3);
  Tensor x = Tensor::RandomNormal({2, 2, 3, h.num_vertices()}, rng);
  Tensor expected = oracles::VertexMixForward(op, x);
  Tensor actual = mix.Forward(x);
  EXPECT_EQ(std::memcmp(expected.data(), actual.data(),
                        sizeof(float) * expected.numel()),
            0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomHypergraphTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// --- Joint-weight operators: stride / conv output consistency -------------------------

using StrideParam = std::tuple<int64_t, int64_t>;

class StrideConsistencyTest : public ::testing::TestWithParam<StrideParam> {
};

TEST_P(StrideConsistencyTest, OperatorStrideMatchesConvOutput) {
  auto [t, stride] = GetParam();
  Tensor ops({1, t, 2, 2});
  Tensor strided = StrideOperatorsInTime(ops, stride);
  int64_t conv_out =
      Conv2d::OutputDim(t, /*kernel=*/3, stride, /*pad=*/1, /*dilation=*/1);
  EXPECT_EQ(strided.dim(1), conv_out) << "T=" << t << " s=" << stride;
}

INSTANTIATE_TEST_SUITE_P(Geometries, StrideConsistencyTest,
                         ::testing::Values(StrideParam{8, 1},
                                           StrideParam{8, 2},
                                           StrideParam{9, 2},
                                           StrideParam{15, 2},
                                           StrideParam{16, 4},
                                           StrideParam{7, 3}));

// --- Serialization round-trips over shapes ---------------------------------------------

class TensorIoSweepTest : public ::testing::TestWithParam<Shape> {};

TEST_P(TensorIoSweepTest, RoundTripExact) {
  Rng rng(10);
  Tensor original = Tensor::RandomNormal(GetParam(), rng);
  std::stringstream stream;
  ASSERT_TRUE(WriteTensor(stream, original).ok());
  Result<Tensor> loaded = ReadTensor(stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->shape(), original.shape());
  EXPECT_TRUE(AllClose(*loaded, original, 0.0f, 0.0f));
}

INSTANTIATE_TEST_SUITE_P(Shapes, TensorIoSweepTest,
                         ::testing::Values(Shape{}, Shape{1}, Shape{7},
                                           Shape{3, 4}, Shape{2, 3, 4},
                                           Shape{1, 1, 1, 1},
                                           Shape{2, 3, 4, 5}));

// --- GEMM transpose identities over sizes ------------------------------------------------

using GemmParam = std::tuple<int64_t, int64_t, int64_t>;

class GemmSweepTest : public ::testing::TestWithParam<GemmParam> {};

TEST_P(GemmSweepTest, TransposeVariantsAgree) {
  auto [m, k, n] = GetParam();
  Rng rng(11);
  Tensor a = Tensor::RandomNormal({m, k}, rng);
  Tensor b = Tensor::RandomNormal({k, n}, rng);
  Tensor reference = MatMul(a, b);
  EXPECT_TRUE(AllClose(MatMulTransposedA(Transpose2D(a), b), reference,
                       1e-4f, 1e-5f));
  EXPECT_TRUE(AllClose(MatMulTransposedB(a, Transpose2D(b)), reference,
                       1e-4f, 1e-5f));
}

INSTANTIATE_TEST_SUITE_P(Sizes, GemmSweepTest,
                         ::testing::Values(GemmParam{1, 1, 1},
                                           GemmParam{1, 8, 3},
                                           GemmParam{5, 1, 5},
                                           GemmParam{7, 11, 3},
                                           GemmParam{16, 16, 16}));

// --- CSR invariants over randomized densities -----------------------------------------

Tensor RandomAtDensity(const Shape& shape, double density, Rng& rng) {
  Tensor t = Tensor::RandomNormal(shape, rng);
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (rng.Uniform() >= static_cast<float>(density)) t.flat(i) = 0.0f;
  }
  return t;
}

class CsrSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(CsrSweepTest, AssignFromDenseRoundTripIsExact) {
  double density = GetParam();
  Rng rng(12);
  Tensor dense = RandomAtDensity({13, 19}, density, rng);
  CsrMatrix csr(1, 1);
  csr.AssignFromDense(dense);
  Tensor back = oracles::CsrToDense(csr);
  ASSERT_EQ(back.shape(), dense.shape());
  EXPECT_EQ(std::memcmp(back.data(), dense.data(),
                        sizeof(float) * dense.numel()),
            0);
  // Structural invariants: ascending columns per row, no stored zeros.
  for (int64_t r = 0; r < csr.rows(); ++r) {
    for (int64_t i = csr.row_ptr()[r]; i < csr.row_ptr()[r + 1]; ++i) {
      if (i > csr.row_ptr()[r]) {
        EXPECT_LT(csr.col_idx()[i - 1], csr.col_idx()[i]);
      }
      EXPECT_NE(csr.values()[i], 0.0f);
    }
  }
}

TEST_P(CsrSweepTest, AssignFromDenseReuseMatchesFreshBuild) {
  double density = GetParam();
  Rng rng(13);
  CsrMatrix reused(1, 1);
  // Two rebuilds with different patterns: capacity reuse must not leak
  // state from the previous build.
  for (uint64_t round = 0; round < 2; ++round) {
    Tensor dense = RandomAtDensity({11, 17}, density, rng);
    reused.AssignFromDense(dense);
    CsrMatrix fresh(1, 1);
    fresh.AssignFromDense(dense);
    EXPECT_EQ(reused.row_ptr(), fresh.row_ptr());
    EXPECT_EQ(reused.col_idx(), fresh.col_idx());
    EXPECT_EQ(reused.values(), fresh.values());
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, CsrSweepTest,
                         ::testing::Values(0.0, 0.05, 0.3, 0.7, 1.0));

TEST(CsrEdgeCases, AllZeroAndEmptyRowOperands) {
  Rng rng(16);
  Tensor a = Tensor::RandomNormal({3, 6}, rng);
  Tensor zero({5, 6});
  zero.Fill(0.0f);
  CsrMatrix csr(1, 1);
  csr.AssignFromDense(zero);
  EXPECT_EQ(csr.nnz(), 0);
  Tensor y({3, 5});
  SpMMTransposedBInto(a, csr, &y);
  for (int64_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y.flat(i), 0.0f);

  // A matrix whose middle rows are empty must still produce exact rows.
  Tensor gappy({4, 6});
  gappy.Fill(0.0f);
  gappy.at(0, 1) = 2.0f;
  gappy.at(3, 5) = -3.0f;
  CsrMatrix gappy_csr(1, 1);
  gappy_csr.AssignFromDense(gappy);
  Tensor out({3, 4});
  SpMMTransposedBInto(a, gappy_csr, &out);
  EXPECT_TRUE(AllClose(out, MatMulTransposedB(a, gappy), 0.0f, 0.0f));
}

TEST(CsrEdgeCases, OneByOne) {
  Tensor unit({1, 1});
  unit.at(0, 0) = 3.0f;
  CsrMatrix csr(1, 1);
  csr.AssignFromDense(unit);
  EXPECT_EQ(csr.nnz(), 1);
  Tensor a({1, 1});
  a.at(0, 0) = -2.0f;
  Tensor y({1, 1});
  SpMMTransposedBInto(a, csr, &y);
  EXPECT_EQ(y.at(0, 0), -6.0f);
}

}  // namespace
}  // namespace dhgcn

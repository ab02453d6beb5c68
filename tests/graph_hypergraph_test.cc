#include <cmath>

#include "gtest/gtest.h"

#include "base/rng.h"
#include "hypergraph/graph.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/hypergraph_conv.h"
#include "tensor/linalg.h"
#include "tensor/tensor_ops.h"

namespace dhgcn {
namespace {

Graph PathGraph(int64_t n) {
  std::vector<std::pair<int64_t, int64_t>> edges;
  for (int64_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Graph(n, std::move(edges));
}

// --- Graph --------------------------------------------------------------------

TEST(GraphTest, AdjacencyIsSymmetricBinary) {
  Graph g = PathGraph(4);
  Tensor a = g.AdjacencyMatrix();
  EXPECT_EQ(a.shape(), (Shape{4, 4}));
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(a.at(i, i), 0.0f);
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(a.at(i, j), a.at(j, i));
      EXPECT_TRUE(a.at(i, j) == 0.0f || a.at(i, j) == 1.0f);
    }
  }
  EXPECT_FLOAT_EQ(a.at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(a.at(0, 2), 0.0f);
}

TEST(GraphTest, NormalizedAdjacencyKnownValues) {
  // Two nodes, one edge: A+I = all-ones; degrees 2; normalized = 0.5.
  Graph g(2, {{0, 1}});
  Tensor norm = g.NormalizedAdjacency();
  for (int64_t i = 0; i < 4; ++i) EXPECT_NEAR(norm.flat(i), 0.5f, 1e-6f);
}

TEST(GraphTest, NormalizedAdjacencyIsSymmetric) {
  Graph g = PathGraph(6);
  Tensor norm = g.NormalizedAdjacency();
  EXPECT_TRUE(AllClose(norm, Transpose2D(norm), 1e-6f, 1e-7f));
}

TEST(GraphTest, NormalizedAdjacencySpectralRadiusAtMostOne) {
  // D^{-1/2}(A+I)D^{-1/2} has eigenvalues in [-1, 1]; power iteration on a
  // random vector must not blow up.
  Graph g = PathGraph(8);
  Tensor norm = g.NormalizedAdjacency();
  Rng rng(40);
  Tensor x = Tensor::RandomNormal({8, 1}, rng);
  for (int iter = 0; iter < 30; ++iter) {
    x = MatMul(norm, x);
    float n = Norm2(x);
    ASSERT_GT(n, 0.0f);
    MulScalarInPlace(x, 1.0f / n);
  }
  Tensor y = MatMul(norm, x);
  EXPECT_LE(Norm2(y), 1.0f + 1e-4f);
}

TEST(GraphTest, DegreesCountSelfLoop) {
  Graph g = PathGraph(3);
  std::vector<int64_t> deg = g.Degrees();
  EXPECT_EQ(deg[0], 2);  // self + 1 neighbor
  EXPECT_EQ(deg[1], 3);
  EXPECT_EQ(deg[2], 2);
}

TEST(GraphTest, MakeRejectsBadEdges) {
  auto r1 = Graph::Make(3, {{0, 5}});
  EXPECT_FALSE(r1.ok());
  EXPECT_TRUE(r1.status().IsInvalidArgument());
  auto r2 = Graph::Make(0, {});
  EXPECT_FALSE(r2.ok());
  auto r3 = Graph::Make(3, {{0, 1}, {1, 2}});
  EXPECT_TRUE(r3.ok());
}

// --- Hypergraph -----------------------------------------------------------------

Hypergraph SmallHypergraph() {
  // 5 vertices, 3 hyperedges.
  return Hypergraph(5, {{0, 1, 2}, {2, 3}, {3, 4, 0}});
}

TEST(HypergraphTest, IncidenceMatrix) {
  Hypergraph h = SmallHypergraph();
  Tensor inc = h.IncidenceMatrix();
  EXPECT_EQ(inc.shape(), (Shape{5, 3}));
  EXPECT_FLOAT_EQ(inc.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(inc.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(inc.at(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(inc.at(2, 0), 1.0f);
  EXPECT_FLOAT_EQ(inc.at(2, 1), 1.0f);
  EXPECT_FLOAT_EQ(inc.at(4, 2), 1.0f);
}

TEST(HypergraphTest, VertexDegreesFollowEq3) {
  Hypergraph h(4, {{0, 1}, {1, 2, 3}}, {2.0f, 3.0f});
  std::vector<float> deg = h.VertexDegrees();
  EXPECT_FLOAT_EQ(deg[0], 2.0f);
  EXPECT_FLOAT_EQ(deg[1], 5.0f);  // in both edges
  EXPECT_FLOAT_EQ(deg[2], 3.0f);
  EXPECT_FLOAT_EQ(deg[3], 3.0f);
}

TEST(HypergraphTest, EdgeDegreesFollowEq4) {
  Hypergraph h = SmallHypergraph();
  std::vector<int64_t> deg = h.EdgeDegrees();
  EXPECT_EQ(deg, (std::vector<int64_t>{3, 2, 3}));
}

TEST(HypergraphTest, CoverageDetection) {
  EXPECT_TRUE(SmallHypergraph().CoversAllVertices());
  Hypergraph partial(5, {{0, 1}});
  EXPECT_FALSE(partial.CoversAllVertices());
}

TEST(HypergraphTest, UnionCombinesEdges) {
  Hypergraph a(4, {{0, 1}});
  Hypergraph b(4, {{2, 3}, {0, 3}});
  Hypergraph u = a.UnionWith(b);
  EXPECT_EQ(u.num_edges(), 3);
  EXPECT_TRUE(u.CoversAllVertices());
}

TEST(HypergraphTest, DefaultWeightsAreOne) {
  Hypergraph h = SmallHypergraph();
  for (float w : h.edge_weights()) EXPECT_FLOAT_EQ(w, 1.0f);
}

TEST(HypergraphTest, MakeValidation) {
  EXPECT_FALSE(Hypergraph::Make(0, {}).ok());
  EXPECT_FALSE(Hypergraph::Make(3, {{}}).ok());          // empty edge
  EXPECT_FALSE(Hypergraph::Make(3, {{0, 7}}).ok());      // out of range
  EXPECT_FALSE(Hypergraph::Make(3, {{0}}, {0.0f}).ok()); // bad weight
  EXPECT_FALSE(Hypergraph::Make(3, {{0}}, {1.0f, 2.0f}).ok());  // size
  EXPECT_TRUE(Hypergraph::Make(3, {{0, 1}, {1, 2}}).ok());
}

TEST(HypergraphDeathTest, ConstructorChecksVertexRange) {
  EXPECT_DEATH(Hypergraph(2, {{0, 5}}), "DHGCN_CHECK");
}

TEST(HypergraphTest, ToStringMentionsStructure) {
  std::string text = SmallHypergraph().ToString();
  EXPECT_NE(text.find("V=5"), std::string::npos);
  EXPECT_NE(text.find("E=3"), std::string::npos);
}

// --- Hypergraph convolution operators ---------------------------------------------

TEST(HypergraphConvTest, OperatorIsSymmetric) {
  Tensor op = NormalizedHypergraphOperator(SmallHypergraph());
  EXPECT_EQ(op.shape(), (Shape{5, 5}));
  EXPECT_TRUE(AllClose(op, Transpose2D(op), 1e-5f, 1e-6f));
}

TEST(HypergraphConvTest, OperatorIsPositiveSemidefinite) {
  // Omega = (Dv^{-1/2} H (W/De)^{1/2}) (...)^T-like product; x^T Omega x
  // must be >= 0 for all x since W, De > 0.
  Tensor op = NormalizedHypergraphOperator(SmallHypergraph());
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    Tensor x = Tensor::RandomNormal({5, 1}, rng);
    Tensor quadratic = MatMul(Transpose2D(x), MatMul(op, x));
    EXPECT_GE(quadratic.flat(0), -1e-5f);
  }
}

TEST(HypergraphConvTest, SingleEdgeUniform) {
  // One hyperedge over all 3 vertices, weight 1: every vertex has degree
  // 1, the edge has degree 3; Omega = H (1/3) H^T = 1/3 everywhere.
  Hypergraph h(3, {{0, 1, 2}});
  Tensor op = NormalizedHypergraphOperator(h);
  for (int64_t i = 0; i < 9; ++i) EXPECT_NEAR(op.flat(i), 1.0f / 3.0f, 1e-6f);
}

TEST(HypergraphConvTest, IsolatedVertexGivesZeroRow) {
  Hypergraph h(3, {{0, 1}});
  Tensor op = NormalizedHypergraphOperator(h);
  for (int64_t j = 0; j < 3; ++j) {
    EXPECT_FLOAT_EQ(op.at(2, j), 0.0f);
    EXPECT_FLOAT_EQ(op.at(j, 2), 0.0f);
  }
}

TEST(HypergraphConvTest, EdgeWeightScalesContribution) {
  Hypergraph light(2, {{0, 1}}, {1.0f});
  Hypergraph heavy(2, {{0, 1}}, {4.0f});
  Tensor op_light = NormalizedHypergraphOperator(light);
  Tensor op_heavy = NormalizedHypergraphOperator(heavy);
  // Dv scales with w, so Dv^{-1/2} w De^{-1} Dv^{-1/2} is w-invariant for
  // a single edge: both should equal 1/2.
  EXPECT_NEAR(op_light.at(0, 1), 0.5f, 1e-6f);
  EXPECT_NEAR(op_heavy.at(0, 1), 0.5f, 1e-6f);
}

TEST(HypergraphConvTest, WeightedIncidenceOperator) {
  Tensor imp = Tensor::FromVector({2, 1}, {0.25f, 0.75f});
  Tensor op = WeightedIncidenceOperator(imp);
  EXPECT_EQ(op.shape(), (Shape{2, 2}));
  EXPECT_NEAR(op.at(0, 0), 0.0625f, 1e-6f);
  EXPECT_NEAR(op.at(0, 1), 0.1875f, 1e-6f);
  EXPECT_NEAR(op.at(1, 1), 0.5625f, 1e-6f);
  EXPECT_TRUE(AllClose(op, Transpose2D(op)));
}

TEST(VertexMixTest, AppliesOperatorOnVertexAxis) {
  // Operator that swaps two vertices.
  Tensor swap = Tensor::FromVector({2, 2}, {0, 1, 1, 0});
  VertexMix mix(swap);
  Tensor x({1, 1, 1, 2});
  x.at(0, 0, 0, 0) = 3.0f;
  x.at(0, 0, 0, 1) = 7.0f;
  Tensor y = mix.Forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 7.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 1), 3.0f);
}

TEST(VertexMixTest, FixedOperatorHasNoParams) {
  VertexMix fixed(Tensor::Eye(3));
  EXPECT_TRUE(fixed.Params().empty());
}

TEST(DynamicVertexMixTest, PerFrameOperators) {
  DynamicVertexMix mix;
  // Frame 0: identity; frame 1: swap.
  Tensor ops({1, 2, 2, 2});
  ops.at(0, 0, 0, 0) = 1.0f;
  ops.at(0, 0, 1, 1) = 1.0f;
  ops.at(0, 1, 0, 1) = 1.0f;
  ops.at(0, 1, 1, 0) = 1.0f;
  mix.SetOperators(ops);
  Tensor x({1, 1, 2, 2});
  x.at(0, 0, 0, 0) = 1.0f;
  x.at(0, 0, 0, 1) = 2.0f;
  x.at(0, 0, 1, 0) = 3.0f;
  x.at(0, 0, 1, 1) = 4.0f;
  Tensor y = mix.Forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 1.0f);  // identity frame
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 1), 2.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 0), 4.0f);  // swapped frame
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 3.0f);
}

TEST(DynamicVertexMixDeathTest, ForwardWithoutOperators) {
  DynamicVertexMix mix;
  Tensor x({1, 1, 2, 2});
  EXPECT_DEATH(mix.Forward(x), "DHGCN_CHECK");
}

}  // namespace
}  // namespace dhgcn

#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include "gtest/gtest.h"

#include "core/dhgcn_model.h"
#include "core/dhst_block.h"
#include "core/dynamic_joint_weight.h"
#include "core/dynamic_topology.h"
#include "core/static_hypergraph.h"
#include "data/skeleton.h"
#include "hypergraph/hypergraph_conv.h"
#include "tensor/tensor_ops.h"
#include "tests/gradcheck.h"
#include "tests/oracles.h"

namespace dhgcn {
namespace {

// --- Static hypergraph -------------------------------------------------------------

class StaticHypergraphParamTest
    : public ::testing::TestWithParam<SkeletonLayoutType> {};

TEST_P(StaticHypergraphParamTest, SixEdgesCoveringAllJoints) {
  const SkeletonLayout& layout = GetSkeletonLayout(GetParam());
  Hypergraph h = StaticSkeletonHypergraph(layout);
  EXPECT_EQ(h.num_vertices(), layout.num_joints);
  EXPECT_EQ(h.num_edges(), 6);  // Fig. 1(c): six hyperedges
  EXPECT_TRUE(h.CoversAllVertices());
}

TEST_P(StaticHypergraphParamTest, OperatorWellFormed) {
  const SkeletonLayout& layout = GetSkeletonLayout(GetParam());
  Tensor op = NormalizedHypergraphOperator(StaticSkeletonHypergraph(layout));
  EXPECT_EQ(op.shape(), (Shape{layout.num_joints, layout.num_joints}));
  EXPECT_FALSE(HasNonFinite(op));
  EXPECT_TRUE(AllClose(op, Transpose2D(op), 1e-5f, 1e-6f));
}

INSTANTIATE_TEST_SUITE_P(Layouts, StaticHypergraphParamTest,
                         ::testing::Values(SkeletonLayoutType::kNtu25,
                                           SkeletonLayoutType::kKinetics18));

TEST(PartBasedHypergraphTest, PartsBecomeHyperedges) {
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kNtu25);
  for (int64_t parts : {2, 4, 6}) {
    Hypergraph h = PartBasedHypergraph(layout, parts);
    EXPECT_EQ(h.num_edges(), parts);
    EXPECT_TRUE(h.CoversAllVertices());
  }
}

// --- Dynamic joint weight (Eqs. 6-9) --------------------------------------------------

TEST(MovingDistancesTest, MatchesManualNorm) {
  Tensor coords({1, 3, 3, 2});
  // Joint 0 moves (1,2,2) between frames 0->1 => distance 3.
  coords.at(0, 0, 1, 0) = 1.0f;
  coords.at(0, 1, 1, 0) = 2.0f;
  coords.at(0, 2, 1, 0) = 2.0f;
  // Joint 1 static.
  Tensor dist = MovingDistances(coords);
  EXPECT_EQ(dist.shape(), (Shape{1, 3, 2}));
  EXPECT_FLOAT_EQ(dist.at(0, 1, 0), 3.0f);
  EXPECT_FLOAT_EQ(dist.at(0, 1, 1), 0.0f);
  // Frame 0 copies frame 1.
  EXPECT_FLOAT_EQ(dist.at(0, 0, 0), 3.0f);
  // Frame 2 moves back: distance 3 again.
  EXPECT_FLOAT_EQ(dist.at(0, 2, 0), 3.0f);
}

TEST(MovingDistancesTest, UsesOnlyFirstThreeChannels) {
  Tensor coords({1, 5, 2, 1});
  coords.at(0, 3, 1, 0) = 100.0f;  // channel 3 ignored
  Tensor dist = MovingDistances(coords);
  EXPECT_FLOAT_EQ(dist.at(0, 1, 0), 0.0f);
}

TEST(JointWeightIncidenceTest, SharesSumToOnePerEdge) {
  Hypergraph h(4, {{0, 1, 2}, {2, 3}});
  Tensor distances = Tensor::FromList({1.0f, 2.0f, 3.0f, 1.0f});
  Tensor imp = JointWeightIncidence(distances, h);
  EXPECT_EQ(imp.shape(), (Shape{4, 2}));
  // Edge 0: shares 1/6, 2/6, 3/6.
  EXPECT_NEAR(imp.at(0, 0), 1.0f / 6.0f, 1e-6f);
  EXPECT_NEAR(imp.at(1, 0), 2.0f / 6.0f, 1e-6f);
  EXPECT_NEAR(imp.at(2, 0), 3.0f / 6.0f, 1e-6f);
  EXPECT_FLOAT_EQ(imp.at(3, 0), 0.0f);  // not on edge 0
  // Edge 1: shares 3/4, 1/4.
  EXPECT_NEAR(imp.at(2, 1), 0.75f, 1e-6f);
  EXPECT_NEAR(imp.at(3, 1), 0.25f, 1e-6f);
  // Column sums are 1 (Eq. 7 normalization).
  for (int64_t e = 0; e < 2; ++e) {
    float sum = 0.0f;
    for (int64_t v = 0; v < 4; ++v) sum += imp.at(v, e);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(JointWeightIncidenceTest, ZeroMotionFallsBackToUniform) {
  Hypergraph h(3, {{0, 1, 2}});
  Tensor distances({3});  // all zero
  Tensor imp = JointWeightIncidence(distances, h);
  for (int64_t v = 0; v < 3; ++v) {
    EXPECT_NEAR(imp.at(v, 0), 1.0f / 3.0f, 1e-6f);
  }
}

TEST(DynamicJointWeightOperatorsTest, ShapeAndSymmetry) {
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kKinetics18);
  Hypergraph h = StaticSkeletonHypergraph(layout);
  Rng rng(70);
  Tensor coords = Tensor::RandomNormal({2, 3, 4, 18}, rng);
  Tensor ops = DynamicJointWeightOperators(coords, h);
  EXPECT_EQ(ops.shape(), (Shape{2, 4, 18, 18}));
  EXPECT_FALSE(HasNonFinite(ops));
  // Each frame's operator Imp Imp^T is symmetric PSD.
  for (int64_t t = 0; t < 4; ++t) {
    for (int64_t i = 0; i < 18; ++i) {
      EXPECT_GE(ops.at(0, t, i, i), 0.0f);
      for (int64_t j = 0; j < 18; ++j) {
        EXPECT_NEAR(ops.at(0, t, i, j), ops.at(0, t, j, i), 1e-5f);
      }
    }
  }
}

TEST(DynamicJointWeightOperatorsTest, FasterJointGetsLargerWeight) {
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kNtu25);
  Hypergraph h = StaticSkeletonHypergraph(layout);
  // Only the right hand (joint 11) moves.
  Tensor coords({1, 3, 4, 25});
  for (int64_t t = 0; t < 4; ++t) {
    coords.at(0, 0, t, 11) = static_cast<float>(t);
  }
  Tensor ops = DynamicJointWeightOperators(coords, h);
  // The moving joint's diagonal entry should dominate a static joint that
  // shares its hyperedges (e.g. joint 9, right elbow).
  EXPECT_GT(ops.at(0, 1, 11, 11), ops.at(0, 1, 9, 9));
}

TEST(StrideOperatorsTest, PicksEveryStrideFrame) {
  Tensor ops({1, 6, 2, 2});
  for (int64_t t = 0; t < 6; ++t) {
    ops.at(0, t, 0, 0) = static_cast<float>(t);
  }
  Tensor strided = StrideOperatorsInTime(ops, 2);
  EXPECT_EQ(strided.shape(), (Shape{1, 3, 2, 2}));
  EXPECT_FLOAT_EQ(strided.at(0, 0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(strided.at(0, 1, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(strided.at(0, 2, 0, 0), 4.0f);
  // Stride 1 is identity.
  EXPECT_TRUE(AllClose(StrideOperatorsInTime(ops, 1), ops));
}

TEST(StrideOperatorsTest, OddLengthMatchesConvOutput) {
  Tensor ops({1, 7, 2, 2});
  Tensor strided = StrideOperatorsInTime(ops, 2);
  EXPECT_EQ(strided.dim(1), 4);  // (7-1)/2+1
}

// --- Dynamic topology (Sec. 3.4) ------------------------------------------------------

TEST(DynamicTopologyTest, UnionHasKnnPlusKmeansEdges) {
  Rng rng(71);
  Tensor features = Tensor::RandomNormal({10, 4}, rng);
  DynamicTopologyOptions options;
  options.kn = 3;
  options.km = 4;
  Hypergraph h = DynamicTopologyHypergraph(features, options);
  EXPECT_EQ(h.num_vertices(), 10);
  EXPECT_EQ(h.num_edges(), 10 + 4);  // V K-NN edges + k_m K-means edges
  EXPECT_TRUE(h.CoversAllVertices());
}

TEST(DynamicTopologyTest, KnnEdgesHaveSizeKn) {
  Rng rng(72);
  Tensor features = Tensor::RandomNormal({8, 3}, rng);
  DynamicTopologyOptions options;
  options.kn = 4;
  options.km = 2;
  Hypergraph h = DynamicTopologyHypergraph(features, options);
  for (int64_t e = 0; e < 8; ++e) {
    EXPECT_EQ(h.edges()[static_cast<size_t>(e)].size(), 4u);
  }
}

TEST(DynamicTopologyTest, KmeansEdgesPartitionVertices) {
  Rng rng(73);
  Tensor features = Tensor::RandomNormal({9, 3}, rng);
  DynamicTopologyOptions options;
  options.kn = 2;
  options.km = 3;
  Hypergraph h = DynamicTopologyHypergraph(features, options);
  std::set<int64_t> covered;
  size_t total = 0;
  for (int64_t e = 9; e < h.num_edges(); ++e) {
    const Hyperedge& edge = h.edges()[static_cast<size_t>(e)];
    total += edge.size();
    covered.insert(edge.begin(), edge.end());
  }
  EXPECT_EQ(total, 9u);
  EXPECT_EQ(covered.size(), 9u);
}

TEST(DynamicTopologyTest, DeterministicForSameInput) {
  Rng rng(74);
  Tensor features = Tensor::RandomNormal({2, 8, 3, 6}, rng);
  DynamicTopologyOptions options;
  options.kn = 2;
  options.km = 2;
  Tensor ops1 = DynamicTopologyOperators(features, options);
  Tensor ops2 = DynamicTopologyOperators(features, options);
  EXPECT_EQ(ops1.shape(), (Shape{2, 3, 6, 6}));
  EXPECT_EQ(std::memcmp(ops1.data(), ops2.data(),
                        sizeof(float) * static_cast<size_t>(ops1.numel())),
            0);
}

TEST(DynamicTopologyTest, OperatorsAreSymmetricFinite) {
  Rng rng(75);
  Tensor features = Tensor::RandomNormal({1, 4, 2, 7}, rng);
  DynamicTopologyOptions options;
  options.kn = 3;
  options.km = 2;
  Tensor ops = DynamicTopologyOperators(features, options);
  EXPECT_FALSE(HasNonFinite(ops));
  for (int64_t t = 0; t < 2; ++t) {
    for (int64_t i = 0; i < 7; ++i) {
      for (int64_t j = 0; j < 7; ++j) {
        EXPECT_NEAR(ops.at(0, t, i, j), ops.at(0, t, j, i), 1e-5f);
      }
    }
  }
}

TEST(DynamicTopologyTest, NearbyVerticesShareEdges) {
  // Features with two clear groups: dynamic topology should connect
  // within groups much more strongly than across.
  Tensor features({1, 1, 1, 6});
  for (int64_t v = 0; v < 3; ++v) features.at(0, 0, 0, v) = 0.0f;
  for (int64_t v = 3; v < 6; ++v) features.at(0, 0, 0, v) = 10.0f;
  DynamicTopologyOptions options;
  options.kn = 3;
  options.km = 2;
  Tensor ops = DynamicTopologyOperators(features, options);
  // Within-group connectivity dominates cross-group.
  float within = ops.at(0, 0, 0, 1);
  float across = ops.at(0, 0, 0, 4);
  EXPECT_GT(within, across);
}

// Features (N, C, T, V) for the conformance sweep. Variant 0 is plain
// Gaussian; variant 1 rounds to a coarse grid behind a ReLU (zeros and
// exact distance ties); variant 2 copies three vertex rows over the whole
// frame (zero distances: K-means collapses onto at most three clusters,
// so every k_m > 3 forces empty-cluster steals); variant 3 is all zeros.
Tensor ConformanceFeatures(int64_t n, int64_t c, int64_t t, int64_t v,
                           int variant, uint64_t seed) {
  Rng rng(seed);
  Tensor x = Tensor::RandomNormal({n, c, t, v}, rng);
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t ch = 0; ch < c; ++ch) {
      for (int64_t tt = 0; tt < t; ++tt) {
        for (int64_t j = 0; j < v; ++j) {
          float& value = x.at(b, ch, tt, j);
          if (variant == 1) {
            value = std::max(0.0f, std::round(value * 2.0f) / 2.0f);
          } else if (variant == 2) {
            value = x.at(b, ch, tt, j % 3);
          } else if (variant == 3) {
            value = 0.0f;
          }
        }
      }
    }
  }
  return x;
}

// Frame (b, tt) of an (N, C, T, V) map as (V, C) vertex rows.
Tensor FrameRows(const Tensor& x, int64_t b, int64_t tt) {
  const int64_t c = x.dim(1), v = x.dim(3);
  Tensor frame({v, c});
  for (int64_t j = 0; j < v; ++j) {
    for (int64_t ch = 0; ch < c; ++ch) frame.at(j, ch) = x.at(b, ch, tt, j);
  }
  return frame;
}

// The one-pass frame construction against the per-frame pipeline it
// replaced (tests/oracles.h), memcmp-exact, over vertex counts, channel
// counts on both sides of the Gram GEMM's row/blocked switch, k_n, k_m
// (including 1 and V) and a K-means iteration cap that stops before
// convergence.
TEST(DynamicTopologyTest, MatchesPerFrameOracleBitForBit) {
  uint64_t seed = 500;
  for (int64_t v : {7, 18, 25}) {
    for (int64_t c : {3, 16, 32, 64}) {
      for (int variant = 0; variant < 4; ++variant) {
        Tensor features = ConformanceFeatures(2, c, 2, v, variant, ++seed);
        for (int64_t kn = 1; kn <= 4; ++kn) {
          for (int64_t km : {int64_t{1}, int64_t{4}, int64_t{5}, v - 1, v}) {
            for (int64_t iters : {1, 20}) {
              DynamicTopologyOptions options;
              options.kn = kn;
              options.km = km;
              options.kmeans_max_iters = iters;
              Tensor expected =
                  oracles::DynamicTopologyOperators(features, options);
              Tensor actual = DynamicTopologyOperators(features, options);
              ASSERT_EQ(std::memcmp(expected.data(), actual.data(),
                                    sizeof(float) *
                                        static_cast<size_t>(expected.numel())),
                        0)
                  << "V=" << v << " C=" << c << " variant=" << variant
                  << " kn=" << kn << " km=" << km << " iters=" << iters;
            }
          }
        }
      }
    }
  }
}

TEST(DynamicTopologyTest, HypergraphMatchesPerFrameOracle) {
  uint64_t seed = 600;
  for (int64_t c : {3, 32}) {
    for (int variant = 0; variant < 3; ++variant) {
      Tensor frame =
          FrameRows(ConformanceFeatures(1, c, 1, 18, variant, ++seed), 0, 0);
      for (int64_t km : {1, 4, 5, 17}) {
        DynamicTopologyOptions options;
        options.kn = 3;
        options.km = km;
        for (uint64_t frame_seed : {0u, 5u}) {
          Hypergraph expected =
              oracles::DynamicTopologyHypergraph(frame, options, frame_seed);
          Hypergraph actual =
              DynamicTopologyHypergraph(frame, options, frame_seed);
          EXPECT_EQ(actual.edges(), expected.edges())
              << "C=" << c << " variant=" << variant << " km=" << km;
          EXPECT_EQ(actual.edge_weights(), expected.edge_weights());
        }
      }
    }
  }
}

// A non-finite frame (a poisoned batch) must still yield a topology: NaN
// distances order after every number, so the selections stay total, and
// Eq. 5 depends only on the degrees, so the operator stays finite.
TEST(DynamicTopologyTest, NonFiniteFeaturesGiveFiniteOperatorsAndPartition) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Rng rng(76);
  const int64_t c = 4, t = 4, v = 9;
  Tensor features = Tensor::RandomNormal({1, c, t, v}, rng);
  features.at(0, 1, 0, 4) = nan;  // frame 0: one NaN vertex
  for (int64_t ch = 0; ch < c; ++ch) {
    for (int64_t j = 0; j < v; ++j) features.at(0, ch, 1, j) = nan;
  }
  features.at(0, 2, 2, 7) = inf;  // frame 2: one inf
  features.at(0, 0, 3, 0) = -inf;  // frame 3: -inf and inf
  features.at(0, 3, 3, 5) = inf;
  DynamicTopologyOptions options;
  options.kn = 3;
  options.km = 4;
  Tensor ops = DynamicTopologyOperators(features, options);
  EXPECT_FALSE(HasNonFinite(ops));
  for (int64_t tt = 0; tt < t; ++tt) {
    Hypergraph h = DynamicTopologyHypergraph(FrameRows(features, 0, tt),
                                             options,
                                             static_cast<uint64_t>(tt));
    ASSERT_EQ(h.num_edges(), v + options.km) << "frame " << tt;
    for (int64_t e = 0; e < v; ++e) {
      const Hyperedge& edge = h.edges()[static_cast<size_t>(e)];
      EXPECT_EQ(static_cast<int64_t>(edge.size()), options.kn);
      EXPECT_EQ(edge[0], e);
    }
    std::vector<int> hits(static_cast<size_t>(v), 0);
    for (int64_t e = v; e < h.num_edges(); ++e) {
      const Hyperedge& cluster = h.edges()[static_cast<size_t>(e)];
      EXPECT_FALSE(cluster.empty()) << "frame " << tt;
      for (int64_t j : cluster) ++hits[static_cast<size_t>(j)];
    }
    for (int64_t j = 0; j < v; ++j) {
      EXPECT_EQ(hits[static_cast<size_t>(j)], 1)
          << "frame " << tt << " vertex " << j;
    }
  }
}

// --- DHST block -----------------------------------------------------------------------

DhstBlockOptions SmallBlockOptions(int64_t in, int64_t out,
                                   int64_t stride = 1) {
  DhstBlockOptions options;
  options.in_channels = in;
  options.out_channels = out;
  options.temporal_stride = stride;
  options.topology.kn = 2;
  options.topology.km = 2;
  return options;
}

TEST(DhstBlockTest, ForwardShape) {
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kKinetics18);
  Hypergraph h = StaticSkeletonHypergraph(layout);
  Rng rng(76);
  DhstBlock block(SmallBlockOptions(3, 8), h, rng);
  Tensor x = Tensor::RandomNormal({2, 3, 6, 18}, rng);
  Tensor joint_ops = DynamicJointWeightOperators(x, h);
  Tensor y = block.Forward(x, joint_ops);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 6, 18}));
  Tensor g = block.Backward(Tensor::Ones(y.shape()));
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(DhstBlockTest, TemporalStrideHalvesFrames) {
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kKinetics18);
  Hypergraph h = StaticSkeletonHypergraph(layout);
  Rng rng(77);
  DhstBlock block(SmallBlockOptions(3, 4, /*stride=*/2), h, rng);
  EXPECT_EQ(block.OutputFrames(8), 4);
  EXPECT_EQ(block.OutputFrames(7), 4);
  Tensor x = Tensor::RandomNormal({1, 3, 8, 18}, rng);
  Tensor joint_ops = DynamicJointWeightOperators(x, h);
  Tensor y = block.Forward(x, joint_ops);
  EXPECT_EQ(y.dim(2), 4);
}

TEST(DhstBlockTest, BranchTogglesChangeParamCount) {
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kKinetics18);
  Hypergraph h = StaticSkeletonHypergraph(layout);
  Rng rng(78);
  DhstBlockOptions all = SmallBlockOptions(3, 4);
  DhstBlock full(all, h, rng);

  DhstBlockOptions no_topology = all;
  no_topology.enable_topology = false;
  DhstBlock partial(no_topology, h, rng);
  EXPECT_GT(full.ParameterCount(), partial.ParameterCount());
}

TEST(DhstBlockTest, DisabledJointWeightIgnoresOps) {
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kKinetics18);
  Hypergraph h = StaticSkeletonHypergraph(layout);
  Rng rng(79);
  DhstBlockOptions options = SmallBlockOptions(3, 4);
  options.enable_joint_weight = false;
  DhstBlock block(options, h, rng);
  Tensor x = Tensor::RandomNormal({1, 3, 4, 18}, rng);
  Tensor y = block.Forward(x, Tensor());  // empty ops accepted
  EXPECT_EQ(y.shape(), (Shape{1, 4, 4, 18}));
}

TEST(DhstBlockDeathTest, AllBranchesDisabledRejected) {
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kKinetics18);
  Hypergraph h = StaticSkeletonHypergraph(layout);
  Rng rng(80);
  DhstBlockOptions options = SmallBlockOptions(3, 4);
  options.enable_static = false;
  options.enable_joint_weight = false;
  options.enable_topology = false;
  EXPECT_DEATH(DhstBlock(options, h, rng), "DHGCN_CHECK");
}

// Full-block gradient check through all three branches, batch norms and
// residuals. Wrapped as a Layer with fixed joint-weight operators.
class DhstBlockHarness : public Layer {
 public:
  DhstBlockHarness(const DhstBlockOptions& options, const Hypergraph& h,
                   Rng& rng, Tensor joint_ops)
      : block_(options, h, rng), joint_ops_(std::move(joint_ops)) {}

  std::vector<ParamRef> Params() override { return block_.Params(); }
  void SetTraining(bool training) override { block_.SetTraining(training); }
  std::string name() const override { return "DhstBlockHarness"; }

 private:
  Tensor ForwardImpl(const Tensor& x, Workspace* ws) override {
    return block_.Forward(x, joint_ops_, ws);
  }
  Tensor BackwardImpl(const Tensor& g, Workspace* ws) override {
    return block_.Backward(g, ws);
  }

  DhstBlock block_;
  Tensor joint_ops_;
};

TEST(DhstBlockTest, GradCheckStaticAndJointBranches) {
  // The dynamic-topology branch changes topology under input perturbation
  // (non-differentiable selection), so gradient-check the other branches.
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kKinetics18);
  Hypergraph h = StaticSkeletonHypergraph(layout);
  Rng rng(81);
  DhstBlockOptions options = SmallBlockOptions(2, 3);
  options.enable_topology = false;
  Tensor x = Tensor::RandomNormal({2, 2, 4, 18}, rng);
  Tensor coords = Tensor::RandomNormal({2, 3, 4, 18}, rng);
  Tensor joint_ops = DynamicJointWeightOperators(coords, h);
  DhstBlockHarness harness(options, h, rng, joint_ops);
  testing::GradCheckOptions check;
  // Composite-block check: perturbing a BN scale shifts every unit in a
  // channel, so some pre-activations cross the ReLU kink and the central
  // difference picks up subgradient noise proportional to epsilon. Use a
  // small epsilon and coarse tolerances — per-layer gradients are checked
  // tightly in gradcheck_test; this validates the block's wiring.
  check.epsilon = 5e-4f;
  check.rtol = 1.2e-1f;
  check.atol = 1.2e-1f;
  check.samples_per_tensor = 10;
  testing::ExpectGradientsMatch(harness, x, check);
}

// --- DHGCN model -----------------------------------------------------------------------

TEST(DhgcnConfigTest, PaperConfigHasTenBlocks) {
  DhgcnConfig config = DhgcnConfig::Paper(SkeletonLayoutType::kNtu25, 60);
  EXPECT_EQ(config.blocks.size(), 10u);
  EXPECT_EQ(config.blocks[0].channels, 64);
  EXPECT_EQ(config.blocks[9].channels, 256);
  EXPECT_EQ(config.topology.kn, 3);  // paper's best k_n
  EXPECT_EQ(config.topology.km, 4);  // paper's best k_m
}

TEST(DhgcnModelTest, MakeValidatesConfig) {
  DhgcnConfig config = DhgcnConfig::Tiny(SkeletonLayoutType::kKinetics18, 5);
  EXPECT_TRUE(DhgcnModel::Make(config).ok());

  DhgcnConfig bad = config;
  bad.num_classes = 0;
  EXPECT_FALSE(DhgcnModel::Make(bad).ok());
  bad = config;
  bad.blocks.clear();
  EXPECT_FALSE(DhgcnModel::Make(bad).ok());
  bad = config;
  bad.enable_static = bad.enable_joint_weight = bad.enable_topology = false;
  EXPECT_FALSE(DhgcnModel::Make(bad).ok());
  bad = config;
  bad.topology.kn = 100;
  EXPECT_FALSE(DhgcnModel::Make(bad).ok());
  bad = config;
  bad.dropout = 1.0f;
  EXPECT_FALSE(DhgcnModel::Make(bad).ok());
}

TEST(DhgcnModelTest, ForwardBackwardShapes) {
  DhgcnConfig config = DhgcnConfig::Tiny(SkeletonLayoutType::kKinetics18, 5);
  config.topology.kn = 2;
  config.topology.km = 2;
  auto model = DhgcnModel::Make(config).MoveValue();
  Rng rng(82);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 18}, rng);
  Tensor logits = model->Forward(x);
  EXPECT_EQ(logits.shape(), (Shape{2, 5}));
  EXPECT_FALSE(HasNonFinite(logits));
  Tensor g = model->Backward(Tensor::Ones({2, 5}));
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(DhgcnModelTest, ParamsAreNamedAndNonEmpty) {
  DhgcnConfig config = DhgcnConfig::Tiny(SkeletonLayoutType::kKinetics18, 4);
  auto model = DhgcnModel::Make(config).MoveValue();
  std::vector<ParamRef> params = model->Params();
  EXPECT_GT(params.size(), 10u);
  std::set<std::string> names;
  for (const ParamRef& p : params) {
    EXPECT_TRUE(names.insert(p.name).second) << "duplicate " << p.name;
    EXPECT_NE(p.value, nullptr);
    if (p.trainable) {
      EXPECT_NE(p.grad, nullptr);
    }
  }
  EXPECT_GT(model->ParameterCount(), 100);
}

TEST(DhgcnModelTest, BranchAblationsRun) {
  for (int mask = 0; mask < 3; ++mask) {
    DhgcnConfig config =
        DhgcnConfig::Tiny(SkeletonLayoutType::kKinetics18, 3);
    config.topology.kn = 2;
    config.topology.km = 2;
    config.enable_static = mask != 0;
    config.enable_joint_weight = mask != 1;
    config.enable_topology = mask != 2;
    auto model = DhgcnModel::Make(config).MoveValue();
    Rng rng(83);
    Tensor x = Tensor::RandomNormal({1, 3, 8, 18}, rng);
    Tensor logits = model->Forward(x);
    EXPECT_EQ(logits.shape(), (Shape{1, 3}));
    model->Backward(Tensor::Ones({1, 3}));
  }
}

TEST(DhgcnModelTest, TemporalStrideKeepsJointOpsAligned) {
  // Two strided blocks: the internal op re-striding must keep shapes
  // consistent for any input length that survives the convs.
  DhgcnConfig config = DhgcnConfig::Tiny(SkeletonLayoutType::kKinetics18, 3);
  config.blocks = {{4, 1, 1}, {8, 2, 1}, {8, 2, 1}};
  config.topology.kn = 2;
  config.topology.km = 2;
  auto model = DhgcnModel::Make(config).MoveValue();
  Rng rng(84);
  Tensor x = Tensor::RandomNormal({1, 3, 12, 18}, rng);
  Tensor logits = model->Forward(x);
  EXPECT_EQ(logits.shape(), (Shape{1, 3}));
}

TEST(DhgcnModelTest, EvalModeIsDeterministic) {
  DhgcnConfig config = DhgcnConfig::Tiny(SkeletonLayoutType::kKinetics18, 4);
  config.dropout = 0.5f;
  config.topology.kn = 2;
  config.topology.km = 2;
  auto model = DhgcnModel::Make(config).MoveValue();
  model->SetTraining(false);
  Rng rng(85);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 18}, rng);
  Tensor a = model->Forward(x);
  Tensor b = model->Forward(x);
  EXPECT_TRUE(AllClose(a, b));
}

}  // namespace
}  // namespace dhgcn

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "gtest/gtest.h"

#include "base/rng.h"
#include "hypergraph/kmeans.h"
#include "hypergraph/knn.h"
#include "tensor/tensor_ops.h"
#include "tests/oracles.h"

namespace dhgcn {
namespace {

// Three well-separated 2-D clusters of 4 points each.
Tensor ClusteredPoints() {
  Tensor points({12, 2});
  const float centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  Rng rng(50);
  for (int64_t i = 0; i < 12; ++i) {
    int64_t c = i / 4;
    points.at(i, 0) = centers[c][0] + rng.Uniform(-0.5f, 0.5f);
    points.at(i, 1) = centers[c][1] + rng.Uniform(-0.5f, 0.5f);
  }
  return points;
}

// --- PairwiseDistances -------------------------------------------------------

TEST(PairwiseDistancesTest, MatchesManual) {
  Tensor points = Tensor::FromVector({3, 2}, {0, 0, 3, 4, 0, 1});
  Tensor dist = PairwiseDistances(points);
  EXPECT_FLOAT_EQ(dist.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dist.at(0, 1), 5.0f);
  EXPECT_FLOAT_EQ(dist.at(0, 2), 1.0f);
  EXPECT_NEAR(dist.at(1, 2), std::sqrt(9.0f + 9.0f), 1e-5f);
}

TEST(PairwiseDistancesTest, SymmetricZeroDiagonal) {
  Rng rng(51);
  Tensor points = Tensor::RandomNormal({8, 3}, rng);
  Tensor dist = PairwiseDistances(points);
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(dist.at(i, i), 0.0f);
    for (int64_t j = 0; j < 8; ++j) {
      EXPECT_FLOAT_EQ(dist.at(i, j), dist.at(j, i));
      EXPECT_GE(dist.at(i, j), 0.0f);
    }
  }
}

TEST(PairwiseDistancesTest, TriangleInequality) {
  Rng rng(52);
  Tensor points = Tensor::RandomNormal({6, 4}, rng);
  Tensor dist = PairwiseDistances(points);
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = 0; j < 6; ++j) {
      for (int64_t k = 0; k < 6; ++k) {
        EXPECT_LE(dist.at(i, j),
                  dist.at(i, k) + dist.at(k, j) + 1e-4f);
      }
    }
  }
}

// --- NearestNeighbors ---------------------------------------------------------

TEST(NearestNeighborsTest, ExcludesSelfAndSorts) {
  Tensor points = Tensor::FromVector({4, 1}, {0, 1, 3, 10});
  Tensor dist = PairwiseDistances(points);
  std::vector<int64_t> nn = NearestNeighbors(dist, 0, 3);
  EXPECT_EQ(nn, (std::vector<int64_t>{1, 2, 3}));
  std::vector<int64_t> nn2 = NearestNeighbors(dist, 2, 2);
  EXPECT_EQ(nn2, (std::vector<int64_t>{1, 0}));
}

TEST(NearestNeighborsTest, TieBreaksByIndex) {
  Tensor points = Tensor::FromVector({3, 1}, {0, 1, -1});  // equidistant
  Tensor dist = PairwiseDistances(points);
  std::vector<int64_t> nn = NearestNeighbors(dist, 0, 1);
  EXPECT_EQ(nn[0], 1);  // lower index wins the tie
}

// --- KnnHyperedges -------------------------------------------------------------

TEST(KnnHyperedgesTest, StructureInvariants) {
  Tensor points = ClusteredPoints();
  std::vector<Hyperedge> edges = KnnHyperedges(points, 3);
  ASSERT_EQ(edges.size(), 12u);  // one hyperedge per vertex
  for (int64_t i = 0; i < 12; ++i) {
    const Hyperedge& e = edges[static_cast<size_t>(i)];
    ASSERT_EQ(e.size(), 3u);           // k_n vertices per hyperedge
    EXPECT_EQ(e[0], i);                // anchored at the vertex
    std::set<int64_t> distinct(e.begin(), e.end());
    EXPECT_EQ(distinct.size(), 3u);    // no duplicates
  }
}

TEST(KnnHyperedgesTest, NeighborsComeFromSameCluster) {
  Tensor points = ClusteredPoints();
  std::vector<Hyperedge> edges = KnnHyperedges(points, 3);
  for (int64_t i = 0; i < 12; ++i) {
    int64_t cluster = i / 4;
    for (int64_t v : edges[static_cast<size_t>(i)]) {
      EXPECT_EQ(v / 4, cluster) << "vertex " << i;
    }
  }
}

TEST(KnnHyperedgesTest, KOneIsSingletons) {
  Tensor points = ClusteredPoints();
  std::vector<Hyperedge> edges = KnnHyperedges(points, 1);
  for (int64_t i = 0; i < 12; ++i) {
    EXPECT_EQ(edges[static_cast<size_t>(i)], Hyperedge{i});
  }
}

TEST(KnnHyperedgesTest, KEqualsVIncludesEveryone) {
  Tensor points = ClusteredPoints();
  std::vector<Hyperedge> edges = KnnHyperedges(points, 12);
  for (const Hyperedge& e : edges) {
    std::set<int64_t> distinct(e.begin(), e.end());
    EXPECT_EQ(distinct.size(), 12u);
  }
}

// --- KMeans ----------------------------------------------------------------------

TEST(KMeansTest, ClustersAreDisjointCover) {
  Tensor points = ClusteredPoints();
  Rng rng(53);
  KMeansResult result = KMeansClusters(points, 3, rng);
  ASSERT_EQ(result.clusters.size(), 3u);
  std::set<int64_t> all;
  for (const Hyperedge& c : result.clusters) {
    EXPECT_FALSE(c.empty());
    for (int64_t v : c) {
      EXPECT_TRUE(all.insert(v).second) << "vertex in two clusters";
    }
  }
  EXPECT_EQ(all.size(), 12u);
}

TEST(KMeansTest, RecoversWellSeparatedClusters) {
  Tensor points = ClusteredPoints();
  Rng rng(54);
  KMeansResult result = KMeansClusters(points, 3, rng);
  // Each result cluster must be exactly one ground-truth group.
  for (const Hyperedge& c : result.clusters) {
    ASSERT_EQ(c.size(), 4u);
    int64_t group = c[0] / 4;
    for (int64_t v : c) EXPECT_EQ(v / 4, group);
  }
}

TEST(KMeansTest, ConvergesAndReportsIterations) {
  Tensor points = ClusteredPoints();
  Rng rng(55);
  KMeansResult result = KMeansClusters(points, 3, rng, /*max_iters=*/50);
  EXPECT_TRUE(result.converged);
  EXPECT_GE(result.iterations, 1);
  EXPECT_LE(result.iterations, 50);
}

TEST(KMeansTest, MedoidsAreClusterMembers) {
  Tensor points = ClusteredPoints();
  Rng rng(56);
  KMeansResult result = KMeansClusters(points, 3, rng);
  ASSERT_EQ(result.medoids.size(), 3u);
  for (size_t c = 0; c < 3; ++c) {
    const Hyperedge& members = result.clusters[c];
    EXPECT_NE(std::find(members.begin(), members.end(), result.medoids[c]),
              members.end());
  }
}

TEST(KMeansTest, MedoidMinimizesMeanDistance) {
  Tensor points = ClusteredPoints();
  Rng rng(57);
  KMeansResult result = KMeansClusters(points, 3, rng);
  Tensor dist = PairwiseDistances(points);
  for (size_t c = 0; c < 3; ++c) {
    const Hyperedge& members = result.clusters[c];
    int64_t medoid = result.medoids[c];
    auto mean_dist = [&](int64_t candidate) {
      double total = 0.0;
      for (int64_t other : members) total += dist.at(candidate, other);
      return total / static_cast<double>(members.size());
    };
    double medoid_mean = mean_dist(medoid);
    for (int64_t candidate : members) {
      EXPECT_LE(medoid_mean, mean_dist(candidate) + 1e-6);
    }
  }
}

TEST(KMeansTest, KEqualsVGivesSingletons) {
  Tensor points = ClusteredPoints();
  Rng rng(58);
  KMeansResult result = KMeansClusters(points, 12, rng);
  EXPECT_EQ(result.clusters.size(), 12u);
  for (const Hyperedge& c : result.clusters) EXPECT_EQ(c.size(), 1u);
}

TEST(KMeansTest, KOneGivesEverything) {
  Tensor points = ClusteredPoints();
  Rng rng(59);
  KMeansResult result = KMeansClusters(points, 1, rng);
  ASSERT_EQ(result.clusters.size(), 1u);
  EXPECT_EQ(result.clusters[0].size(), 12u);
}

TEST(KMeansTest, DeterministicGivenSeed) {
  Tensor points = ClusteredPoints();
  Rng rng1(60), rng2(60);
  KMeansResult a = KMeansClusters(points, 3, rng1);
  KMeansResult b = KMeansClusters(points, 3, rng2);
  EXPECT_EQ(a.medoids, b.medoids);
  for (size_t c = 0; c < 3; ++c) EXPECT_EQ(a.clusters[c], b.clusters[c]);
}

TEST(KMeansTest, NoEmptyClustersEvenWithDuplicatePoints) {
  // All points identical: assignments collapse to cluster 0, the reseeding
  // logic must still emit k non-empty clusters.
  Tensor points = Tensor::Ones({6, 2});
  Rng rng(61);
  KMeansResult result = KMeansClusters(points, 3, rng);
  ASSERT_EQ(result.clusters.size(), 3u);
  for (const Hyperedge& c : result.clusters) EXPECT_FALSE(c.empty());
  std::set<int64_t> all;
  for (const Hyperedge& c : result.clusters) all.insert(c.begin(), c.end());
  EXPECT_EQ(all.size(), 6u);
}

TEST(KMeansHyperedgesTest, MatchesClusters) {
  Tensor points = ClusteredPoints();
  Rng rng1(62), rng2(62);
  std::vector<Hyperedge> edges = KMeansHyperedges(points, 3, rng1);
  KMeansResult result = KMeansClusters(points, 3, rng2);
  ASSERT_EQ(edges.size(), result.clusters.size());
  for (size_t c = 0; c < edges.size(); ++c) {
    EXPECT_EQ(edges[c], result.clusters[c]);
  }
}

// --- Against the replaced implementations ------------------------------------------

// Points on a coarse grid with every third point duplicated: exact
// distance ties everywhere, zero distances, and K-means runs that empty
// clusters and steal for them.
Tensor TiedPoints(int64_t v, uint64_t seed) {
  Rng rng(seed);
  Tensor points({v, 2});
  for (int64_t i = 0; i < v; ++i) {
    for (int64_t d = 0; d < 2; ++d) {
      points.at(i, d) = i % 3 == 2 ? points.at(i - 1, d)
                                   : static_cast<float>(rng.UniformInt(0, 3));
    }
  }
  return points;
}

TEST(OracleConformanceTest, KnnMatchesStableSortSelection) {
  for (int64_t v : {6, 13, 25}) {
    Tensor points = TiedPoints(v, static_cast<uint64_t>(70 + v));
    Tensor dist = PairwiseDistances(points);
    for (int64_t k = 1; k <= v; ++k) {
      EXPECT_EQ(KnnHyperedges(points, k), oracles::KnnHyperedges(points, k))
          << "V=" << v << " k=" << k;
      EXPECT_EQ(NearestNeighbors(dist, v / 2, k - 1),
                oracles::NearestNeighbors(dist, v / 2, k - 1));
    }
  }
}

TEST(OracleConformanceTest, KMeansMatchesVectorOfClusters) {
  for (int64_t v : {6, 13, 25}) {
    Tensor points = TiedPoints(v, static_cast<uint64_t>(80 + v));
    for (int64_t k = 1; k <= v; ++k) {
      for (int64_t iters : {1, 2, 20}) {
        Rng rng(static_cast<uint64_t>(90 + k));
        Rng oracle_rng(static_cast<uint64_t>(90 + k));
        KMeansResult actual = KMeansClusters(points, k, rng, iters);
        KMeansResult expected =
            oracles::KMeansClusters(points, k, oracle_rng, iters);
        EXPECT_EQ(actual.clusters, expected.clusters)
            << "V=" << v << " k=" << k << " iters=" << iters;
        EXPECT_EQ(actual.medoids, expected.medoids);
        EXPECT_EQ(actual.iterations, expected.iterations);
        EXPECT_EQ(actual.converged, expected.converged);
      }
    }
  }
}

// NaN distances order after every number: a NaN neighbour comes last,
// and a vertex joins its nearest finite medoid rather than a NaN one.
TEST(KnnKmeansNaNTest, NaNDistancesOrderAfterNumbers) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor points = Tensor::FromVector({4, 1}, {0.0f, 0.1f, nan, 5.0f});
  Tensor dist = PairwiseDistances(points);
  EXPECT_EQ(NearestNeighbors(dist, 0, 3), (std::vector<int64_t>{1, 3, 2}));
  std::vector<int64_t> medoids = {2, 3}, next(2), assignment(4), offsets(3),
                       members(4);
  bool converged = false;
  detail::KMeansMedoids(dist.data(), 4, 2, /*max_iters=*/1,
                        {medoids.data(), next.data(), assignment.data(),
                         offsets.data(), members.data()},
                        &converged);
  EXPECT_EQ(assignment, (std::vector<int64_t>{1, 1, 0, 1}));

  // Vertices 0 and 1 coincide, 2 and 3 are NaN: everything joins medoid
  // 0, and the empty cluster takes the first node at NaN distance, the
  // farthest in this order.
  std::vector<float> d = {0, 0, nan, nan,  0, 0, nan, nan,
                          nan, nan, 0, nan,  nan, nan, nan, 0};
  medoids = {0, 1};
  detail::KMeansMedoids(d.data(), 4, 2, /*max_iters=*/1,
                        {medoids.data(), next.data(), assignment.data(),
                         offsets.data(), members.data()},
                        &converged);
  EXPECT_EQ(assignment, (std::vector<int64_t>{0, 0, 1, 0}));
}

// NaN distances order after every number, so a poisoned frame still
// splits into k non-empty clusters instead of failing the donor check.
TEST(KMeansTest, NaNFeaturesStillGiveKNonEmptyClusters) {
  Tensor points = ClusteredPoints();
  points.at(3, 1) = std::numeric_limits<float>::quiet_NaN();
  Tensor all_nan =
      Tensor::Full({7, 2}, std::numeric_limits<float>::quiet_NaN());
  for (const Tensor& features : {points, all_nan}) {
    const int64_t v = features.dim(0);
    Rng rng(63);
    KMeansResult result = KMeansClusters(features, 4, rng);
    ASSERT_EQ(result.clusters.size(), 4u);
    std::set<int64_t> all;
    for (const Hyperedge& c : result.clusters) {
      EXPECT_FALSE(c.empty());
      all.insert(c.begin(), c.end());
    }
    EXPECT_EQ(static_cast<int64_t>(all.size()), v);
    std::vector<Hyperedge> knn = KnnHyperedges(features, 3);
    for (const Hyperedge& e : knn) {
      EXPECT_EQ(std::set<int64_t>(e.begin(), e.end()).size(), 3u);
    }
  }
}

}  // namespace
}  // namespace dhgcn

#include "tensor/sparse.h"

#include "gtest/gtest.h"

#include "base/rng.h"
#include "core/static_hypergraph.h"
#include "data/skeleton.h"
#include "hypergraph/graph.h"
#include "hypergraph/hypergraph_conv.h"
#include "tensor/tensor_ops.h"
#include "tests/oracles.h"

namespace dhgcn {
namespace {

Tensor RandomSparseDense(int64_t rows, int64_t cols, float keep_prob,
                         Rng& rng) {
  Tensor dense({rows, cols});
  for (int64_t i = 0; i < dense.numel(); ++i) {
    if (rng.Bernoulli(keep_prob)) dense.flat(i) = rng.Normal();
  }
  return dense;
}

// --- CsrMatrix construction ---------------------------------------------------

TEST(CsrMatrixTest, EmptyMatrixHasNoEntries) {
  CsrMatrix csr(3, 4);
  EXPECT_EQ(csr.rows(), 3);
  EXPECT_EQ(csr.cols(), 4);
  EXPECT_EQ(csr.nnz(), 0);
  EXPECT_TRUE(AllClose(oracles::CsrToDense(csr), Tensor::Zeros({3, 4})));
}

TEST(CsrMatrixTest, AssignFromDenseDropsBelowTolerance) {
  Tensor dense = Tensor::FromVector({2, 2}, {0.5f, 0.01f, -0.02f, 0.0f});
  CsrMatrix csr(1, 1);
  csr.AssignFromDense(dense, /*tolerance=*/0.05f);
  EXPECT_EQ(csr.nnz(), 1);
  EXPECT_FLOAT_EQ(oracles::CsrToDense(csr).at(0, 0), 0.5f);
}

TEST(CsrMatrixTest, RowPtrIsMonotoneAndConsistent) {
  Rng rng(2);
  Tensor dense = RandomSparseDense(10, 6, 0.25f, rng);
  CsrMatrix csr(1, 1);
  csr.AssignFromDense(dense);
  const auto& row_ptr = csr.row_ptr();
  ASSERT_EQ(row_ptr.size(), 11u);
  EXPECT_EQ(row_ptr.front(), 0);
  EXPECT_EQ(row_ptr.back(), csr.nnz());
  for (size_t r = 0; r + 1 < row_ptr.size(); ++r) {
    EXPECT_LE(row_ptr[r], row_ptr[r + 1]);
    for (int64_t k = row_ptr[r] + 1; k < row_ptr[r + 1]; ++k) {
      EXPECT_LT(csr.col_idx()[k - 1], csr.col_idx()[k]) << "row " << r;
    }
  }
}

// --- Structural operator densities ------------------------------------------

TEST(OperatorDensityTest, StaticHypergraphOperatorRoutesToCsr) {
  // The design-choice rationale: structural operators have exploitable
  // sparsity. The NTU static-hypergraph operator sits below the CSR
  // crossover, but is not diagonal either.
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kNtu25);
  Tensor op = NormalizedHypergraphOperator(StaticSkeletonHypergraph(layout));
  EXPECT_TRUE(ShouldRouteSparse(MeasureDensity(op)));
  EXPECT_GT(MeasureDensity(op), 25.0 / 625.0);
}

TEST(OperatorDensityTest, SkeletonAdjacencyIsVerySparse) {
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kNtu25);
  CsrMatrix csr(1, 1);
  csr.AssignFromDense(SkeletonGraph(layout).NormalizedAdjacency(), 1e-8f);
  // Tree adjacency + self loops: nnz = 2 * 24 + 25 = 73 of 625.
  EXPECT_EQ(csr.nnz(), 73);
  EXPECT_LT(static_cast<double>(csr.nnz()) / 625.0, 0.15);
}

}  // namespace
}  // namespace dhgcn

#ifndef DHGCN_TENSOR_SPARSE_H_
#define DHGCN_TENSOR_SPARSE_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace dhgcn {

/// Density crossover of the CSR kernels: an operand at or below it
/// takes the CSR path, above it the dense loop. Measured by
/// `bench_sparse` (BENCH_sparse.json) for CSR SpMM against the blocked
/// GEMM on a 256x256 operand; in the same run the routed `VertexMix`
/// still beat its dense loop 2.2x at 35% density, so the constant is
/// conservative for the mix kernels.
inline constexpr double kSparseDensityCrossover = 0.35;

/// Fraction of nonzero entries in `[data, data + numel)`.
double MeasureDensity(const float* data, int64_t numel);
double MeasureDensity(const Tensor& t);

/// The routing decision for an operand of the given density. The CSR
/// kernels below are bit-identical to their dense counterparts, so the
/// decision only picks the faster kernel, never the result.
constexpr bool ShouldRouteSparse(double density) {
  return density <= kSparseDensityCrossover;
}

/// \brief Compressed-sparse-row matrix.
///
/// The structural operators of graph/hypergraph convolution (normalized
/// adjacency, incidence products, K-NN operators) are sparse; this class
/// provides the storage plus the kernels to exploit that. Values are
/// float32, indices are int64, rows are stored in ascending column
/// order.
class CsrMatrix {
 public:
  /// Empty rows x cols matrix (all zero).
  CsrMatrix(int64_t rows, int64_t cols);

  /// In-place rebuild from a dense (rows, cols) tensor, dropping entries
  /// with |value| <= tolerance and reusing the index and value capacity
  /// of the previous build — the steady-state path for data-dependent
  /// operands (the weighted incidence of Eqs. 8–9) that re-compress
  /// every call without heap growth once warm.
  void AssignFromDense(const Tensor& dense, float tolerance = 0.0f);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int64_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

 private:
  int64_t rows_;
  int64_t cols_;
  std::vector<int64_t> row_ptr_;  // rows + 1 entries
  std::vector<int64_t> col_idx_;  // nnz entries
  std::vector<float> values_;     // nnz entries
};

/// \brief Sparse row dots: C (R,M) = dense A (R,K) * Bᵀ for CSR B
/// (M,K), each output element a double-precision dot of a CSR row of B
/// with a dense row of A (ascending column order). This is the sparse
/// twin of `MatMulTransposedBInto` / the VertexMix aggregation loop and
/// is bit-identical to them: the skipped zero-operand products are
/// exact no-ops in the double accumulator. Parallel over the rows of A.
void SpMMTransposedBInto(const Tensor& a, const CsrMatrix& b, Tensor* c);

/// \brief Vertex-axis gather for the mix layers: for every leading row
/// of `x` (..., V), y[..., vi] = double-dot(op row vi, x row). `x` and
/// `y` may have any rank with a trailing vertex axis == op.cols();
/// delegates to the SpMMTransposedBInto loop on the flattened view.
void SparseMixInto(const CsrMatrix& op, const Tensor& x, Tensor* y);

/// \brief Vertex-axis scatter for the mix backward passes: for every
/// leading row, gi[..., u] += g[..., vi] * op[vi, u] with vi ascending
/// and g == 0 rows skipped — the exact float operation sequence of the
/// dense VertexMix backward, so results are bit-identical to it.
/// `gi` must be zero-initialized (or hold a prior gradient to
/// accumulate into). Parallel over leading rows (disjoint gi rows).
void SparseMixBackwardInto(const CsrMatrix& op, const Tensor& g, Tensor* gi);

}  // namespace dhgcn

#endif  // DHGCN_TENSOR_SPARSE_H_

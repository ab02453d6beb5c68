#include "tensor/sparse.h"

#include <cmath>

#include "base/check.h"
#include "base/thread_pool.h"

namespace dhgcn {

double MeasureDensity(const float* data, int64_t numel) {
  if (numel <= 0) return 0.0;
  int64_t nonzero = 0;
  for (int64_t i = 0; i < numel; ++i) {
    if (data[i] != 0.0f) ++nonzero;
  }
  return static_cast<double>(nonzero) / static_cast<double>(numel);
}

double MeasureDensity(const Tensor& t) {
  return MeasureDensity(t.data(), t.numel());
}

CsrMatrix::CsrMatrix(int64_t rows, int64_t cols)
    : rows_(rows), cols_(cols),
      row_ptr_(static_cast<size_t>(rows) + 1, 0) {
  DHGCN_CHECK_GT(rows, 0);
  DHGCN_CHECK_GT(cols, 0);
}

void CsrMatrix::AssignFromDense(const float* data, int64_t rows,
                                int64_t cols, float tolerance) {
  DHGCN_CHECK_GT(rows, 0);
  DHGCN_CHECK_GT(cols, 0);
  rows_ = rows;
  cols_ = cols;
  row_ptr_.resize(static_cast<size_t>(rows) + 1);
  col_idx_.clear();   // keeps capacity: no heap traffic once warm
  values_.clear();
  row_ptr_[0] = 0;
  for (int64_t r = 0; r < rows_; ++r) {
    const float* row = data + r * cols_;
    for (int64_t c = 0; c < cols_; ++c) {
      float v = row[c];
      if (std::fabs(v) > tolerance) {
        col_idx_.push_back(c);
        values_.push_back(v);
      }
    }
    row_ptr_[static_cast<size_t>(r) + 1] =
        static_cast<int64_t>(values_.size());
  }
}

void CsrMatrix::AssignFromDense(const Tensor& dense, float tolerance) {
  DHGCN_CHECK_EQ(dense.ndim(), 2);
  AssignFromDense(dense.data(), dense.dim(0), dense.dim(1), tolerance);
}

namespace {

// Shared core of SpMMTransposedBInto / SparseMixInto: for `rows` dense
// rows of width k_dim, out[r, j] = double-dot(CSR row j of b, row r).
// Chunks write disjoint output rows; the per-element double accumulator
// visits columns in ascending order, matching the dense
// GemmTransposedB / VertexMix loops term-for-term (zero products are
// exact no-ops in the double sum), hence bit-identical to them.
void SparseRowDots(const CsrMatrix& b, const float* pa, float* pc,
                   int64_t rows, int64_t k_dim) {
  DHGCN_CHECK_EQ(k_dim, b.cols());
  const int64_t m = b.rows();
  const int64_t* row_ptr = b.row_ptr().data();
  const int64_t* col_idx = b.col_idx().data();
  const float* values = b.values().data();
  const int64_t flops_per_row = b.nnz() + 1;
  ThreadPool::Get().ParallelFor(
      0, rows, GrainForFlops(flops_per_row),
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t r = row_begin; r < row_end; ++r) {
          const float* arow = pa + r * k_dim;
          float* crow = pc + r * m;
          for (int64_t j = 0; j < m; ++j) {
            double acc = 0.0;
            for (int64_t k = row_ptr[j]; k < row_ptr[j + 1]; ++k) {
              acc += static_cast<double>(values[k]) * arow[col_idx[k]];
            }
            crow[j] = static_cast<float>(acc);
          }
        }
      });
}

}  // namespace

void SpMMTransposedBInto(const Tensor& a, const CsrMatrix& b, Tensor* c) {
  DHGCN_CHECK(c != nullptr);
  DHGCN_CHECK_EQ(a.ndim(), 2);
  DHGCN_CHECK_EQ(c->ndim(), 2);
  DHGCN_CHECK_EQ(a.dim(1), b.cols());
  DHGCN_CHECK_EQ(c->dim(0), a.dim(0));
  DHGCN_CHECK_EQ(c->dim(1), b.rows());
  SparseRowDots(b, a.data(), c->data(), a.dim(0), a.dim(1));
}

void SparseMixInto(const CsrMatrix& op, const Tensor& x, Tensor* y) {
  DHGCN_CHECK(y != nullptr);
  DHGCN_CHECK_GE(x.ndim(), 1);
  DHGCN_CHECK_EQ(x.dim(x.ndim() - 1), op.cols());
  DHGCN_CHECK_EQ(op.rows(), op.cols());
  DHGCN_CHECK_EQ(y->numel(), x.numel());
  const int64_t v = op.cols();
  SparseRowDots(op, x.data(), y->data(), x.numel() / v, v);
}

void SparseMixBackwardInto(const CsrMatrix& op, const Tensor& g,
                           Tensor* gi) {
  DHGCN_CHECK(gi != nullptr);
  DHGCN_CHECK_GE(g.ndim(), 1);
  const int64_t v = op.rows();
  DHGCN_CHECK_EQ(op.cols(), v);
  DHGCN_CHECK_EQ(g.dim(g.ndim() - 1), v);
  DHGCN_CHECK_EQ(gi->numel(), g.numel());
  const int64_t rows = g.numel() / v;
  const float* pg = g.data();
  float* pgi = gi->data();
  const int64_t* row_ptr = op.row_ptr().data();
  const int64_t* col_idx = op.col_idx().data();
  const float* values = op.values().data();
  const int64_t flops_per_row = op.nnz() + 1;
  ThreadPool::Get().ParallelFor(
      0, rows, GrainForFlops(flops_per_row),
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t r = row_begin; r < row_end; ++r) {
          const float* grow = pg + r * v;
          float* girow = pgi + r * v;
          for (int64_t vi = 0; vi < v; ++vi) {
            const float gval = grow[vi];
            if (gval == 0.0f) continue;  // same skip as the dense backward
            for (int64_t k = row_ptr[vi]; k < row_ptr[vi + 1]; ++k) {
              girow[col_idx[k]] += gval * values[k];
            }
          }
        }
      });
}

}  // namespace dhgcn

#ifndef DHGCN_HYPERGRAPH_HYPERGRAPH_CONV_H_
#define DHGCN_HYPERGRAPH_HYPERGRAPH_CONV_H_

#include <string>

#include "hypergraph/hypergraph.h"
#include "nn/layer.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace dhgcn {

/// \brief Normalized hypergraph convolution operator (Eq. 5):
///   Omega = Dv^{-1/2} H W De^{-1} H^T Dv^{-1/2}   (V, V)
///
/// Note: the paper prints Dv^{1/2}; the standard HGNN operator (Feng et
/// al. 2019, the paper's reference [6]) uses Dv^{-1/2}, which is what we
/// implement — the positive exponent would amplify high-degree vertices
/// and is a typo. Isolated vertices (degree 0) map to zero rows/columns.
/// With a workspace, the operator is arena-backed.
Tensor NormalizedHypergraphOperator(const Hypergraph& hypergraph,
                                    Workspace* ws = nullptr);

namespace detail {

/// Eq. 5 straight from edge lists — the one implementation behind
/// `NormalizedHypergraphOperator` and the dynamic-topology pass.
/// Hyperedge e is members[offsets[e], offsets[e+1]) with weight
/// weights[e] (unit weights when `weights` is null); every edge must be
/// a vertex set. Writes Omega (nv, nv) row-major to `omega`. Serial and
/// free of kernel scratch: `degrees` (nv floats) and `acc`
/// (nv * nv doubles) are caller-owned.
void NormalizedOperatorFromEdges(int64_t nv, int64_t ne,
                                 const int64_t* offsets,
                                 const int64_t* members,
                                 const float* weights, float* degrees,
                                 double* acc, float* omega);

}  // namespace detail

/// \brief Operator from a weighted incidence matrix (Eqs. 8–9):
/// given Imp = W_all ⊙ H of shape (V, E), returns Imp Imp^T of shape (V, V).
Tensor WeightedIncidenceOperator(const Tensor& imp,
                                 Workspace* ws = nullptr);

/// \brief Applies a fixed (V, V) vertex-mixing operator to (N, C, T, V)
/// inputs:
///   Y[n,c,t,v] = sum_u M[v,u] X[n,c,t,u].
///
/// This is the aggregation half of both graph and hypergraph convolution;
/// composing it with a 1x1 Conv2d gives the full X^(l+1) = sigma(M X Theta)
/// update. The operator is fixed structure, so its density is measured
/// once at construction: an operator at or below the CSR crossover runs
/// the CSR kernels, a denser one (PB-HGCN's part operators) the dense
/// mix kernel (tensor/gemm_kernel.h). Both produce the same bits.
class VertexMix : public Layer {
 public:
  explicit VertexMix(Tensor op);

  std::string name() const override;
  int64_t Record(PlanBuilder& builder, int64_t in) override;

  /// Plan-replay entry: applies the (V, V) operator into the pre-shaped
  /// `out` — the exact loop of the layer forward (bit-identical), minus
  /// the autograd input cache.
  void MixPlan(const Tensor& input, Tensor* out) const;

  const Tensor& op() const { return op_; }

 private:
  Tensor ForwardImpl(const Tensor& input, Workspace* ws) override;
  Tensor BackwardImpl(const Tensor& grad_output, Workspace* ws) override;

  Tensor op_;  // (V, V)
  Tensor cached_input_;
  // Routing decision and CSR image, fixed at construction.
  bool routed_ = false;
  CsrMatrix op_csr_{1, 1};
};

/// \brief Applies per-sample, per-frame (V, V) operators to (N, C, T, V):
///   Y[n,c,t,v] = sum_u Ops[n,t,v,u] X[n,c,t,u].
///
/// The operators are data-dependent structure (dynamic joint weight /
/// dynamic topology) and are treated as constants in backward, exactly as
/// the non-differentiable K-NN / K-means selection requires. Both passes
/// run the N·T frames in parallel through the dense mix kernel, with no
/// density probe.
class DynamicVertexMix : public Layer {
 public:
  DynamicVertexMix() = default;

  /// Must be called before Forward with operators of shape (N, T, V, V)
  /// matching the upcoming input's N, T, V.
  void SetOperators(Tensor ops);

  std::string name() const override { return "DynamicVertexMix"; }

  /// Plan-replay entry: applies explicit per-frame operators `ops`
  /// (N, T, V, V) to `input` (N, C, T, V) into the pre-shaped `out`.
  /// The layer forward delegates here with its stashed `ops_`, so both
  /// paths share one loop (bit-identical). Plans pass the operator slot
  /// directly instead of going through `SetOperators`.
  void MixPlan(const Tensor& input, const Tensor& ops, Tensor* out) const;

 private:
  Tensor ForwardImpl(const Tensor& input, Workspace* ws) override;
  Tensor BackwardImpl(const Tensor& grad_output, Workspace* ws) override;

  Tensor ops_;  // (N, T, V, V)
};

}  // namespace dhgcn

#endif  // DHGCN_HYPERGRAPH_HYPERGRAPH_CONV_H_

// Fixture: dense GEMM on an incidence operand bypassing the router
// (rule sparse-route).
namespace dhgcn {

void UnroutedVertexMix(const Tensor& op, const Tensor& x, Tensor* y) {
  // Contracting against the (V, V) aggregation operator without asking
  // ShouldRouteSparse defeats density-adaptive execution.
  MatMulTransposedBInto(x, op, y);
}

}  // namespace dhgcn

// Fixture: a reviewed dense fallback is the sanctioned exception —
// every dense call carries the line-level escape hatch.
namespace dhgcn {

void RoutedVertexMix(const Tensor& op, const Tensor& x, Tensor* y) {
  if (ShouldRouteSparse(MeasureDensity(op))) {
    SpMMTransposedBInto(x, CachedCsr(op), y);
    return;
  }
  // lint: allow-sparse-route (dense fallback)
  MatMulTransposedBInto(x, op, y);
}

}  // namespace dhgcn

// Fixture: a ForwardImpl override without a BackwardImpl override (rule
// fwd-bwd-pair).
namespace dhgcn {

class Tensor;
class Workspace;

class HalfLayer {
 private:
  Tensor ForwardImpl(const Tensor& input, Workspace* ws);
};

}  // namespace dhgcn

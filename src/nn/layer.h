#ifndef DHGCN_NN_LAYER_H_
#define DHGCN_NN_LAYER_H_

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace dhgcn {

class PlanBuilder;
class Workspace;

/// \brief A named parameter with its gradient accumulator.
///
/// `value` and `grad` point into the owning layer; they stay valid for the
/// lifetime of that layer. Optimizers mutate `value` and read/clear `grad`
/// for trainable entries. Non-trainable entries (`trainable == false`,
/// e.g. batch-norm running statistics) carry persistent state that must be
/// serialized with the model but never optimized; their `grad` may be
/// null.
struct ParamRef {
  std::string name;
  Tensor* value;
  Tensor* grad;
  bool trainable = true;
};

/// \brief Base class for differentiable network modules.
///
/// This library uses explicit reverse-mode layers (Caffe-style) rather than
/// a taped autograd: `Forward` caches whatever the layer needs, `Backward`
/// consumes the gradient w.r.t. the layer output, *accumulates* gradients
/// into its parameters' `grad` tensors, and returns the gradient w.r.t. the
/// layer input. Call order within a training step must therefore be
/// Forward -> Backward on each layer, innermost activations first.
///
/// A layer implements exactly one virtual pair, `ForwardImpl` and
/// `BackwardImpl`, each taking an optional Workspace. With a workspace,
/// returned activations and cached state may borrow arena storage (valid
/// until the next `ws.Reset()`); with null, every returned tensor owns its
/// storage. Both run the same kernels, so both give the same bits.
/// Parameter gradients always accumulate into owning storage. A layer may
/// ignore the workspace and return owning tensors; the baseline zoo does
/// (DESIGN.md §6 gives the reason). The public entry points below are
/// non-virtual spellings of that pair.
class Layer {
 public:
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes the layer output, caching state needed by Backward.
  Tensor Forward(const Tensor& input, Workspace* ws = nullptr) {
    return ForwardImpl(input, ws);
  }

  /// Propagates `grad_output` (d loss / d output) through the layer;
  /// returns d loss / d input and accumulates parameter gradients.
  Tensor Backward(const Tensor& grad_output, Workspace* ws = nullptr) {
    return BackwardImpl(grad_output, ws);
  }

  /// `Forward(input, &ws)`, assigned to `*out`.
  void ForwardInto(const Tensor& input, Workspace& ws, Tensor* out);

  /// `Backward(grad_output, &ws)`, assigned to `*grad_input`.
  void BackwardInto(const Tensor& grad_output, Workspace& ws,
                    Tensor* grad_input);

  /// Records this layer's inference computation into an execution plan
  /// (see src/plan/). `in` is the plan slot holding the layer input;
  /// the return value is the slot holding the layer output (which may
  /// equal `in` for identity passes such as eval-mode Dropout). Shapes
  /// are propagated at record time — no sample batch is run. Returns -1
  /// when the layer does not support plan capture, in which case the
  /// caller falls back to the layer-by-layer path. Capture is
  /// inference-only: implementations record their eval behaviour and
  /// must be invoked with `training() == false`.
  virtual int64_t Record(PlanBuilder& builder, int64_t in);

  /// All persistent state: learnable parameters plus non-trainable
  /// buffers (see ParamRef::trainable). References remain valid while
  /// the layer is alive. Optimizers must filter on `trainable`;
  /// serialization saves everything.
  virtual std::vector<ParamRef> Params() { return {}; }

  /// Switches between training and inference behaviour (dropout,
  /// batch-norm statistics).
  virtual void SetTraining(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Diagnostic name, e.g. "Conv2d(16->32, 3x1)".
  virtual std::string name() const = 0;

  /// Clears all parameter gradients to zero.
  void ZeroGrad();

  /// Total number of *trainable* scalars.
  int64_t ParameterCount();

 protected:
  Layer() = default;

 private:
  virtual Tensor ForwardImpl(const Tensor& input, Workspace* ws) = 0;
  virtual Tensor BackwardImpl(const Tensor& grad_output, Workspace* ws) = 0;

  bool training_ = true;
};

using LayerPtr = std::unique_ptr<Layer>;

/// Free-function spelling of `layer.Forward(input, ws)`, kept for the
/// perfbench driver, which calls it.
inline Tensor LayerForward(Layer& layer, const Tensor& input, Workspace* ws) {
  return layer.Forward(input, ws);
}

}  // namespace dhgcn

#endif  // DHGCN_NN_LAYER_H_

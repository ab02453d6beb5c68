#ifndef DHGCN_PLAN_PLAN_H_
#define DHGCN_PLAN_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/result.h"
#include "tensor/tensor.h"

namespace dhgcn {

class BatchNorm2d;
class Conv2d;
class CsrMatrix;
class DynamicVertexMix;
class GlobalAvgPool2d;
class Hypergraph;
class Linear;
class VertexMix;
struct DynamicTopologyOptions;

/// Plan execution mode, selected via `--plan on|fused`:
///  - kUnfused: compiled plan, bit-identical to the layer path.
///  - kFused:   compiled plan with Conv→BN folding and elementwise
///              fusion (rtol-equivalent, not bit-exact).
enum class PlanMode { kUnfused, kFused };

Result<PlanMode> ParsePlanMode(const std::string& text);
const char* PlanModeName(PlanMode mode);

/// Kinds of execution-plan operations. Each kind dispatches through a
/// flat switch in `PlanRunner::Run` to a non-virtual kernel — the same
/// kernel code the layer-by-layer path runs, which is what makes the
/// unfused replay memcmp-bit-identical.
enum class PlanOpKind : uint8_t {
  kConv2d,          // out = conv(in0), layer parameters
  kConv2dFolded,    // out = conv(in0), BN-folded fold_weight/fold_bias
  kBatchNormEval,   // out = eval-mode BN(in0), running statistics
  kRelu,            // out = max(in0, 0)
  kLinear,          // out = in0 W^T + b, layer parameters
  kLinearFolded,    // out = in0 W'^T + b', BN-folded parameters
  kGlobalAvgPool,   // (N,C,H,W) -> (N,C) spatial mean
  kVertexMix,       // out[.., v] = sum_u Op[v,u] in0[.., u]
  kDynamicVertexMix,// per-frame operators from slot in1
  kJointWeightOps,  // opaque: DynamicJointWeightOperators(in0)
  kStrideOps,       // opaque: StrideOperatorsInTime(in0, stride)
  kTopologyOps,     // opaque: DynamicTopologyOperators(in0, *topology)
  kAccumulate,      // out += in0 (out is an already-defined slot)
  kBnAddRelu,       // fused: out = relu(scale*in0 + shift + in1)
  kAddRelu,         // fused: out = relu(in0 + in1)
  kSpMM,            // sparse VertexMix: out[.., v] = csr row-dot in0[.., :]
  kLinearInt8,      // int8 GEMM + dequant epilogue (quant data on op)
  kConv2dInt8Folded,// int8 im2col GEMM + BN/bias/ReLU dequant epilogue
};

const char* PlanOpKindName(PlanOpKind kind);

/// Frozen quantization payload of a kLinearInt8/kConv2dInt8Folded op
/// (packed int8 weight panels, per-channel dequant scales, zero-point
/// compensation). Defined in quant/quant_ops.h; the plan IR only holds
/// an opaque shared handle so plan.h stays quantization-free.
struct QuantOpData;

/// One recorded operation. Slot indices refer to `ExecutionPlan::slots`;
/// -1 means unused. Layer pointers are non-owning — the recorded model
/// must outlive the plan. Fold tensors are owned freeze-time copies
/// produced by the fusion passes.
struct PlanOp {
  PlanOpKind kind = PlanOpKind::kRelu;
  int64_t in0 = -1;
  int64_t in1 = -1;
  int64_t out = -1;

  const Conv2d* conv = nullptr;
  BatchNorm2d* bn = nullptr;
  const Linear* linear = nullptr;
  GlobalAvgPool2d* pool = nullptr;
  const VertexMix* mix = nullptr;
  const DynamicVertexMix* dyn_mix = nullptr;
  /// kSpMM: CSR image of the routed operator, owned by the recording
  /// layer (captured at record time — a fixed operator's density can't
  /// change after capture, so the routing decision is baked in).
  const CsrMatrix* csr = nullptr;
  const Hypergraph* hypergraph = nullptr;
  const DynamicTopologyOptions* topology = nullptr;
  int64_t stride = 1;

  Tensor fold_weight;  // kConv2dFolded / kLinearFolded
  Tensor fold_bias;    // kConv2dFolded / kLinearFolded
  Tensor fold_scale;   // kBnAddRelu: per-channel gamma/sqrt(var+eps)
  Tensor fold_shift;   // kBnAddRelu: per-channel beta - mean*scale

  /// kLinearInt8 / kConv2dInt8Folded: frozen quantization payload,
  /// produced by QuantizePlan. Shared so plan copies stay cheap.
  std::shared_ptr<const QuantOpData> quant;
};

/// One activation slot: a tensor of fixed shape living at a fixed byte
/// offset in the runner's pinned arena. Offsets are resolved once by
/// `ResolveOffsets` (liveness-packed, so disjoint-lifetime slots alias
/// the same bytes); -1 marks a dead slot (eliminated by fusion) that
/// gets no storage.
struct PlanSlot {
  Shape shape;
  int64_t offset_bytes = -1;
};

/// A recorded inference program: flat op list + slot table. Produced by
/// `CaptureInferencePlan`, optionally rewritten by the fusion passes,
/// then finalized by `ResolveOffsets` before a PlanRunner can replay it.
struct ExecutionPlan {
  std::vector<PlanOp> ops;
  std::vector<PlanSlot> slots;
  int64_t input_slot = -1;
  int64_t output_slot = -1;
  /// Bytes of the pinned arena after offset resolution.
  size_t arena_bytes = 0;
  bool resolved = false;

  /// Debug: one line per op (kind, slots, shapes).
  std::string Summary() const;
};

/// Assigns every live slot a byte offset via linear-scan liveness
/// packing: a slot's storage is recycled for slots defined after its
/// last use (exact-size reuse), so the arena is far smaller than the
/// sum of slot sizes. Input and output slots are never recycled — the
/// input is rewritten at the start of every replay and the output must
/// survive until the caller has consumed it. Idempotent requirement:
/// call once, after any fusion passes.
void ResolveOffsets(ExecutionPlan* plan);

}  // namespace dhgcn

#endif  // DHGCN_PLAN_PLAN_H_

#include "plan/plan.h"

#include <algorithm>
#include <unordered_map>

#include "base/check.h"
#include "base/string_util.h"
#include "tensor/workspace.h"

namespace dhgcn {

namespace {

size_t AlignedSlotBytes(const Shape& shape) {
  size_t bytes = static_cast<size_t>(ShapeNumel(shape)) * sizeof(float);
  return (bytes + Workspace::kAlignment - 1) &
         ~(Workspace::kAlignment - 1);
}

std::string ShapeString(const Shape& shape) {
  std::string out = "(";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out += ",";
    out += StrCat(shape[i]);
  }
  out += ")";
  return out;
}

}  // namespace

Result<PlanMode> ParsePlanMode(const std::string& text) {
  if (text == "on" || text == "unfused") return PlanMode::kUnfused;
  if (text == "fused") return PlanMode::kFused;
  return Status::InvalidArgument(
      StrCat("unknown plan mode '", text, "' (expected on|fused)"));
}

const char* PlanModeName(PlanMode mode) {
  switch (mode) {
    case PlanMode::kUnfused: return "on";
    case PlanMode::kFused: return "fused";
  }
  return "?";
}

const char* PlanOpKindName(PlanOpKind kind) {
  switch (kind) {
    case PlanOpKind::kConv2d: return "Conv2d";
    case PlanOpKind::kConv2dFolded: return "Conv2dFolded";
    case PlanOpKind::kBatchNormEval: return "BatchNormEval";
    case PlanOpKind::kRelu: return "Relu";
    case PlanOpKind::kLinear: return "Linear";
    case PlanOpKind::kLinearFolded: return "LinearFolded";
    case PlanOpKind::kGlobalAvgPool: return "GlobalAvgPool";
    case PlanOpKind::kVertexMix: return "VertexMix";
    case PlanOpKind::kDynamicVertexMix: return "DynamicVertexMix";
    case PlanOpKind::kJointWeightOps: return "JointWeightOps";
    case PlanOpKind::kStrideOps: return "StrideOps";
    case PlanOpKind::kTopologyOps: return "TopologyOps";
    case PlanOpKind::kAccumulate: return "Accumulate";
    case PlanOpKind::kBnAddRelu: return "BnAddRelu";
    case PlanOpKind::kAddRelu: return "AddRelu";
    case PlanOpKind::kSpMM: return "SpMM";
    case PlanOpKind::kLinearInt8: return "LinearInt8";
    case PlanOpKind::kConv2dInt8Folded: return "Conv2dInt8Folded";
  }
  return "?";
}

std::string ExecutionPlan::Summary() const {
  std::string out = StrCat("plan: ", ops.size(), " ops, ", slots.size(),
                           " slots, arena=", arena_bytes, "B\n");
  for (size_t i = 0; i < ops.size(); ++i) {
    const PlanOp& op = ops[i];
    out += StrCat("  [", i, "] ", PlanOpKindName(op.kind), " in0=", op.in0,
                  " in1=", op.in1, " out=", op.out);
    if (op.out >= 0) {
      out += StrCat(" ", ShapeString(slots[static_cast<size_t>(op.out)].shape),
                    " @", slots[static_cast<size_t>(op.out)].offset_bytes);
    }
    out += "\n";
  }
  return out;
}

void ResolveOffsets(ExecutionPlan* plan) {
  DHGCN_CHECK(plan != nullptr);
  DHGCN_CHECK(!plan->resolved);
  const int64_t num_slots = static_cast<int64_t>(plan->slots.size());
  const int64_t num_ops = static_cast<int64_t>(plan->ops.size());
  DHGCN_CHECK_GE(plan->input_slot, 0);
  DHGCN_CHECK_GE(plan->output_slot, 0);

  // Last op that references each slot (-1 = dead, eliminated by fusion).
  std::vector<int64_t> last_use(static_cast<size_t>(num_slots), -1);
  auto touch = [&](int64_t slot, int64_t op) {
    if (slot >= 0) last_use[static_cast<size_t>(slot)] = op;
  };
  for (int64_t i = 0; i < num_ops; ++i) {
    const PlanOp& op = plan->ops[static_cast<size_t>(i)];
    touch(op.in0, i);
    touch(op.in1, i);
    touch(op.out, i);
  }
  // The input slot is rewritten at the start of every replay and the
  // output must stay readable after Run returns, so neither region is
  // ever recycled.
  last_use[static_cast<size_t>(plan->input_slot)] = num_ops;
  last_use[static_cast<size_t>(plan->output_slot)] = num_ops;

  std::vector<std::vector<int64_t>> free_after(
      static_cast<size_t>(num_ops));
  for (int64_t s = 0; s < num_slots; ++s) {
    int64_t last = last_use[static_cast<size_t>(s)];
    if (last >= 0 && last < num_ops) {
      free_after[static_cast<size_t>(last)].push_back(s);
    }
  }

  // Linear scan with exact-size region reuse. A region released at op i
  // is only handed to slots defined at ops > i, so an op's output can
  // never alias its own inputs.
  std::unordered_map<size_t, std::vector<int64_t>> free_by_size;
  size_t bump = 0;
  auto assign = [&](int64_t s) {
    if (s < 0) return;
    PlanSlot& slot = plan->slots[static_cast<size_t>(s)];
    if (slot.offset_bytes >= 0) return;  // already defined (accumulate)
    if (last_use[static_cast<size_t>(s)] < 0) return;  // dead slot
    size_t bytes = AlignedSlotBytes(slot.shape);
    auto it = free_by_size.find(bytes);
    if (it != free_by_size.end() && !it->second.empty()) {
      slot.offset_bytes = it->second.back();
      it->second.pop_back();
    } else {
      slot.offset_bytes = static_cast<int64_t>(bump);
      bump += bytes;
    }
  };
  assign(plan->input_slot);
  for (int64_t i = 0; i < num_ops; ++i) {
    assign(plan->ops[static_cast<size_t>(i)].out);
    for (int64_t s : free_after[static_cast<size_t>(i)]) {
      const PlanSlot& slot = plan->slots[static_cast<size_t>(s)];
      free_by_size[AlignedSlotBytes(slot.shape)].push_back(
          slot.offset_bytes);
    }
  }
  plan->arena_bytes = std::max(bump, size_t{Workspace::kAlignment});
  plan->resolved = true;
}

}  // namespace dhgcn

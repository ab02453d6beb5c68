// Into-vs-legacy equivalence for every workspace-migrated layer:
//
//  1. Bit-exactness: ForwardInto/BackwardInto on one instance must
//     produce the same bits as Forward/Backward on an identically
//     constructed instance (outputs, input gradients, parameter
//     gradients). Both paths share one kernel, so this pins the
//     delegation plumbing, not floating-point luck.
//  2. Gradient correctness *through the Into path*: finite-difference
//     checking with every Forward/Backward routed through a Workspace.

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "base/rng.h"
#include "core/dhgcn_model.h"
#include "core/dhst_block.h"
#include "core/dynamic_joint_weight.h"
#include "core/static_hypergraph.h"
#include "data/skeleton.h"
#include "gradcheck.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/hypergraph_conv.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dropout.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/pooling.h"
#include "nn/relu.h"
#include "nn/sequential.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"

namespace dhgcn {
namespace {

void ExpectBitEqual(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(ShapesEqual(a.shape(), b.shape())) << what;
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a.flat(i), b.flat(i)) << what << " flat index " << i;
  }
}

/// Runs `legacy` through Forward/Backward and `planned` (an identically
/// constructed twin) through ForwardInto/BackwardInto, asserting
/// bit-equal outputs, input gradients and parameter gradients.
/// `check_backward=false` limits the comparison to the forward pass
/// (for layers whose backward is undefined in the current mode).
void ExpectIntoBitExact(Layer& legacy, Layer& planned, const Tensor& input,
                        bool check_backward = true, uint64_t grad_seed = 99) {
  Tensor y_legacy = legacy.Forward(input);

  Workspace ws;
  Tensor y_planned;
  planned.ForwardInto(input, ws, &y_planned);
  ExpectBitEqual(y_legacy, y_planned, "forward output");
  if (!check_backward) return;

  Rng grad_rng(grad_seed);
  Tensor grad_out = Tensor::RandomNormal(y_legacy.shape(), grad_rng);
  legacy.ZeroGrad();
  planned.ZeroGrad();
  Tensor gx_legacy = legacy.Backward(grad_out);
  Tensor gx_planned;
  planned.BackwardInto(grad_out, ws, &gx_planned);
  ExpectBitEqual(gx_legacy, gx_planned, "input gradient");

  std::vector<ParamRef> pl = legacy.Params();
  std::vector<ParamRef> pp = planned.Params();
  ASSERT_EQ(pl.size(), pp.size());
  for (size_t i = 0; i < pl.size(); ++i) {
    if (pl[i].grad == nullptr) continue;  // non-trainable buffer
    ExpectBitEqual(*pl[i].grad, *pp[i].grad, pl[i].name.c_str());
  }
}

/// Routes a layer's Forward/Backward through the workspace path so the
/// shared finite-difference checker exercises ForwardInto/BackwardInto.
/// Outputs are cloned out of the arena because the checker holds them
/// across calls (each Forward resets the arena).
class IntoAdapter : public Layer {
 public:
  explicit IntoAdapter(Layer& inner) : inner_(inner) {}

  std::vector<ParamRef> Params() override { return inner_.Params(); }
  void SetTraining(bool training) override { inner_.SetTraining(training); }
  std::string name() const override { return inner_.name(); }

 private:
  Tensor ForwardImpl(const Tensor& input, Workspace* /*ws*/) override {
    ws_.Reset();
    Tensor out;
    inner_.ForwardInto(input, ws_, &out);
    return out.Clone();
  }

  Tensor BackwardImpl(const Tensor& grad_output, Workspace* /*ws*/) override {
    Tensor grad_input;
    inner_.BackwardInto(grad_output, ws_, &grad_input);
    return grad_input.Clone();
  }

  Layer& inner_;
  Workspace ws_;
};

void ExpectIntoGradientsMatch(Layer& layer, const Tensor& input) {
  IntoAdapter adapter(layer);
  dhgcn::testing::ExpectGradientsMatch(adapter, input);
}

Hypergraph TestHypergraph() {
  return Hypergraph(6, {{0, 1, 2}, {2, 3}, {3, 4, 5}, {0, 5}});
}

// --- Linear ---------------------------------------------------------------------------

TEST(WorkspaceIntoTest, LinearBitExactAndGradCorrect) {
  Rng rng_a(11), rng_b(11);
  Linear legacy(6, 5, rng_a);
  Linear planned(6, 5, rng_b);
  Rng data_rng(12);
  Tensor x = Tensor::RandomNormal({4, 6}, data_rng);
  ExpectIntoBitExact(legacy, planned, x);
  ExpectIntoGradientsMatch(planned, x);
}

// --- Conv2d ---------------------------------------------------------------------------

TEST(WorkspaceIntoTest, Conv2dPointwiseBitExactAndGradCorrect) {
  Rng rng_a(21), rng_b(21);
  Conv2dOptions options;  // 1x1, stride 1 -> GEMM fast path
  Conv2d legacy(3, 8, options, rng_a);
  Conv2d planned(3, 8, options, rng_b);
  Rng data_rng(22);
  Tensor x = Tensor::RandomNormal({2, 3, 4, 6}, data_rng);
  ExpectIntoBitExact(legacy, planned, x);
  ExpectIntoGradientsMatch(planned, x);
}

TEST(WorkspaceIntoTest, Conv2dTemporalBitExactAndGradCorrect) {
  Rng rng_a(23), rng_b(23);
  Conv2dOptions options;  // strided, padded, dilated (k x 1) TCN shape
  options.kernel_h = 3;
  options.stride_h = 2;
  options.pad_h = 2;
  options.dilation_h = 2;
  Conv2d legacy(3, 4, options, rng_a);
  Conv2d planned(3, 4, options, rng_b);
  Rng data_rng(24);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 5}, data_rng);
  ExpectIntoBitExact(legacy, planned, x);
  ExpectIntoGradientsMatch(planned, x);
}

// --- BatchNorm2d ----------------------------------------------------------------------

TEST(WorkspaceIntoTest, BatchNormTrainingBitExactAndGradCorrect) {
  BatchNorm2d legacy(5);
  BatchNorm2d planned(5);
  Rng data_rng(31);
  Tensor x = Tensor::RandomNormal({3, 5, 4, 2}, data_rng);
  ExpectIntoBitExact(legacy, planned, x);
  ExpectIntoGradientsMatch(planned, x);
}

TEST(WorkspaceIntoTest, BatchNormEvalBitExact) {
  BatchNorm2d legacy(4);
  BatchNorm2d planned(4);
  Rng data_rng(32);
  // One training step so running statistics are non-trivial, then eval.
  Tensor warm = Tensor::RandomNormal({2, 4, 3, 3}, data_rng);
  legacy.Forward(warm);
  planned.Forward(warm);
  legacy.SetTraining(false);
  planned.SetTraining(false);
  Tensor x = Tensor::RandomNormal({2, 4, 3, 3}, data_rng);
  // BN backward is only defined in training mode; compare forward only.
  ExpectIntoBitExact(legacy, planned, x, /*check_backward=*/false);
}

// --- ReLU / Dropout -------------------------------------------------------------------

TEST(WorkspaceIntoTest, ReLUBitExactAndGradCorrect) {
  ReLU legacy;
  ReLU planned;
  Rng data_rng(41);
  Tensor x = Tensor::RandomNormal({3, 7}, data_rng);
  // Keep finite differences away from the kink at zero.
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(x.flat(i)) < 0.1f) x.flat(i) = 0.5f;
  }
  ExpectIntoBitExact(legacy, planned, x);
  ExpectIntoGradientsMatch(planned, x);
}

TEST(WorkspaceIntoTest, DropoutBitExact) {
  // Twin layers split from identically seeded parents draw identical
  // masks, so the two paths stay bit-comparable.
  Rng rng_a(51), rng_b(51);
  Dropout legacy(0.4f, rng_a);
  Dropout planned(0.4f, rng_b);
  Rng data_rng(52);
  Tensor x = Tensor::RandomNormal({4, 10}, data_rng);
  ExpectIntoBitExact(legacy, planned, x);

  legacy.SetTraining(false);
  planned.SetTraining(false);
  ExpectIntoBitExact(legacy, planned, x);
}

// --- Pooling --------------------------------------------------------------------------

TEST(WorkspaceIntoTest, GlobalAvgPoolBitExactAndGradCorrect) {
  GlobalAvgPool2d legacy;
  GlobalAvgPool2d planned;
  Rng data_rng(61);
  Tensor x = Tensor::RandomNormal({2, 3, 4, 5}, data_rng);
  ExpectIntoBitExact(legacy, planned, x);
  ExpectIntoGradientsMatch(planned, x);
}

// --- Sequential -----------------------------------------------------------------------

std::unique_ptr<Sequential> MakeStack(uint64_t seed) {
  Rng rng(seed);
  auto stack = std::make_unique<Sequential>();
  Conv2dOptions options;
  stack->Emplace<Conv2d>(3, 6, options, rng);
  stack->Emplace<BatchNorm2d>(6);
  stack->Emplace<ReLU>();
  return stack;
}

TEST(WorkspaceIntoTest, SequentialBitExactAndGradCorrect) {
  auto legacy = MakeStack(71);
  auto planned = MakeStack(71);
  Rng data_rng(72);
  Tensor x = Tensor::RandomNormal({2, 3, 4, 5}, data_rng);
  ExpectIntoBitExact(*legacy, *planned, x);
  ExpectIntoGradientsMatch(*planned, x);
}

// --- Hypergraph mixers ----------------------------------------------------------------

TEST(WorkspaceIntoTest, VertexMixBitExactAndGradCorrect) {
  Rng op_rng(81);
  Tensor op = Tensor::RandomNormal({6, 6}, op_rng);
  VertexMix legacy(op.Clone());
  VertexMix planned(op.Clone());
  Rng data_rng(82);
  Tensor x = Tensor::RandomNormal({2, 3, 4, 6}, data_rng);
  ExpectIntoBitExact(legacy, planned, x);
  ExpectIntoGradientsMatch(planned, x);
}

TEST(WorkspaceIntoTest, DynamicVertexMixBitExact) {
  Rng op_rng(83);
  Tensor ops = Tensor::RandomNormal({2, 4, 6, 6}, op_rng);
  DynamicVertexMix legacy;
  DynamicVertexMix planned;
  legacy.SetOperators(ops);
  planned.SetOperators(ops);
  Rng data_rng(84);
  Tensor x = Tensor::RandomNormal({2, 3, 4, 6}, data_rng);
  ExpectIntoBitExact(legacy, planned, x);
}

TEST(WorkspaceIntoTest, NormalizedHypergraphOperatorMatchesLegacy) {
  Hypergraph h = TestHypergraph();
  Tensor legacy = NormalizedHypergraphOperator(h);
  Workspace ws;
  Tensor planned = NormalizedHypergraphOperator(h, &ws);
  EXPECT_FALSE(planned.owns_storage());
  ExpectBitEqual(legacy, planned, "hypergraph operator");
}

// --- Loss -----------------------------------------------------------------------------

TEST(WorkspaceIntoTest, SoftmaxCrossEntropyBitExact) {
  SoftmaxCrossEntropy legacy(0.1f);
  SoftmaxCrossEntropy planned(0.1f);
  Rng data_rng(91);
  Tensor logits = Tensor::RandomNormal({4, 5}, data_rng);
  std::vector<int64_t> labels = {0, 2, 4, 1};

  float loss_legacy = legacy.TryForward(logits, labels).ValueOrDie();
  Workspace ws;
  float loss_planned = planned.TryForward(logits, labels, ws).ValueOrDie();
  EXPECT_EQ(loss_legacy, loss_planned);

  Tensor grad_legacy = legacy.Backward();
  Tensor grad_planned = planned.Backward(ws);
  EXPECT_FALSE(grad_planned.owns_storage());
  ExpectBitEqual(grad_legacy, grad_planned, "loss gradient");
}

// --- DHST block -----------------------------------------------------------------------

DhstBlockOptions SmallBlockOptions(int64_t in, int64_t out) {
  DhstBlockOptions options;
  options.in_channels = in;
  options.out_channels = out;
  options.topology.kn = 2;
  options.topology.km = 2;
  return options;
}

TEST(WorkspaceIntoTest, DhstBlockBitExact) {
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kKinetics18);
  Hypergraph h = StaticSkeletonHypergraph(layout);
  Rng rng_a(101), rng_b(101);
  DhstBlock legacy(SmallBlockOptions(3, 4), h, rng_a);
  DhstBlock planned(SmallBlockOptions(3, 4), h, rng_b);
  Rng data_rng(102);
  Tensor x = Tensor::RandomNormal({2, 3, 4, 18}, data_rng);
  Tensor joint_ops = DynamicJointWeightOperators(x, h);

  Tensor y_legacy = legacy.Forward(x, joint_ops);
  Workspace ws;
  Tensor y_planned = planned.Forward(x, joint_ops, &ws);
  ExpectBitEqual(y_legacy, y_planned, "block forward");

  Rng grad_rng(103);
  Tensor grad_out = Tensor::RandomNormal(y_legacy.shape(), grad_rng);
  Tensor gx_legacy = legacy.Backward(grad_out);
  Tensor gx_planned = planned.Backward(grad_out, &ws);
  ExpectBitEqual(gx_legacy, gx_planned, "block input gradient");

  std::vector<ParamRef> pl = legacy.Params();
  std::vector<ParamRef> pp = planned.Params();
  ASSERT_EQ(pl.size(), pp.size());
  for (size_t i = 0; i < pl.size(); ++i) {
    if (pl[i].grad == nullptr) continue;  // non-trainable buffer
    ExpectBitEqual(*pl[i].grad, *pp[i].grad, pl[i].name.c_str());
  }
}

// --- Full model -----------------------------------------------------------------------

TEST(WorkspaceIntoTest, DhgcnModelBitExact) {
  DhgcnConfig config =
      DhgcnConfig::Tiny(SkeletonLayoutType::kKinetics18, /*num_classes=*/5);
  DhgcnModel legacy(config);
  DhgcnModel planned(config);
  Rng data_rng(111);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 18}, data_rng);
  ExpectIntoBitExact(legacy, planned, x);
}

}  // namespace
}  // namespace dhgcn

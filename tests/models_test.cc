#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "base/rng.h"
#include "models/agcn.h"
#include "models/ahgcn.h"
#include "models/model_zoo.h"
#include "models/pbgcn.h"
#include "models/st_common.h"
#include "models/stgcn.h"
#include "models/tcn_model.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"

namespace dhgcn {
namespace {

BaselineScale TinyScale() {
  BaselineScale scale;
  scale.channels = {4, 8};
  scale.strides = {1, 2};
  scale.dropout = 0.0f;
  return scale;
}

ModelZooOptions TinyZoo() {
  ModelZooOptions options;
  options.scale = TinyScale();
  options.kn = 2;
  options.km = 2;
  options.seed = 5;
  return options;
}

void ExpectSameBits(const Tensor& a, const Tensor& b,
                    const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.numel()) * sizeof(float)),
            0)
      << what;
}

// --- Model zoo ------------------------------------------------------------------

TEST(ModelZooTest, ParseModelKind) {
  EXPECT_EQ(ParseModelKind("tcn").ValueOrDie(), ModelKind::kTcn);
  EXPECT_EQ(ParseModelKind("ST-GCN").ValueOrDie(), ModelKind::kStgcn);
  EXPECT_EQ(ParseModelKind("2s-AGCN").ValueOrDie(), ModelKind::kAgcn);
  EXPECT_EQ(ParseModelKind("ahgcn").ValueOrDie(), ModelKind::kAhgcn);
  EXPECT_EQ(ParseModelKind("pb_gcn4").ValueOrDie(), ModelKind::kPbgcn4);
  EXPECT_EQ(ParseModelKind("PBHGCN6").ValueOrDie(), ModelKind::kPbhgcn6);
  EXPECT_EQ(ParseModelKind("DHGCN").ValueOrDie(), ModelKind::kDhgcn);
  EXPECT_FALSE(ParseModelKind("resnet").ok());
}

TEST(ModelZooTest, NamesAreDistinct) {
  std::set<std::string> names;
  for (ModelKind kind :
       {ModelKind::kTcn, ModelKind::kStgcn, ModelKind::kAgcn,
        ModelKind::kAhgcn, ModelKind::kPbgcn2, ModelKind::kPbgcn4,
        ModelKind::kPbgcn6, ModelKind::kPbhgcn2, ModelKind::kPbhgcn4,
        ModelKind::kPbhgcn6, ModelKind::kDhgcn}) {
    EXPECT_TRUE(names.insert(ModelKindName(kind)).second);
  }
}

class AllModelsParamTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(AllModelsParamTest, ForwardBackwardShapes) {
  LayerPtr model = CreateModel(GetParam(), SkeletonLayoutType::kKinetics18,
                               6, TinyZoo());
  ASSERT_NE(model, nullptr);
  Rng rng(6);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 18}, rng, 0.0f, 0.5f);
  Tensor logits = model->Forward(x);
  EXPECT_EQ(logits.shape(), (Shape{2, 6}));
  EXPECT_FALSE(HasNonFinite(logits));
  Tensor g = model->Backward(Tensor::Ones({2, 6}));
  EXPECT_EQ(g.shape(), x.shape());
  EXPECT_FALSE(HasNonFinite(g));
}

TEST_P(AllModelsParamTest, HasTrainableParams) {
  LayerPtr model = CreateModel(GetParam(), SkeletonLayoutType::kNtu25, 4,
                               TinyZoo());
  EXPECT_GT(model->ParameterCount(), 50);
  for (ParamRef& p : model->Params()) {
    if (!p.trainable) {
      EXPECT_EQ(p.grad, nullptr) << p.name;
      continue;
    }
    EXPECT_TRUE(ShapesEqual(p.value->shape(), p.grad->shape())) << p.name;
  }
}

TEST_P(AllModelsParamTest, OneSgdStepReducesLossOnFixedBatch) {
  LayerPtr model = CreateModel(GetParam(), SkeletonLayoutType::kKinetics18,
                               3, TinyZoo());
  Rng rng(7);
  Tensor x = Tensor::RandomNormal({6, 3, 8, 18}, rng, 0.0f, 0.5f);
  std::vector<int64_t> labels = {0, 1, 2, 0, 1, 2};
  SoftmaxCrossEntropy loss;
  SgdOptimizer::Options sgd_options;
  sgd_options.lr = 0.05f;
  sgd_options.momentum = 0.0f;
  SgdOptimizer sgd(model->Params(), sgd_options);

  model->SetTraining(true);
  float initial = 0.0f;
  // A few steps on the same batch must reduce the loss (overfit check).
  float current = 0.0f;
  for (int step = 0; step < 8; ++step) {
    sgd.ZeroGrad();
    Tensor logits = model->Forward(x);
    current = loss.Forward(logits, labels);
    if (step == 0) initial = current;
    model->Backward(loss.Backward());
    sgd.Step();
  }
  EXPECT_LT(current, initial) << ModelKindName(GetParam());
}

// The owning spelling (Forward(x)/Backward(g)) and the workspace spelling
// (Forward(x, &ws)/Backward(g, &ws)) of the one layer contract must agree
// bit for bit: logits, input gradient, every parameter gradient and the
// batch-norm running statistics.
TEST_P(AllModelsParamTest, WorkspaceSpellingMatchesOwningBitForBit) {
  LayerPtr owning = CreateModel(GetParam(), SkeletonLayoutType::kKinetics18,
                                5, TinyZoo());
  LayerPtr planned = CreateModel(GetParam(), SkeletonLayoutType::kKinetics18,
                                 5, TinyZoo());
  Rng rng(8);
  Tensor x = Tensor::RandomNormal({3, 3, 8, 18}, rng, 0.0f, 0.5f);
  Tensor g = Tensor::RandomNormal({3, 5}, rng);
  Workspace ws;
  ExpectSameBits(owning->Forward(x), planned->Forward(x, &ws), "logits");
  ExpectSameBits(owning->Backward(g), planned->Backward(g, &ws),
                 "input gradient");
  std::vector<ParamRef> po = owning->Params();
  std::vector<ParamRef> pp = planned->Params();
  ASSERT_EQ(po.size(), pp.size());
  for (size_t i = 0; i < po.size(); ++i) {
    if (po[i].trainable) {
      ExpectSameBits(*po[i].grad, *pp[i].grad, po[i].name + " grad");
    } else {
      ExpectSameBits(*po[i].value, *pp[i].value, po[i].name);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, AllModelsParamTest,
    ::testing::Values(ModelKind::kTcn, ModelKind::kStgcn, ModelKind::kAgcn,
                      ModelKind::kAhgcn, ModelKind::kPbgcn2,
                      ModelKind::kPbgcn4, ModelKind::kPbhgcn4,
                      ModelKind::kPbhgcn6, ModelKind::kDhgcn),
    [](const ::testing::TestParamInfo<ModelKind>& param_info) {
      std::string name = ModelKindName(param_info.param);
      std::string clean;
      for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c))) clean.push_back(c);
      }
      return clean;
    });

// --- AdaptiveSpatial specifics -----------------------------------------------------

TEST(AdaptiveSpatialTest, AttentionRowsSumToOne) {
  Rng rng(8);
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kKinetics18);
  AdaptiveSpatial layer(3, 4, SkeletonGraph(layout).NormalizedAdjacency(),
                        rng);
  Tensor x = Tensor::RandomNormal({2, 3, 4, 18}, rng);
  layer.Forward(x);
  const Tensor& attention = layer.attention();
  EXPECT_EQ(attention.shape(), (Shape{2, 18, 18}));
  for (int64_t n = 0; n < 2; ++n) {
    for (int64_t v = 0; v < 18; ++v) {
      double sum = 0.0;
      for (int64_t u = 0; u < 18; ++u) sum += attention.at(n, v, u);
      EXPECT_NEAR(sum, 1.0, 1e-4);
    }
  }
}

TEST(AdaptiveSpatialTest, AttentionIsSampleDependent) {
  Rng rng(9);
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kKinetics18);
  AdaptiveSpatial layer(3, 4, SkeletonGraph(layout).NormalizedAdjacency(),
                        rng);
  Tensor x = Tensor::RandomNormal({2, 3, 4, 18}, rng);
  layer.Forward(x);
  Tensor a0 = Slice(layer.attention(), 0, 0, 1);
  Tensor a1 = Slice(layer.attention(), 0, 1, 1);
  EXPECT_FALSE(AllClose(a0, a1, 1e-4f, 1e-5f));
}

TEST(AdaptiveSpatialTest, HasLearnableBMatrix) {
  Rng rng(10);
  AdaptiveSpatial layer(2, 3, Tensor::Eye(5), rng);
  bool has_b = false;
  for (ParamRef& p : layer.Params()) {
    if (p.name == "B") {
      has_b = true;
      EXPECT_EQ(p.value->shape(), (Shape{5, 5}));
    }
  }
  EXPECT_TRUE(has_b);
}

// --- PB models -------------------------------------------------------------------------

TEST(PartSubgraphOperatorTest, ZeroOutsidePart) {
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kKinetics18);
  std::vector<int64_t> part = {1, 2, 3, 4};  // right arm + neck
  Tensor op = PartSubgraphOperator(layout, part);
  std::set<int64_t> members(part.begin(), part.end());
  for (int64_t i = 0; i < 18; ++i) {
    for (int64_t j = 0; j < 18; ++j) {
      if (members.count(i) == 0 || members.count(j) == 0) {
        EXPECT_FLOAT_EQ(op.at(i, j), 0.0f) << i << "," << j;
      }
    }
  }
  // Connected members interact.
  EXPECT_GT(op.at(2, 3), 0.0f);
}

TEST(PartSubgraphOperatorTest, SymmetricWithinPart) {
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kNtu25);
  std::vector<std::vector<int64_t>> parts = PartPartition(layout, 4);
  for (const auto& part : parts) {
    Tensor op = PartSubgraphOperator(layout, part);
    EXPECT_TRUE(AllClose(op, Transpose2D(op), 1e-5f, 1e-6f));
  }
}

TEST(PbModelsTest, MoreParamsForMoreParts) {
  ModelZooOptions zoo = TinyZoo();
  LayerPtr two = CreateModel(ModelKind::kPbgcn2, SkeletonLayoutType::kNtu25,
                             4, zoo);
  LayerPtr six = CreateModel(ModelKind::kPbgcn6, SkeletonLayoutType::kNtu25,
                             4, zoo);
  EXPECT_GT(six->ParameterCount(), two->ParameterCount());
}

TEST(PbModelsTest, PbHgcnIsCapacityMatchedToPbGcn) {
  // PB-HGCN removes the per-part convolutions ("eliminates the
  // aggregation function"); its layers are widened so the two models
  // compare topology at a comparable parameter budget (within ~40%).
  ModelZooOptions zoo = TinyZoo();
  for (auto [gcn_kind, hgcn_kind] :
       {std::pair{ModelKind::kPbgcn2, ModelKind::kPbhgcn2},
        std::pair{ModelKind::kPbgcn4, ModelKind::kPbhgcn4},
        std::pair{ModelKind::kPbgcn6, ModelKind::kPbhgcn6}}) {
    LayerPtr gcn =
        CreateModel(gcn_kind, SkeletonLayoutType::kNtu25, 4, zoo);
    LayerPtr hgcn =
        CreateModel(hgcn_kind, SkeletonLayoutType::kNtu25, 4, zoo);
    double ratio = static_cast<double>(hgcn->ParameterCount()) /
                   static_cast<double>(gcn->ParameterCount());
    EXPECT_GT(ratio, 0.6) << ModelKindName(hgcn_kind);
    EXPECT_LT(ratio, 1.4) << ModelKindName(hgcn_kind);
  }
}

// --- StBlock / BackboneClassifier ----------------------------------------------------------

TEST(StBlockTest, StridedResidualProjects) {
  Rng rng(12);
  const SkeletonLayout& layout =
      GetSkeletonLayout(SkeletonLayoutType::kKinetics18);
  Tensor adjacency = SkeletonGraph(layout).NormalizedAdjacency();
  StBlock block(MakeFixedOperatorSpatial(3, 5, adjacency, rng), 3, 5, 2,
                rng);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 18}, rng);
  Tensor y = block.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 5, 4, 18}));
  Tensor g = block.Backward(Tensor::Ones(y.shape()));
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(BackboneClassifierTest, TrainingFlagReachesChildren) {
  ModelZooOptions zoo = TinyZoo();
  LayerPtr model =
      CreateModel(ModelKind::kStgcn, SkeletonLayoutType::kKinetics18, 4,
                  zoo);
  model->SetTraining(false);
  EXPECT_FALSE(model->training());
  Rng rng(13);
  Tensor x = Tensor::RandomNormal({1, 3, 8, 18}, rng);
  // Eval forward twice must agree (BN running stats, no dropout noise).
  Tensor a = model->Forward(x);
  Tensor b = model->Forward(x);
  EXPECT_TRUE(AllClose(a, b));
}

}  // namespace
}  // namespace dhgcn

#include "train/guardrails.h"

#include <cmath>
#include <limits>

#include "gtest/gtest.h"

#include "base/fault_injection.h"
#include "base/rng.h"
#include "models/model_zoo.h"
#include "nn/linear.h"
#include "tensor/tensor_ops.h"
#include "train/summary.h"
#include "train/trainer.h"

namespace dhgcn {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

class GuardrailsTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjection::Get().Reset(); }
  void TearDown() override { FaultInjection::Get().Reset(); }
};

TEST_F(GuardrailsTest, PolicyNamesRoundTrip) {
  for (GuardrailPolicy policy :
       {GuardrailPolicy::kSkipBatch, GuardrailPolicy::kHalveLr,
        GuardrailPolicy::kRollback, GuardrailPolicy::kAbort}) {
    Result<GuardrailPolicy> parsed =
        ParseGuardrailPolicy(GuardrailPolicyName(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(ParseGuardrailPolicy("explode").ok());
}

TEST_F(GuardrailsTest, FindNonFiniteGradientNamesTheParameter) {
  Rng rng(1);
  Linear model(3, 2, rng);
  EXPECT_FALSE(FindNonFiniteGradient(model).has_value());
  model.Params()[0].grad->data()[1] = kNaN;
  std::optional<std::string> hit = FindNonFiniteGradient(model);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "weight");
}

// Satellite fix: a non-finite global norm used to scale NaN into every
// gradient; now the clip is skipped and gradients stay untouched.
TEST_F(GuardrailsTest, ClipGradientNormSkipsOnNonFiniteNorm) {
  Rng rng(2);
  Linear model(2, 2, rng);
  Tensor& grad = *model.Params()[0].grad;
  grad.Fill(5.0f);
  grad.data()[0] = kNaN;
  float norm = ClipGradientNorm(model, /*max_norm=*/1.0f);
  EXPECT_FALSE(std::isfinite(norm));
  // Finite entries must be exactly untouched, not scaled or NaN-ed.
  EXPECT_FLOAT_EQ(grad.data()[1], 5.0f);
  EXPECT_FLOAT_EQ(grad.data()[3], 5.0f);
}

TEST_F(GuardrailsTest, SpikeDetectorFlagsOutlierLoss) {
  Rng rng(3);
  Linear model(2, 2, rng);
  GuardrailOptions options;
  options.enabled = true;
  options.spike_factor = 2.0f;
  options.spike_min_history = 3;
  Guardrails guardrails(&model, options);
  Tensor logits = Tensor::FromVector({1, 2}, {0.1f, 0.2f});
  // Not armed until min_history clean losses are seen.
  EXPECT_FALSE(guardrails.CheckForward(logits, 10.0f).has_value());
  for (float loss : {1.0f, 1.1f, 0.9f}) guardrails.OnCleanStep(loss);
  EXPECT_FALSE(guardrails.CheckForward(logits, 1.5f).has_value());
  std::optional<std::string> anomaly = guardrails.CheckForward(logits, 10.0f);
  ASSERT_TRUE(anomaly.has_value());
  EXPECT_NE(anomaly->find("loss spike"), std::string::npos);
  // Non-finite loss and logits are anomalies regardless of history.
  EXPECT_TRUE(guardrails.CheckForward(logits, kNaN).has_value());
  Tensor bad_logits = Tensor::FromVector({1, 2}, {kNaN, 0.0f});
  EXPECT_TRUE(guardrails.CheckForward(bad_logits, 1.0f).has_value());
}

// --- End-to-end policies, driven by deterministic fault injection ---------------

struct TrainRig {
  SkeletonDataset dataset;
  DatasetSplit split;
  LayerPtr model;

  static TrainRig Make(ModelKind kind = ModelKind::kTcn) {
    SyntheticDataConfig config = NtuLikeConfig(3, 10, 12, 99);
    config.sensor_noise = 0.005f;
    TrainRig rig{SkeletonDataset::Generate(config).MoveValue(), {}, {}};
    rig.split = rig.dataset.RandomSplit(0.3f, 1);
    ModelZooOptions zoo;
    zoo.scale.channels = {4};
    zoo.scale.strides = {1};
    zoo.scale.dropout = 0.0f;
    rig.model = CreateModel(kind, SkeletonLayoutType::kNtu25, 3, zoo);
    return rig;
  }

  DataLoader Loader() {
    return DataLoader(&dataset, split.train, 8, InputStream::kJoint,
                      /*shuffle=*/true, Rng(5));
  }

  TrainOptions Options(GuardrailPolicy policy) {
    TrainOptions options;
    options.epochs = 1;
    options.initial_lr = 0.1f;
    options.guardrails.enabled = true;
    options.guardrails.policy = policy;
    return options;
  }

  bool ParamsFinite() {
    for (ParamRef& p : model->Params()) {
      if (HasNonFinite(*p.value)) return false;
    }
    return true;
  }
};

TEST_F(GuardrailsTest, SkipPolicyDropsPoisonedBatchAndFinishes) {
  TrainRig rig = TrainRig::Make();
  DataLoader loader = rig.Loader();
  Trainer trainer(rig.model.get(), rig.Options(GuardrailPolicy::kSkipBatch));
  FaultInjection::Get().Arm(FaultSite::kGradientNaN, 2);
  Result<EpochStats> stats = trainer.TrainEpoch(loader, 0);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->guardrails.anomalies, 1);
  EXPECT_EQ(stats->guardrails.skipped_batches, 1);
  EXPECT_EQ(stats->guardrails.lr_halvings, 0);
  EXPECT_TRUE(rig.ParamsFinite());
  EXPECT_EQ(FaultInjection::Get().fire_count(FaultSite::kGradientNaN), 1);
}

TEST_F(GuardrailsTest, HalveLrPolicyHalvesUntilNextEpoch) {
  TrainRig rig = TrainRig::Make();
  DataLoader loader = rig.Loader();
  TrainOptions options = rig.Options(GuardrailPolicy::kHalveLr);
  options.epochs = 2;
  Trainer trainer(rig.model.get(), options);
  FaultInjection::Get().Arm(FaultSite::kGradientInf, 1);
  Result<EpochStats> first = trainer.TrainEpoch(loader, 0);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->guardrails.lr_halvings, 1);
  EXPECT_FLOAT_EQ(static_cast<float>(first->lr), 0.05f);
  // The next epoch re-applies the schedule LR.
  Result<EpochStats> second = trainer.TrainEpoch(loader, 1);
  ASSERT_TRUE(second.ok());
  EXPECT_FLOAT_EQ(static_cast<float>(second->lr), 0.1f);
  EXPECT_TRUE(rig.ParamsFinite());
}

TEST_F(GuardrailsTest, RollbackPolicyRestoresLastGoodSnapshot) {
  TrainRig rig = TrainRig::Make();
  DataLoader loader = rig.Loader();
  Trainer trainer(rig.model.get(), rig.Options(GuardrailPolicy::kRollback));
  FaultInjection::Get().Arm(FaultSite::kGradientNaN, 3);
  Result<EpochStats> stats = trainer.TrainEpoch(loader, 0);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->guardrails.rollbacks, 1);
  EXPECT_EQ(stats->guardrails.anomalies, 1);
  EXPECT_TRUE(rig.ParamsFinite());
}

TEST_F(GuardrailsTest, AbortPolicyReturnsDescriptiveStatus) {
  TrainRig rig = TrainRig::Make();
  DataLoader loader = rig.Loader();
  Trainer trainer(rig.model.get(), rig.Options(GuardrailPolicy::kAbort));
  FaultInjection::Get().Arm(FaultSite::kGradientNaN, 1);
  Result<std::vector<EpochStats>> history = trainer.Train(loader);
  ASSERT_FALSE(history.ok());
  EXPECT_EQ(history.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(history.status().message().find("non-finite gradient"),
            std::string::npos)
      << history.status().message();
}

TEST_F(GuardrailsTest, AnomalyBudgetAbortsEvenUnderSkipPolicy) {
  TrainRig rig = TrainRig::Make();
  DataLoader loader = rig.Loader();
  TrainOptions options = rig.Options(GuardrailPolicy::kSkipBatch);
  options.guardrails.max_anomalies = 2;
  Trainer trainer(rig.model.get(), options);
  FaultInjection::Get().ArmFromSpec("grad-nan:1,grad-inf:2").AbortIfNotOk();
  Result<std::vector<EpochStats>> history = trainer.Train(loader);
  ASSERT_FALSE(history.ok());
  EXPECT_EQ(history.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(history.status().message().find("anomaly budget"),
            std::string::npos)
      << history.status().message();
}

// A NaN input batch is sneaky: ReLU maps NaN to 0 in the forward pass, so
// the loss can come out finite and only the gradient sentinel fires — by
// which point batch-norm running statistics have already absorbed NaN.
// The guardrails must both catch the step AND restore the buffers.
TEST_F(GuardrailsTest, PoisonedBatchCaughtAndBuffersRestored) {
  TrainRig rig = TrainRig::Make();
  DataLoader loader = rig.Loader();
  Trainer trainer(rig.model.get(), rig.Options(GuardrailPolicy::kSkipBatch));
  FaultInjection::Get().Arm(FaultSite::kBatchNaN, 1);
  Result<EpochStats> stats = trainer.TrainEpoch(loader, 0);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->guardrails.anomalies, 1);
  EXPECT_TRUE(rig.ParamsFinite());
}

// The same poisoned batch through DHGCN: the dynamic topology sees NaN
// features and must still build a valid hypergraph, so the step reaches
// the guardrail instead of aborting inside K-means.
TEST_F(GuardrailsTest, PoisonedBatchThroughDynamicTopologyIsSkipped) {
  TrainRig rig = TrainRig::Make(ModelKind::kDhgcn);
  DataLoader loader = rig.Loader();
  Trainer trainer(rig.model.get(), rig.Options(GuardrailPolicy::kSkipBatch));
  FaultInjection::Get().Arm(FaultSite::kBatchNaN, 1);
  Result<EpochStats> stats = trainer.TrainEpoch(loader, 0);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->guardrails.anomalies, 1);
  EXPECT_EQ(stats->guardrails.skipped_batches, 1);
  EXPECT_EQ(FaultInjection::Get().fire_count(FaultSite::kBatchNaN), 1);
  EXPECT_TRUE(rig.ParamsFinite());
}

TEST_F(GuardrailsTest, DisabledGuardrailsReportZeroCounters) {
  TrainRig rig = TrainRig::Make();
  DataLoader loader = rig.Loader();
  TrainOptions options;
  options.epochs = 1;
  options.initial_lr = 0.1f;
  Trainer trainer(rig.model.get(), options);
  Result<EpochStats> stats = trainer.TrainEpoch(loader, 0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->guardrails.anomalies, 0);
  EXPECT_EQ(trainer.guardrail_counters().anomalies, 0);
}

}  // namespace
}  // namespace dhgcn

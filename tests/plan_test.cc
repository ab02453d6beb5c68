// Execution-plan IR tests: record-once capture, liveness-packed offset
// aliasing, bit-exact unfused replay, Conv→BN / BN→Linear folding and
// elementwise fusion (rtol-equivalent, accuracy-parity), the PlanRunner
// zero-steady-state-allocation contract, the PlanCache fallback order
// and the evaluators on it against an explicit layer-path loop, and the
// eval-dropout identity fast path that keeps inference plans away from
// the RNG.

#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "base/alloc_stats.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "core/dhgcn_model.h"
#include "data/dataloader.h"
#include "data/dataset.h"
#include "data/synthetic_generator.h"
#include "models/model_zoo.h"
#include "nn/batchnorm.h"
#include "nn/dropout.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/sequential.h"
#include "plan/fusion.h"
#include "plan/plan.h"
#include "plan/plan_builder.h"
#include "plan/plan_cache.h"
#include "plan/plan_runner.h"
#include "quant/calibration.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"
#include "train/evaluator.h"
#include "train/metrics.h"
#include "train/trainer.h"

namespace dhgcn {
namespace {

std::unique_ptr<DhgcnModel> MakeEvalTiny() {
  DhgcnConfig config =
      DhgcnConfig::Tiny(SkeletonLayoutType::kKinetics18, /*num_classes=*/4);
  auto model = std::make_unique<DhgcnModel>(config);
  model->SetTraining(false);
  return model;
}

int64_t CountKind(const ExecutionPlan& plan, PlanOpKind kind) {
  int64_t count = 0;
  for (const PlanOp& op : plan.ops) {
    if (op.kind == kind) ++count;
  }
  return count;
}

size_t SlotBytes(const PlanSlot& slot) {
  return static_cast<size_t>(ShapeNumel(slot.shape)) * sizeof(float);
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return ShapesEqual(a.shape(), b.shape()) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Layer-path oracle of the evaluators: each stream's owning `Forward`
// logits summed in stream order, then the loss and metrics `Evaluate`
// reports. One stream is plain evaluation.
EvalMetrics LayerPathMetrics(const std::vector<Layer*>& models,
                             const std::vector<DataLoader*>& loaders) {
  for (Layer* model : models) model->SetTraining(false);
  SoftmaxCrossEntropy loss;
  MetricsAccumulator accumulator;
  for (int64_t b = 0; b < loaders[0]->NumBatches(); ++b) {
    Batch first = loaders[0]->GetBatch(b);
    Tensor logits = models[0]->Forward(first.x);
    for (size_t s = 1; s < models.size(); ++s) {
      AddInPlace(logits, models[s]->Forward(loaders[s]->GetBatch(b).x));
    }
    accumulator.Add(logits, first.labels, loss.Forward(logits, first.labels));
  }
  for (Layer* model : models) model->SetTraining(true);
  return accumulator.Finalize();
}

void ExpectSameMetrics(const EvalMetrics& want, const EvalMetrics& got) {
  EXPECT_EQ(want.count, got.count);
  EXPECT_EQ(want.top1, got.top1);
  EXPECT_EQ(want.top5, got.top5);
  EXPECT_EQ(want.loss, got.loss);
}

TEST(PlanModeTest, ParseAndName) {
  EXPECT_TRUE(ParsePlanMode("off").status().IsInvalidArgument());
  EXPECT_EQ(ParsePlanMode("on").ValueOrDie(), PlanMode::kUnfused);
  EXPECT_EQ(ParsePlanMode("unfused").ValueOrDie(), PlanMode::kUnfused);
  EXPECT_EQ(ParsePlanMode("fused").ValueOrDie(), PlanMode::kFused);
  EXPECT_FALSE(ParsePlanMode("eager").ok());
  EXPECT_STREQ(PlanModeName(PlanMode::kFused), "fused");
}

TEST(PlanCaptureTest, RecordsTinyModelStructure) {
  std::unique_ptr<DhgcnModel> model = MakeEvalTiny();
  Result<ExecutionPlan> captured =
      CaptureInferencePlan(*model, {2, 3, 8, 18});
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  const ExecutionPlan& plan = captured.ValueOrDie();
  EXPECT_FALSE(plan.resolved);
  EXPECT_GT(plan.ops.size(), 10u);
  ASSERT_GE(plan.input_slot, 0);
  ASSERT_GE(plan.output_slot, 0);
  EXPECT_EQ(plan.slots[static_cast<size_t>(plan.input_slot)].shape,
            (Shape{2, 3, 8, 18}));
  EXPECT_EQ(plan.slots[static_cast<size_t>(plan.output_slot)].shape,
            (Shape{2, 4}));
  // All three spatial branches are on in Tiny: the capture must carry
  // the opaque data-dependent operator constructions.
  EXPECT_EQ(CountKind(plan, PlanOpKind::kJointWeightOps), 1);
  EXPECT_EQ(CountKind(plan, PlanOpKind::kTopologyOps), 2);
  // One re-stride: Tiny's second block has temporal_stride=2.
  EXPECT_EQ(CountKind(plan, PlanOpKind::kStrideOps), 1);
  EXPECT_FALSE(plan.Summary().empty());
}

TEST(PlanCaptureTest, RequiresEvalMode) {
  DhgcnConfig config =
      DhgcnConfig::Tiny(SkeletonLayoutType::kKinetics18, /*num_classes=*/4);
  DhgcnModel model(config);  // still training
  Result<ExecutionPlan> captured =
      CaptureInferencePlan(model, {2, 3, 8, 18});
  EXPECT_FALSE(captured.ok());
}

TEST(PlanOffsetsTest, LivenessPackingAliasesSlots) {
  std::unique_ptr<DhgcnModel> model = MakeEvalTiny();
  ExecutionPlan plan =
      BuildInferencePlan(*model, {2, 3, 8, 18}, PlanMode::kUnfused)
          .ValueOrDie();
  ASSERT_TRUE(plan.resolved);
  size_t total = 0;
  for (const PlanSlot& slot : plan.slots) {
    if (slot.offset_bytes < 0) continue;  // dead slot
    size_t bytes = SlotBytes(slot);
    total += bytes;
    EXPECT_EQ(static_cast<size_t>(slot.offset_bytes) % 64, 0u)
        << "slot offset must stay 64-byte aligned";
    EXPECT_LE(static_cast<size_t>(slot.offset_bytes) + bytes,
              plan.arena_bytes);
  }
  // The whole point of liveness packing: the arena is (much) smaller
  // than the sum of slot footprints.
  EXPECT_LT(plan.arena_bytes, total);
  EXPECT_GT(plan.arena_bytes, 0u);
}

TEST(PlanRunnerTest, UnfusedReplayIsBitIdentical) {
  std::unique_ptr<DhgcnModel> model = MakeEvalTiny();
  Rng rng(31);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 18}, rng);
  Tensor expected = model->Forward(x);

  PlanRunner runner(
      BuildInferencePlan(*model, x.shape(), PlanMode::kUnfused)
          .ValueOrDie());
  for (int repeat = 0; repeat < 3; ++repeat) {
    const Tensor& got = runner.Run(x);
    ASSERT_TRUE(ShapesEqual(got.shape(), expected.shape()));
    EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                          static_cast<size_t>(expected.numel()) *
                              sizeof(float)),
              0)
        << "unfused replay diverged on repeat " << repeat;
  }
}

TEST(PlanRunnerTest, ZeroOwningAllocationsInSteadyState) {
  std::unique_ptr<DhgcnModel> model = MakeEvalTiny();
  Rng rng(32);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 18}, rng);
  PlanRunner runner(
      BuildInferencePlan(*model, x.shape(), PlanMode::kUnfused)
          .ValueOrDie());
  runner.Run(x);  // warmup: scratch arena reaches its high-water mark
  for (int step = 0; step < 3; ++step) {
    AllocStatsGuard guard;
    runner.Run(x);
    EXPECT_EQ(guard.allocations(), 0u)
        << "steady-state Run allocated " << guard.allocations()
        << " owning tensors (" << guard.bytes() << " bytes) at step "
        << step;
  }
}

TEST(PlanRunnerTest, RejectsWrongInputShape) {
  std::unique_ptr<DhgcnModel> model = MakeEvalTiny();
  PlanRunner runner(
      BuildInferencePlan(*model, {2, 3, 8, 18}, PlanMode::kUnfused)
          .ValueOrDie());
  EXPECT_EQ(runner.input_shape(), (Shape{2, 3, 8, 18}));
  Rng rng(33);
  Tensor wrong = Tensor::RandomNormal({3, 3, 8, 18}, rng);
  EXPECT_DEATH(runner.Run(wrong), "DHGCN_CHECK");
}

TEST(PlanFusionTest, FoldsConvBnAndFusesElementwise) {
  std::unique_ptr<DhgcnModel> model = MakeEvalTiny();
  ExecutionPlan unfused =
      BuildInferencePlan(*model, {2, 3, 8, 18}, PlanMode::kUnfused)
          .ValueOrDie();
  ExecutionPlan fused =
      BuildInferencePlan(*model, {2, 3, 8, 18}, PlanMode::kFused)
          .ValueOrDie();
  // Each block's temporal conv feeds its BN directly: both blocks fold.
  EXPECT_EQ(CountKind(fused, PlanOpKind::kConv2dFolded), 2);
  // The spatial tail [BN, Accumulate, ReLU] fuses to kBnAddRelu, the
  // folded temporal tail [Accumulate, ReLU] to kAddRelu — per block.
  EXPECT_EQ(CountKind(fused, PlanOpKind::kBnAddRelu), 2);
  EXPECT_EQ(CountKind(fused, PlanOpKind::kAddRelu), 2);
  EXPECT_LT(fused.ops.size(), unfused.ops.size());

  Rng rng(34);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 18}, rng);
  PlanRunner unfused_runner(std::move(unfused));
  PlanRunner fused_runner(std::move(fused));
  const Tensor& baseline = unfused_runner.Run(x);
  const Tensor& rewritten = fused_runner.Run(x);
  // Folding re-associates float math: rtol-equivalent, not bit-exact.
  EXPECT_TRUE(AllClose(baseline, rewritten, /*rtol=*/1e-4f,
                       /*atol=*/1e-5f));
}

TEST(PlanFusionTest, FoldsBnIntoLinear) {
  Rng rng(35);
  Sequential seq;
  BatchNorm2d* bn = seq.Emplace<BatchNorm2d>(6);
  seq.Emplace<Linear>(6, 3, rng);
  // Non-trivial eval statistics so the fold actually rescales.
  bn->gamma() = Tensor::RandomUniform({6}, rng, 0.5f, 1.5f);
  bn->beta() = Tensor::RandomNormal({6}, rng);
  seq.SetTraining(true);
  Tensor warm = Tensor::RandomNormal({16, 6}, rng);
  seq.Forward(warm);  // advance the running statistics off their init
  seq.SetTraining(false);

  ExecutionPlan fused =
      BuildInferencePlan(seq, {5, 6}, PlanMode::kFused).ValueOrDie();
  EXPECT_EQ(fused.ops.size(), 1u);
  EXPECT_EQ(fused.ops[0].kind, PlanOpKind::kLinearFolded);

  Tensor x = Tensor::RandomNormal({5, 6}, rng);
  Tensor expected = seq.Forward(x);
  PlanRunner runner(std::move(fused));
  EXPECT_TRUE(AllClose(expected, runner.Run(x), /*rtol=*/1e-4f,
                       /*atol=*/1e-5f));
}

// Accuracy parity on a trained model: the fused plan must agree with
// the layer path within 0.1% top-1 over a full evaluation pass (the
// folding acceptance bound; in practice predictions match exactly on
// this scale).
TEST(PlanFusionTest, BnFoldAccuracyParity) {
  SyntheticDataConfig data_config = NtuLikeConfig(2, 6, 8, 91);
  SkeletonDataset dataset =
      SkeletonDataset::Generate(data_config).MoveValue();
  DatasetSplit split = dataset.RandomSplit(0.4f, 3);
  DhgcnConfig config =
      DhgcnConfig::Tiny(SkeletonLayoutType::kNtu25, /*num_classes=*/2);
  DhgcnModel model(config);
  {
    DataLoader loader(&dataset, split.train, 4, InputStream::kJoint,
                      /*shuffle=*/true, Rng(9));
    TrainOptions options;
    options.epochs = 2;
    options.initial_lr = 0.01f;
    Trainer trainer(&model, options);
    ASSERT_TRUE(trainer.Train(loader).ok());
  }
  DataLoader eval_loader(&dataset, split.test, 4, InputStream::kJoint,
                         /*shuffle=*/false);
  EvalMetrics layerwise = LayerPathMetrics({&model}, {&eval_loader});
  EvalOptions fused_options;
  fused_options.plan = PlanMode::kFused;
  EvalMetrics fused = Evaluate(model, eval_loader, fused_options);
  EXPECT_EQ(layerwise.count, fused.count);
  EXPECT_NEAR(layerwise.top1, fused.top1, 1e-3);
  EXPECT_NEAR(layerwise.loss, fused.loss, 1e-4);
}

TEST(PlanEvaluateTest, UnfusedPlanMatchesLayerPathExactly) {
  SyntheticDataConfig data_config = NtuLikeConfig(3, 4, 8, 92);
  SkeletonDataset dataset =
      SkeletonDataset::Generate(data_config).MoveValue();
  DatasetSplit split = dataset.RandomSplit(0.5f, 1);
  DhgcnConfig config =
      DhgcnConfig::Tiny(SkeletonLayoutType::kNtu25, /*num_classes=*/3);
  DhgcnModel model(config);
  model.SetTraining(false);
  // Batch 5 over 6 samples: exercises the per-batch-size runner cache
  // (a full batch and a tail batch compile separate plans).
  DataLoader loader(&dataset, split.test, 5, InputStream::kJoint,
                    /*shuffle=*/false);
  EvalMetrics layerwise = LayerPathMetrics({&model}, {&loader});
  EvalOptions plan_options;
  plan_options.plan = PlanMode::kUnfused;
  EvalMetrics planned = Evaluate(model, loader, plan_options);
  ExpectSameMetrics(layerwise, planned);
}

// An empty calibration converts nothing, so every int8 compile fails:
// the cache must serve the fp32 plan at the requested mode, bit for bit
// what an fp32-only cache serves, at each batch size.
TEST(PlanCacheTest, EmptyCalibrationServesFp32PlanAtRequestedMode) {
  std::unique_ptr<DhgcnModel> model = MakeEvalTiny();
  Rng rng(36);
  const Tensor full = Tensor::RandomNormal({2, 3, 8, 18}, rng);
  const Tensor tail = Tensor::RandomNormal({1, 3, 8, 18}, rng);
  for (PlanMode mode : {PlanMode::kUnfused, PlanMode::kFused}) {
    PlanCache fp32(*model, mode);
    PlanCache fallback(*model, mode, QuantCalibration{});
    Workspace ws;
    for (const Tensor* x : {&full, &tail, &full}) {
      ws.Reset();
      EXPECT_TRUE(BitEqual(fp32.Forward(*x, ws), fallback.Forward(*x, ws)))
          << PlanModeName(mode) << " batch " << x->dim(0);
    }
    EXPECT_EQ(fallback.plan_count(), 2);
    EXPECT_EQ(fallback.arena_bytes(), fp32.arena_bytes());
  }
}

// A model that does not record (zoo ST-GCN) runs the layer path, with
// the layer path's bits, and compiles nothing.
TEST(PlanCacheTest, NonRecordingModelRunsLayerPath) {
  ModelZooOptions zoo;
  zoo.scale.channels = {6, 12};
  zoo.scale.strides = {1, 2};
  zoo.scale.dropout = 0.0f;
  LayerPtr model = CreateModel(ModelKind::kStgcn,
                               SkeletonLayoutType::kKinetics18, 4, zoo);
  model->SetTraining(false);
  Rng rng(37);
  const Tensor x = Tensor::RandomNormal({2, 3, 8, 18}, rng);
  const Tensor expected = model->Forward(x);
  PlanCache plans(*model, PlanMode::kUnfused);
  Workspace ws;
  for (int repeat = 0; repeat < 2; ++repeat) {
    ws.Reset();
    EXPECT_TRUE(BitEqual(expected, plans.Forward(x, ws)))
        << "repeat " << repeat;
  }
  EXPECT_EQ(plans.plan_count(), 0);
}

// The paper's two-stream fusion (Sec. 3.5) and the per-class report run
// on plans; both must equal the layer path. Batch 5 over the split gives
// a full and a tail batch, so each stream compiles two runners.
TEST(PlanCacheTest, FusedNAndPerClassMatchLayerPath) {
  SkeletonDataset dataset =
      SkeletonDataset::Generate(NtuLikeConfig(3, 6, 8, 93)).MoveValue();
  DatasetSplit split = dataset.RandomSplit(0.5f, 2);
  DhgcnConfig joint_config =
      DhgcnConfig::Tiny(SkeletonLayoutType::kNtu25, /*num_classes=*/3);
  DhgcnConfig bone_config = joint_config;
  bone_config.seed = joint_config.seed + 1;
  DhgcnModel joint(joint_config);
  DhgcnModel bone(bone_config);
  auto loader = [&](InputStream stream) {
    return DataLoader(&dataset, split.test, 5, stream, /*shuffle=*/false);
  };
  DataLoader joint_a = loader(InputStream::kJoint);
  DataLoader bone_a = loader(InputStream::kBone);
  DataLoader joint_b = loader(InputStream::kJoint);
  DataLoader bone_b = loader(InputStream::kBone);
  ASSERT_GT(joint_a.NumBatches(), 1);

  const EvalMetrics want =
      LayerPathMetrics({&joint, &bone}, {&joint_a, &bone_a});
  ExpectSameMetrics(want, EvaluateFused(joint, bone, joint_b, bone_b));
  // The streams really differ, so the check covers the sum.
  EXPECT_NE(want.loss, LayerPathMetrics({&joint}, {&joint_a}).loss);

  constexpr int64_t kClasses = 3;
  Tensor confusion({kClasses, kClasses});
  joint.SetTraining(false);
  for (int64_t b = 0; b < joint_a.NumBatches(); ++b) {
    Batch batch = joint_a.GetBatch(b);
    AddInPlace(confusion, ConfusionMatrix(joint.Forward(batch.x),
                                          batch.labels, kClasses));
  }
  joint.SetTraining(true);
  const ClassificationReport report =
      EvaluatePerClass(joint, joint_b, kClasses);
  ASSERT_EQ(report.classes.size(), static_cast<size_t>(kClasses));
  double correct = 0.0;
  for (int64_t c = 0; c < kClasses; ++c) {
    double support = 0.0, predicted = 0.0;
    for (int64_t j = 0; j < kClasses; ++j) {
      support += confusion.at(c, j);
      predicted += confusion.at(j, c);
    }
    const double tp = confusion.at(c, c);
    const ClassReport& got = report.classes[static_cast<size_t>(c)];
    EXPECT_EQ(got.support, static_cast<int64_t>(support)) << "class " << c;
    EXPECT_EQ(got.precision, predicted > 0.0 ? tp / predicted : 0.0);
    EXPECT_EQ(got.recall, support > 0.0 ? tp / support : 0.0);
    correct += tp;
  }
  EXPECT_EQ(report.total, want.count);
  EXPECT_EQ(report.accuracy,
            correct / static_cast<double>(report.total));
}

TEST(DropoutEvalTest, IdentityFastPathSkipsMaskAllocAndRng) {
  Rng rng_a(40);
  Rng rng_b(40);
  Dropout warmed(0.5f, rng_a);
  Dropout fresh(0.5f, rng_b);
  Rng data_rng(41);
  Tensor x = Tensor::RandomNormal({4, 8}, data_rng);

  warmed.SetTraining(false);
  for (int i = 0; i < 3; ++i) {
    AllocStatsGuard guard;
    Tensor y = warmed.Forward(x);
    EXPECT_TRUE(y.SharesStorageWith(x)) << "eval dropout must be identity";
    EXPECT_EQ(guard.allocations(), 0u)
        << "eval dropout must not allocate a mask";
  }

  // Same seed, same first training-mode mask — eval forwards on
  // `warmed` never advanced its RNG stream.
  warmed.SetTraining(true);
  fresh.SetTraining(true);
  Tensor from_warmed = warmed.Forward(x);
  Tensor from_fresh = fresh.Forward(x);
  EXPECT_EQ(std::memcmp(from_warmed.data(), from_fresh.data(),
                        static_cast<size_t>(x.numel()) * sizeof(float)),
            0);
}

TEST(WorkspacePeakTest, PeakBytesTracksHighWaterAcrossResets) {
  Workspace ws;
  EXPECT_EQ(ws.PeakBytes(), 0u);
  { Tensor big = NewTensor(&ws, {1024}); }
  size_t peak = ws.PeakBytes();
  EXPECT_GE(peak, 1024 * sizeof(float));
  ws.Reset();
  { Tensor small = NewTensor(&ws, {8}); }
  EXPECT_EQ(ws.PeakBytes(), peak) << "peak must survive Reset";
}

}  // namespace
}  // namespace dhgcn

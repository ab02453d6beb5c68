// Training workloads: `train-ntu` and `train-kinetics-stgcn`.
//
// The untraced run drives the public API exactly as `dhgcn_train` does
// (Trainer over a fixed schedule, then Evaluate with the fused fp32
// plan) and yields the end-to-end metrics. The traced run repeats the
// same work through a loop that calls the same components one by one,
// with a span around each call, and proves it did the same work: its
// per-epoch losses and final parameters must equal the Trainer run's
// bit for bit, and its eval metrics must equal Evaluate's.

#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/thread_pool.h"
#include "data/dataloader.h"
#include "data/dataset.h"
#include "models/model_zoo.h"
#include "nn/layer.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "plan/plan_builder.h"
#include "plan/plan_runner.h"
#include "tensor/workspace.h"
#include "train/evaluator.h"
#include "train/experiment.h"
#include "train/metrics.h"
#include "train/trainer.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dhgcn::Batch;
using dhgcn::DataLoader;
using dhgcn::EvalMetrics;
using dhgcn::InputStream;
using dhgcn::LayerPtr;
using dhgcn::ModelKind;
using dhgcn::Rng;
using dhgcn::SkeletonDataset;
using dhgcn::Tensor;

constexpr int64_t kFrames = 16;
constexpr int64_t kBatch = 8;
// Intra-op threads. The serving workload runs 2 workers x 1 intra-op
// thread plus 1 generator thread, so no workload keeps more than 3 of a
// 4-core host's threads busy.
constexpr int64_t kTrainThreads = 2;
// Model initialization is part of the program, not of the input: the
// workload seed generates the dataset, its split and the shuffle order.
constexpr uint64_t kModelSeed = 17;
constexpr float kLr = 0.05f;
// Set-up runs at least this many times and for at least this long.
constexpr size_t kMinSetupRepeats = 7;
constexpr double kMinSetupSeconds = 1.5;
// Shares of --seconds: the training schedule, then the Evaluate window.
constexpr double kTrainShare = 0.6;
constexpr double kEvalShare = 0.35;

struct TrainSpec {
  ModelKind kind;
  bool ntu;  // NTU-like 25-joint 3-D data, else Kinetics-like 18-joint 2-D
  int64_t classes;
  // Dataset size scales with --seconds so that, at this nominal training
  // rate, the fixed schedule fills about kTrainShare of the run.
  double nominal_train_clips_per_s;
  int64_t epochs;
};

TrainSpec SpecFor(const std::string& workload) {
  if (workload == "train-ntu") {
    return {ModelKind::kDhgcn, true, 30, 85.0, 6};
  }
  return {ModelKind::kStgcn, false, 30, 330.0, 6};
}

// Exactly what `dhgcn_train --model <kind>` builds.
dhgcn::ModelZooOptions ZooOptions() {
  dhgcn::ModelZooOptions zoo;
  zoo.scale.channels = {16, 32, 64};
  zoo.scale.strides = {1, 2, 2};
  zoo.scale.dropout = 0.0f;
  zoo.kn = 3;
  zoo.km = 4;
  zoo.seed = kModelSeed;
  return zoo;
}

dhgcn::TrainOptions MakeTrainOptions(int64_t epochs) {
  dhgcn::TrainOptions options;
  options.epochs = epochs;
  options.initial_lr = kLr;
  options.lr_milestones = {epochs * 3 / 5, epochs * 4 / 5};
  return options;
}

struct Setup {
  std::unique_ptr<SkeletonDataset> dataset;
  dhgcn::DatasetSplit split;
  LayerPtr model;
};

bool BuildSetup(const TrainSpec& spec, const Args& args,
                int64_t samples_per_class, Setup* setup, RunResult* result) {
  dhgcn::SyntheticDataConfig config =
      spec.ntu ? dhgcn::NtuLikeConfig(spec.classes, samples_per_class,
                                      kFrames, args.seed)
               : dhgcn::KineticsLikeConfig(spec.classes, samples_per_class,
                                           kFrames, args.seed);
  dhgcn::Result<SkeletonDataset> dataset = SkeletonDataset::Generate(config);
  if (!dataset.ok()) {
    result->Fail("dataset generation: " + dataset.status().ToString());
    return false;
  }
  setup->dataset = std::make_unique<SkeletonDataset>(dataset.MoveValue());
  // The stratified holdout keeps split sizes independent of the seed, so
  // every seed runs the same number of steps and eval clips.
  setup->split = dhgcn::MakeSplit(*setup->dataset,
                                  dhgcn::SplitProtocol::kRandom, args.seed);
  setup->model = dhgcn::CreateModel(spec.kind, setup->dataset->layout_type(),
                                    setup->dataset->num_classes(),
                                    ZooOptions());
  return true;
}

DataLoader TrainLoader(const Setup& setup, const Args& args) {
  return DataLoader(setup.dataset.get(), setup.split.train, kBatch,
                    InputStream::kJoint, /*shuffle=*/true,
                    Rng(args.seed + 1));
}

DataLoader TestLoader(const Setup& setup) {
  return DataLoader(setup.dataset.get(), setup.split.test, kBatch,
                    InputStream::kJoint, /*shuffle=*/false);
}

bool SameMetrics(const EvalMetrics& a, const EvalMetrics& b) {
  return a.top1 == b.top1 && a.top5 == b.top5 && a.loss == b.loss &&
         a.count == b.count;
}

std::string Fmt(const char* format, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

// What the untraced run measured, kept for the traced run's checks and
// overhead.
struct UntracedRun {
  std::vector<dhgcn::EpochStats> history;
  EvalMetrics eval;
  double train_s = 0.0;
  double eval_pass_s = 0.0;  // median Evaluate pass
};

// --- Traced run -----------------------------------------------------------

void TracedRun(const TrainSpec& spec, const Args& args, const Setup& setup,
               const UntracedRun& untraced, RunResult* result) {
  Tracer tracer(1 << 18);
  LayerPtr model = dhgcn::CreateModel(spec.kind,
                                      setup.dataset->layout_type(),
                                      setup.dataset->num_classes(),
                                      ZooOptions());
  DataLoader loader = TrainLoader(setup, args);
  const dhgcn::TrainOptions options = MakeTrainOptions(spec.epochs);
  dhgcn::SgdOptimizer::Options sgd_options;
  sgd_options.lr = options.initial_lr;
  sgd_options.momentum = options.momentum;
  sgd_options.weight_decay = options.weight_decay;
  dhgcn::SgdOptimizer sgd(model->Params(), sgd_options);
  dhgcn::StepLrSchedule schedule(options.initial_lr, options.lr_milestones,
                                 options.lr_decay_factor);
  dhgcn::SoftmaxCrossEntropy loss(options.label_smoothing);
  dhgcn::Workspace ws;
  bool losses_match = true;

  const int32_t root = tracer.Begin("workload", "bench");
  for (int64_t epoch = 0; epoch < spec.epochs; ++epoch) {
    ScopedSpan epoch_span(&tracer, "train.epoch", "bench");
    model->SetTraining(true);
    loader.StartEpoch();
    sgd.set_lr(schedule.LrForEpoch(epoch));
    double loss_sum = 0.0;
    const int64_t batches = loader.NumBatches();
    for (int64_t b = 0; b < batches; ++b) {
      ScopedSpan step_span(&tracer, "train.step", "bench");
      Batch batch;
      {
        ScopedSpan s(&tracer, "data.GetBatch", "data");
        batch = loader.GetBatch(b);
      }
      {
        ScopedSpan s(&tracer, "train.zero_grad", "nn");
        sgd.ZeroGrad();
      }
      ws.Reset();
      Tensor logits;
      {
        ScopedSpan s(&tracer, "train.forward", "model");
        model->ForwardInto(batch.x, ws, &logits);
      }
      float step_loss = 0.0f;
      Tensor grad;
      {
        ScopedSpan s(&tracer, "train.loss", "nn");
        dhgcn::Result<float> l = loss.TryForward(logits, batch.labels, ws);
        if (!l.ok()) {
          result->Fail("traced loss: " + l.status().ToString());
          return;
        }
        step_loss = *l;
        grad = loss.Backward(ws);
      }
      {
        ScopedSpan s(&tracer, "train.backward", "model");
        Tensor grad_input;
        model->BackwardInto(grad, ws, &grad_input);
      }
      {
        ScopedSpan s(&tracer, "train.optimizer", "nn");
        sgd.Step();
      }
      if (!std::isfinite(step_loss)) {
        result->Fail("traced step loss is not finite");
      }
      loss_sum += step_loss;
    }
    const double mean_loss = loss_sum / static_cast<double>(batches);
    if (mean_loss != untraced.history[static_cast<size_t>(epoch)].mean_loss) {
      losses_match = false;
    }
  }
  if (!losses_match) {
    result->Fail("traced training losses differ from the Trainer run");
  }

  // Traced eval: the same batches Evaluate saw, replayed through the
  // fused plan with a PlanRunner observer timing every op.
  EvalMetrics traced_eval;
  size_t arena_bytes = 0;
  {
    ScopedSpan pass(&tracer, "eval.pass", "bench");
    model->SetTraining(false);
    DataLoader test = TestLoader(setup);
    dhgcn::SoftmaxCrossEntropy eval_loss;
    dhgcn::MetricsAccumulator accumulator;
    dhgcn::Workspace eval_ws;
    // Clocks outlive the runners whose observers point at them.
    std::unordered_map<int64_t, std::unique_ptr<OpClock>> clocks;
    std::unordered_map<int64_t, std::unique_ptr<dhgcn::PlanRunner>> runners;
    bool plan_ok = true;
    for (int64_t b = 0; b < test.NumBatches(); ++b) {
      Batch batch;
      {
        ScopedSpan s(&tracer, "data.GetBatch", "data");
        batch = test.GetBatch(b);
      }
      eval_ws.Reset();
      dhgcn::PlanRunner* runner = nullptr;
      OpClock* clock = nullptr;
      const int64_t n = batch.x.dim(0);
      if (plan_ok && runners.count(n) == 0) {
        ScopedSpan s(&tracer, "plan.compile", "plan");
        dhgcn::Result<dhgcn::ExecutionPlan> plan = dhgcn::BuildInferencePlan(
            *model, batch.x.shape(), dhgcn::PlanMode::kFused);
        if (plan.ok()) {
          auto built = std::make_unique<dhgcn::PlanRunner>(plan.MoveValue());
          auto op_clock = std::make_unique<OpClock>(&tracer, built.get());
          arena_bytes += built->arena_bytes();
          runners.emplace(n, std::move(built));
          clocks.emplace(n, std::move(op_clock));
        } else {
          plan_ok = false;  // Evaluate falls back to the layer path too
        }
      }
      if (plan_ok) {
        runner = runners[n].get();
        clock = clocks[n].get();
      }
      ScopedSpan s(&tracer, "eval.batch", "bench");
      if (runner != nullptr) {
        clock->StartRun();
        const Tensor* logits = nullptr;
        {
          ScopedSpan run(&tracer, "plan.run", "plan");
          logits = &runner->Run(batch.x);
        }
        ScopedSpan l(&tracer, "eval.loss", "nn");
        const float batch_loss =
            eval_loss.TryForward(*logits, batch.labels, eval_ws).ValueOrDie();
        accumulator.Add(*logits, batch.labels, batch_loss);
      } else {
        Tensor logits;
        {
          ScopedSpan run(&tracer, "eval.layerwise", "model");
          logits = dhgcn::LayerForward(*model, batch.x, &eval_ws);
        }
        ScopedSpan l(&tracer, "eval.loss", "nn");
        const float batch_loss =
            eval_loss.TryForward(logits, batch.labels, eval_ws).ValueOrDie();
        accumulator.Add(logits, batch.labels, batch_loss);
      }
    }
    model->SetTraining(true);
    traced_eval = accumulator.Finalize();
  }
  tracer.End(root);

  // Same work, bit for bit.
  std::vector<dhgcn::ParamRef> traced_params = model->Params();
  std::vector<dhgcn::ParamRef> params = setup.model->Params();
  bool params_match = traced_params.size() == params.size();
  for (size_t i = 0; params_match && i < params.size(); ++i) {
    const Tensor& a = *params[i].value;
    const Tensor& b = *traced_params[i].value;
    params_match = a.numel() == b.numel() &&
                   std::memcmp(a.data(), b.data(),
                               static_cast<size_t>(a.numel()) *
                                   sizeof(float)) == 0;
  }
  if (!params_match) {
    result->Fail("traced final parameters differ from the Trainer run");
  }
  if (!SameMetrics(traced_eval, untraced.eval)) {
    result->Fail("traced eval metrics differ from Evaluate");
  }
  result->attempted += spec.epochs * loader.NumBatches() + traced_eval.count;

  AddDistribution(result, "data.batch_ms",
                  Summarize(tracer.DurationsMs("data.GetBatch")), "ms");
  AddDistribution(result, "train.forward_ms",
                  Summarize(tracer.DurationsMs("train.forward")), "ms");
  AddDistribution(result, "train.backward_ms",
                  Summarize(tracer.DurationsMs("train.backward")), "ms");
  AddDistribution(result, "train.loss_ms",
                  Summarize(tracer.DurationsMs("train.loss")), "ms");
  AddDistribution(result, "train.optimizer_ms",
                  Summarize(tracer.DurationsMs("train.optimizer")), "ms");
  // The Trainer's own count over its last epoch.
  result->Add("train.allocs_per_step",
              static_cast<double>(untraced.history.back().tensor_allocations) /
                  static_cast<double>(loader.NumBatches()),
              "count");
  result->Add("train.ws_peak_mb",
              static_cast<double>(ws.PeakBytes()) / (1024.0 * 1024.0), "MB");
  result->Add("train.final_loss", untraced.history.back().mean_loss, "nats");
  result->Add("eval.top1", 100.0 * untraced.eval.top1, "%");
  AddDistribution(result, "eval.batch_ms",
                  Summarize(tracer.DurationsMs("eval.batch")), "ms");
  AddDistribution(result, "plan.compile_ms",
                  Summarize(tracer.DurationsMs("plan.compile")), "ms");
  result->Add("plan.arena_mb",
              static_cast<double>(arena_bytes) / (1024.0 * 1024.0), "MB");
  AddOpMetrics(tracer, result);
  AddSelfTimeTable(tracer, result);
  const double untraced_ms =
      1e3 * (untraced.train_s + untraced.eval_pass_s);
  result->Add("trace.overhead_pct",
              100.0 * (tracer.RootMs() - untraced_ms) / untraced_ms, "%");
  result->Note(Fmt("untraced train+eval pass: %.1f ms", untraced_ms) +
               Fmt(", traced: %.1f ms", tracer.RootMs()));
  if (!args.trace_out.empty() && !tracer.WriteChromeJson(args.trace_out)) {
    result->Fail("cannot write trace " + args.trace_out);
  }
}

}  // namespace

RunResult RunTrainWorkload(const Args& args) {
  RunResult result;
  const TrainSpec spec = SpecFor(args.workload);
  dhgcn::ThreadPool::Get().SetThreads(kTrainThreads);

  // Samples per class so the schedule's training clips (three quarters
  // of the set under the holdout) take about kTrainShare of --seconds at
  // the nominal rate.
  const double train_fraction = 0.75;
  const double clips_per_epoch = spec.nominal_train_clips_per_s *
                                 kTrainShare * args.seconds /
                                 static_cast<double>(spec.epochs);
  const int64_t samples_per_class = std::max<int64_t>(
      4, std::llround(clips_per_epoch /
                      (train_fraction * static_cast<double>(spec.classes))));

  // --- Setup: dataset generation and model build, repeated. -------------
  Setup setup;
  std::vector<double> setup_s;
  const int64_t setup_start = NowNs();
  while (setup_s.size() < kMinSetupRepeats ||
         static_cast<double>(NowNs() - setup_start) * 1e-9 <
             kMinSetupSeconds) {
    // A short pause lets the scheduler move the thread between cores,
    // whose speeds differ on a shared host, so the median sees several.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    setup = Setup();
    const int64_t t0 = NowNs();
    if (!BuildSetup(spec, args, samples_per_class, &setup, &result)) {
      return result;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }

  // --- Train: the Trainer over the fixed schedule. -----------------------
  UntracedRun untraced;
  DataLoader train_loader = TrainLoader(setup, args);
  dhgcn::Trainer trainer(setup.model.get(), MakeTrainOptions(spec.epochs));
  dhgcn::Result<std::vector<dhgcn::EpochStats>> history =
      trainer.Train(train_loader);
  if (!history.ok()) {
    result.Fail("training: " + history.status().ToString());
    return result;
  }
  untraced.history = history.MoveValue();
  const double clips_per_epoch_actual =
      static_cast<double>(train_loader.NumSamples());
  const int64_t steps_per_epoch = train_loader.NumBatches();
  std::vector<double> epoch_rates;
  std::vector<double> step_ms;
  for (const dhgcn::EpochStats& e : untraced.history) {
    untraced.train_s += e.seconds;
    if (!std::isfinite(e.mean_loss)) {
      result.failed += steps_per_epoch;
      result.Fail("epoch " + std::to_string(e.epoch) +
                  " mean loss is not finite");
    }
    // Epoch 0 is the warm-up (arena growth, first-touch pages).
    if (e.epoch == 0) continue;
    epoch_rates.push_back(clips_per_epoch_actual / e.seconds);
    step_ms.push_back(1e3 * e.seconds / static_cast<double>(steps_per_epoch));
  }
  result.attempted += spec.epochs * steps_per_epoch;

  // --- Eval: Evaluate passes with the fused fp32 plan. -------------------
  DataLoader test_loader = TestLoader(setup);
  dhgcn::EvalOptions eval_options;
  eval_options.plan = dhgcn::PlanMode::kFused;
  untraced.eval = dhgcn::Evaluate(*setup.model, test_loader, eval_options);
  const double eval_window_s = kEvalShare * args.seconds;
  std::vector<double> pass_s;
  const int64_t eval_start = NowNs();
  while (pass_s.size() < 3 ||
         static_cast<double>(NowNs() - eval_start) * 1e-9 < eval_window_s) {
    const int64_t t0 = NowNs();
    EvalMetrics m = dhgcn::Evaluate(*setup.model, test_loader, eval_options);
    pass_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (!SameMetrics(m, untraced.eval)) {
      result.Fail("Evaluate passes over the same model disagree");
    }
  }
  untraced.eval_pass_s = Median(pass_s);
  const int64_t eval_clips = untraced.eval.count;
  result.attempted += eval_clips * static_cast<int64_t>(pass_s.size() + 1);
  std::vector<double> eval_rates;
  for (double s : pass_s) {
    eval_rates.push_back(static_cast<double>(eval_clips) / s);
  }
  // Throughputs are medians of equal segments (timed epochs, Evaluate
  // passes), so a burst of host contention in one segment does not move
  // them; the segments' spread is printed alongside.
  const double train_clips_per_s = Median(epoch_rates);
  const double eval_clips_per_s = Median(eval_rates);
  if (eval_clips <= 0) result.Fail("empty test split");

  result.Note("workload " + args.workload + ": " +
              std::to_string(setup.dataset->size()) + " clips (" +
              std::to_string(train_loader.NumSamples()) + " train / " +
              std::to_string(eval_clips) + " test), " +
              std::to_string(spec.epochs) + " epochs of " +
              std::to_string(steps_per_epoch) + " steps, " +
              std::to_string(pass_s.size()) + " timed eval passes, " +
              std::to_string(dhgcn::ThreadPool::Get().thread_count()) +
              " intra-op threads");
  // The workload's user-facing metrics under their own names.
  result.Note(Fmt("metric setup_s %.6f s", Median(setup_s)));
  result.Note(Fmt("metric peak_rss_mb %.3f MB", PeakRssMb()));
  result.Note(Fmt("metric train_clips_per_s %.3f clips/s", train_clips_per_s) +
              Fmt(" (median of %.0f epochs;", static_cast<double>(
                                                  epoch_rates.size())) +
              Fmt(" IQR/median %.3f)", RelativeIqr(epoch_rates)));
  result.Note(Fmt("metric eval_clips_per_s %.3f clips/s", eval_clips_per_s) +
              Fmt(" (median of %.0f passes;",
                  static_cast<double>(eval_rates.size())) +
              Fmt(" IQR/median %.3f)", RelativeIqr(eval_rates)));
  result.Note(Fmt("metric final_loss %.6f nats",
                  untraced.history.back().mean_loss));
  result.Note(Fmt("metric top1 %.3f %%", 100.0 * untraced.eval.top1));
  if (!args.trace) {
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    result.Add("clips_per_s", train_clips_per_s, "clips/s");
    result.Add("eval_clips_per_s", eval_clips_per_s, "clips/s");
    // Trainer times epochs, not steps: this is the mean step time of the
    // median timed epoch, i.e. about 1e3 * kBatch / clips_per_s, so one
    // training slowdown moves both metrics.
    result.Add("p50_ms", Median(step_ms), "ms");
    return result;
  }
  TracedRun(spec, args, setup, untraced, &result);
  return result;
}

}  // namespace perfbench

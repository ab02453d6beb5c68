#include "train/evaluator.h"

#include <memory>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "base/check.h"
#include "base/logging.h"
#include "base/string_util.h"
#include "nn/loss.h"
#include "plan/plan_builder.h"
#include "plan/plan_runner.h"
#include "quant/calibration.h"
#include "quant/quantize_pass.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"
#include "train/table.h"

namespace dhgcn {

EvalMetrics Evaluate(Layer& model, DataLoader& loader,
                     const EvalOptions& options) {
  model.SetTraining(false);
  SoftmaxCrossEntropy loss;
  MetricsAccumulator accumulator;
  Workspace workspace;
  // One compiled runner per batch size (the tail batch is usually
  // smaller); capture failure disables the plan path for this call.
  std::unordered_map<int64_t, std::unique_ptr<PlanRunner>> runners;
  bool int8_ok = options.precision == Precision::kInt8;
  bool plan_ok = int8_ok || options.plan != PlanMode::kOff;
  QuantCalibration calib;
  bool have_calib = false;
  // Int8 first (calibrating lazily, once), fp32 plan fallback; any
  // int8 failure downgrades the whole call with one warning.
  auto compile = [&](const Shape& shape) -> Result<ExecutionPlan> {
    if (int8_ok && !have_calib) {
      DataLoader& cal = options.calibration_loader != nullptr
                            ? *options.calibration_loader
                            : loader;
      Result<QuantCalibration> c =
          CalibrateOnBatches(model, cal, options.calibration_batches);
      if (c.ok()) {
        calib = c.MoveValue();
        have_calib = true;
      } else {
        DHGCN_LOG(kWarning) << "int8 calibration failed ("
                            << c.status().ToString()
                            << "); evaluating fp32";
        int8_ok = false;
      }
    }
    if (int8_ok) {
      Result<ExecutionPlan> plan = BuildInt8InferencePlan(model, shape, calib);
      if (plan.ok()) return plan;
      DHGCN_LOG(kWarning) << "int8 plan compile failed ("
                          << plan.status().ToString() << "); evaluating fp32";
      int8_ok = false;
    }
    if (options.plan == PlanMode::kOff) {
      return Status::FailedPrecondition("fp32 plan path not requested");
    }
    return BuildInferencePlan(model, shape, options.plan);
  };
  size_t plan_arena_bytes = 0;
  for (int64_t b = 0; b < loader.NumBatches(); ++b) {
    Batch batch = loader.GetBatch(b);
    workspace.Reset();
    PlanRunner* runner = nullptr;
    if (plan_ok) {
      auto it = runners.find(batch.x.dim(0));
      if (it == runners.end()) {
        Result<ExecutionPlan> plan = compile(batch.x.shape());
        if (!plan.ok()) {
          DHGCN_LOG(kWarning)
              << "plan capture failed (" << plan.status().ToString()
              << "); evaluating layer-by-layer";
          plan_ok = false;
        } else {
          it = runners
                   .emplace(batch.x.dim(0), std::make_unique<PlanRunner>(
                                                std::move(plan).ValueOrDie()))
                   .first;
          plan_arena_bytes += it->second->arena_bytes();
        }
      }
      if (it != runners.end()) runner = it->second.get();
    }
    Tensor logits = runner != nullptr ? runner->Run(batch.x)
                                      : model.Forward(batch.x, &workspace);
    float batch_loss =
        loss.TryForward(logits, batch.labels, workspace).ValueOrDie();
    accumulator.Add(logits, batch.labels, batch_loss);
  }
  if (options.log_peak_bytes) {
    DHGCN_LOG(kInfo) << "eval ws_peak=" << (workspace.PeakBytes() >> 10)
                     << " KiB plan_arenas=" << (plan_arena_bytes >> 10)
                     << " KiB (" << runners.size() << " compiled plans, mode="
                     << PlanModeName(options.plan)
                     << ", precision=" << PrecisionName(options.precision)
                     << ")";
  }
  model.SetTraining(true);
  return accumulator.Finalize();
}

EvalMetrics EvaluateFused(Layer& joint_model, Layer& bone_model,
                          DataLoader& joint_loader,
                          DataLoader& bone_loader) {
  return EvaluateFusedN({&joint_model, &bone_model},
                        {&joint_loader, &bone_loader});
}

EvalMetrics EvaluateFusedN(const std::vector<Layer*>& models,
                           const std::vector<DataLoader*>& loaders) {
  DHGCN_CHECK(!models.empty());
  DHGCN_CHECK_EQ(models.size(), loaders.size());
  for (size_t s = 1; s < loaders.size(); ++s) {
    DHGCN_CHECK_EQ(loaders[s]->NumBatches(), loaders[0]->NumBatches());
  }
  for (Layer* model : models) model->SetTraining(false);
  SoftmaxCrossEntropy loss;
  MetricsAccumulator accumulator;
  for (int64_t b = 0; b < loaders[0]->NumBatches(); ++b) {
    Batch first = loaders[0]->GetBatch(b);
    Tensor logits = models[0]->Forward(first.x);
    for (size_t s = 1; s < models.size(); ++s) {
      Batch batch = loaders[s]->GetBatch(b);
      DHGCN_CHECK(batch.sample_indices == first.sample_indices);
      AddInPlace(logits, models[s]->Forward(batch.x));
    }
    float batch_loss = loss.Forward(logits, first.labels);
    accumulator.Add(logits, first.labels, batch_loss);
  }
  for (Layer* model : models) model->SetTraining(true);
  return accumulator.Finalize();
}

std::string ClassificationReport::ToString() const {
  TextTable table({"Class", "Support", "Precision", "Recall", "F1"});
  for (const ClassReport& c : classes) {
    table.AddRow({StrCat(c.label), StrCat(c.support),
                  FormatFixed(c.precision, 3), FormatFixed(c.recall, 3),
                  FormatFixed(c.f1, 3)});
  }
  table.AddSeparator();
  table.AddRow({"overall", StrCat(total),
                StrCat("acc=", FormatFixed(accuracy, 3)), "",
                StrCat("macro=", FormatFixed(macro_f1, 3))});
  return table.ToString();
}

ClassificationReport EvaluatePerClass(Layer& model, DataLoader& loader,
                                      int64_t num_classes) {
  DHGCN_CHECK_GT(num_classes, 0);
  model.SetTraining(false);
  Tensor confusion({num_classes, num_classes});
  int64_t total = 0;
  for (int64_t b = 0; b < loader.NumBatches(); ++b) {
    Batch batch = loader.GetBatch(b);
    Tensor logits = model.Forward(batch.x);
    AddInPlace(confusion,
               ConfusionMatrix(logits, batch.labels, num_classes));
    total += static_cast<int64_t>(batch.labels.size());
  }
  model.SetTraining(true);

  ClassificationReport report;
  report.total = total;
  double correct = 0.0;
  double f1_sum = 0.0;
  for (int64_t c = 0; c < num_classes; ++c) {
    ClassReport entry;
    entry.label = c;
    double tp = confusion.at(c, c);
    double support = 0.0, predicted = 0.0;
    for (int64_t j = 0; j < num_classes; ++j) {
      support += confusion.at(c, j);
      predicted += confusion.at(j, c);
    }
    entry.support = static_cast<int64_t>(support);
    entry.precision = predicted > 0.0 ? tp / predicted : 0.0;
    entry.recall = support > 0.0 ? tp / support : 0.0;
    entry.f1 = entry.precision + entry.recall > 0.0
                   ? 2.0 * entry.precision * entry.recall /
                         (entry.precision + entry.recall)
                   : 0.0;
    correct += tp;
    f1_sum += entry.f1;
    report.classes.push_back(entry);
  }
  report.accuracy =
      total > 0 ? static_cast<double>(correct) / static_cast<double>(total)
                : 0.0;
  report.macro_f1 = f1_sum / static_cast<double>(num_classes);
  return report;
}

}  // namespace dhgcn

#include "train/evaluator.h"

#include <optional>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/logging.h"
#include "base/string_util.h"
#include "nn/loss.h"
#include "plan/plan_cache.h"
#include "quant/calibration.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"
#include "train/table.h"

namespace dhgcn {

EvalMetrics Evaluate(Layer& model, DataLoader& loader,
                     const EvalOptions& options) {
  model.SetTraining(false);
  std::optional<QuantCalibration> calibration;
  if (options.precision == Precision::kInt8) {
    DataLoader& cal = options.calibration_loader != nullptr
                          ? *options.calibration_loader
                          : loader;
    Result<QuantCalibration> c =
        CalibrateOnBatches(model, cal, options.calibration_batches);
    if (c.ok()) {
      calibration = c.MoveValue();
    } else {
      DHGCN_LOG(kWarning) << "int8 calibration failed ("
                          << c.status().ToString() << "); evaluating fp32";
    }
  }
  PlanCache plans(model, options.plan, std::move(calibration));
  SoftmaxCrossEntropy loss;
  MetricsAccumulator accumulator;
  Workspace workspace;
  for (int64_t b = 0; b < loader.NumBatches(); ++b) {
    Batch batch = loader.GetBatch(b);
    workspace.Reset();
    Tensor logits = plans.Forward(batch.x, workspace);
    float batch_loss =
        loss.TryForward(logits, batch.labels, workspace).ValueOrDie();
    accumulator.Add(logits, batch.labels, batch_loss);
  }
  if (options.log_peak_bytes) {
    DHGCN_LOG(kInfo) << "eval ws_peak=" << (workspace.PeakBytes() >> 10)
                     << " KiB plan_arenas=" << (plans.arena_bytes() >> 10)
                     << " KiB (" << plans.plan_count()
                     << " compiled plans, mode=" << PlanModeName(options.plan)
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
  std::vector<PlanCache> plans;
  plans.reserve(models.size());
  for (Layer* model : models) {
    model->SetTraining(false);
    plans.emplace_back(*model, PlanMode::kUnfused);
  }
  SoftmaxCrossEntropy loss;
  MetricsAccumulator accumulator;
  Workspace workspace;
  for (int64_t b = 0; b < loaders[0]->NumBatches(); ++b) {
    Batch first = loaders[0]->GetBatch(b);
    workspace.Reset();
    const Tensor first_logits = plans[0].Forward(first.x, workspace);
    Tensor logits = NewTensor(&workspace, first_logits.shape());
    logits.CopyFrom(first_logits);
    for (size_t s = 1; s < models.size(); ++s) {
      Batch batch = loaders[s]->GetBatch(b);
      DHGCN_CHECK(batch.sample_indices == first.sample_indices);
      AddInPlace(logits, plans[s].Forward(batch.x, workspace));
    }
    float batch_loss =
        loss.TryForward(logits, first.labels, workspace).ValueOrDie();
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
  PlanCache plans(model, PlanMode::kUnfused);
  Workspace workspace;
  Tensor confusion({num_classes, num_classes});
  int64_t total = 0;
  for (int64_t b = 0; b < loader.NumBatches(); ++b) {
    Batch batch = loader.GetBatch(b);
    workspace.Reset();
    AddInPlace(confusion,
               ConfusionMatrix(plans.Forward(batch.x, workspace),
                               batch.labels, num_classes));
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

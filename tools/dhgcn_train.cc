// Command-line training tool: train any model in the zoo on a synthetic
// (or CSV-loaded) skeleton dataset, with checkpointing and per-class
// evaluation reports.
//
// Examples:
//   dhgcn_train --model dhgcn --dataset ntu --split xsub --epochs 20
//       ... --save /tmp/dhgcn.ckpt
//   dhgcn_train --model stgcn --dataset kinetics --report
//   dhgcn_train --data_csv exported.csv --model agcn --stream bone
//   dhgcn_train --model dhgcn --load /tmp/dhgcn.ckpt --eval_only
//   dhgcn_train --model dhgcn --checkpoint /tmp/run.ckpt --resume
//       ... --checkpoint_every 5 --guardrails skip

#include <cstdio>
#include <string>

#include "base/fault_injection.h"
#include "base/flags.h"
#include "base/runtime_flags.h"
#include "base/string_util.h"
#include "data/csv_io.h"
#include "io/serialization.h"
#include "models/model_zoo.h"
#include "train/evaluator.h"
#include "train/experiment.h"
#include "train/summary.h"

namespace dhgcn {
namespace {

Result<SplitProtocol> ParseSplit(const std::string& text) {
  if (text == "xsub") return SplitProtocol::kCrossSubject;
  if (text == "xview") return SplitProtocol::kCrossView;
  if (text == "xset") return SplitProtocol::kCrossSetup;
  if (text == "random") return SplitProtocol::kRandom;
  return Status::InvalidArgument(
      StrCat("unknown split '", text, "' (xsub|xview|xset|random)"));
}

Result<InputStream> ParseStream(const std::string& text) {
  if (text == "joint") return InputStream::kJoint;
  if (text == "bone") return InputStream::kBone;
  if (text == "joint-motion") return InputStream::kJointMotion;
  if (text == "bone-motion") return InputStream::kBoneMotion;
  return Status::InvalidArgument(
      StrCat("unknown stream '", text,
             "' (joint|bone|joint-motion|bone-motion)"));
}

Status RunMain(int argc, const char* const* argv) {
  std::string model_name = "dhgcn";
  std::string dataset_name = "ntu";
  std::string data_csv;
  std::string split_name = "xsub";
  std::string stream_name = "joint";
  std::string save_path;
  std::string load_path;
  std::string checkpoint_path;
  std::string guardrails_name = "off";
  std::string fault_spec;
  int64_t checkpoint_every = 1;
  int64_t max_anomalies = 0;
  double loss_spike_factor = 0.0;
  bool resume = true;
  int64_t classes = 5;
  int64_t samples_per_class = 20;
  int64_t frames = 16;
  int64_t epochs = 20;
  int64_t batch_size = 8;
  int64_t kn = 3;
  int64_t km = 4;
  int64_t seed = 17;
  double lr = 0.05;
  bool eval_only = false;
  bool report = false;
  bool summary = false;
  bool augment = false;
  std::string plan_name = "on";
  RuntimeFlags rt;
  bool prune = false;
  double prune_sparsity = 0.8;
  int64_t prune_start = 1;
  int64_t prune_end = -1;
  bool help = false;

  FlagSet flags("dhgcn_train");
  flags.AddString("model", &model_name,
                  "tcn|stgcn|agcn|ahgcn|pbgcn{2,4,6}|pbhgcn{2,4,6}|dhgcn");
  flags.AddString("dataset", &dataset_name,
                  "synthetic dataset: ntu|ntu120|kinetics");
  flags.AddString("data_csv", &data_csv,
                  "load dataset from CSV instead of generating");
  flags.AddString("split", &split_name, "xsub|xview|xset|random");
  flags.AddString("stream", &stream_name,
                  "joint|bone|joint-motion|bone-motion");
  flags.AddString("save", &save_path, "weights path to write after training");
  flags.AddString("load", &load_path, "weights path to read before training");
  flags.AddString("checkpoint", &checkpoint_path,
                  "resumable training checkpoint path (atomic v2 format)");
  flags.AddInt64("checkpoint_every", &checkpoint_every,
                 "epochs between checkpoint writes");
  flags.AddBool("resume", &resume,
                "continue from --checkpoint when it exists");
  flags.AddString("guardrails", &guardrails_name,
                  "anomaly policy: off|skip|halve-lr|rollback|abort");
  flags.AddDouble("loss_spike_factor", &loss_spike_factor,
                  "flag loss > factor * running mean as anomaly (0 = off)");
  flags.AddInt64("max_anomalies", &max_anomalies,
                 "abort after this many anomalies (0 = unlimited)");
  flags.AddString("fault_inject", &fault_spec,
                  "arm deterministic faults, e.g. grad-nan:3,write-fail:1");
  flags.AddInt64("classes", &classes, "synthetic classes");
  flags.AddInt64("samples_per_class", &samples_per_class,
                 "synthetic samples per class");
  flags.AddInt64("frames", &frames, "frames per sequence");
  flags.AddInt64("epochs", &epochs, "training epochs");
  flags.AddInt64("batch_size", &batch_size, "minibatch size");
  flags.AddInt64("kn", &kn, "DHGCN k_n (joints per K-NN hyperedge)");
  flags.AddInt64("km", &km, "DHGCN k_m (K-means hyperedges)");
  flags.AddInt64("seed", &seed, "random seed");
  flags.AddDouble("lr", &lr, "initial learning rate");
  flags.AddBool("eval_only", &eval_only, "skip training");
  flags.AddBool("report", &report, "print per-class report");
  flags.AddBool("summary", &summary, "print the parameter summary");
  flags.AddBool("augment", &augment, "enable training augmentation");
  flags.AddString("plan", &plan_name,
                  "evaluation execution plan: on|fused (on = compiled "
                  "replay, bit-identical to the layer path; fused = "
                  "Conv+BN folding, rtol-equivalent). Training is always "
                  "layer-by-layer.");
  rt.Register(&flags);
  flags.AddBool("prune", &prune,
                "magnitude-prune weights on a cubic schedule, then "
                "fine-tune (masks re-applied every step)");
  flags.AddDouble("prune_sparsity", &prune_sparsity,
                  "target fraction of prunable weights zeroed");
  flags.AddInt64("prune_start", &prune_start,
                 "first epoch that prunes (0-based)");
  flags.AddInt64("prune_end", &prune_end,
                 "epoch the target sparsity is reached (-1 = one-shot "
                 "at --prune_start)");
  flags.AddBool("help", &help, "show usage");
  DHGCN_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (help) {
    std::printf("%s", flags.Usage().c_str());
    return Status::OK();
  }
  if (!fault_spec.empty()) {
    DHGCN_RETURN_IF_ERROR(FaultInjection::Get().ArmFromSpec(fault_spec));
    std::printf("fault injection armed: %s\n", fault_spec.c_str());
  }
  DHGCN_RETURN_IF_ERROR(rt.Apply());
  DHGCN_ASSIGN_OR_RETURN(PlanMode plan_mode, ParsePlanMode(plan_name));

  // --- Dataset -----------------------------------------------------------
  Result<SkeletonDataset> dataset_result = [&]() -> Result<SkeletonDataset> {
    if (!data_csv.empty()) return LoadDatasetCsv(data_csv);
    if (dataset_name == "ntu") {
      return SkeletonDataset::Generate(NtuLikeConfig(
          classes, samples_per_class, frames,
          static_cast<uint64_t>(seed)));
    }
    if (dataset_name == "ntu120") {
      SyntheticDataConfig config = NtuLikeConfig(
          classes, samples_per_class, frames, static_cast<uint64_t>(seed));
      config.num_subjects = 12;
      config.num_setups = 8;
      return SkeletonDataset::Generate(config);
    }
    if (dataset_name == "kinetics") {
      return SkeletonDataset::Generate(KineticsLikeConfig(
          classes, samples_per_class, frames,
          static_cast<uint64_t>(seed)));
    }
    return Status::InvalidArgument(
        StrCat("unknown dataset '", dataset_name,
               "' (ntu|ntu120|kinetics)"));
  }();
  DHGCN_RETURN_IF_ERROR(dataset_result.status());
  SkeletonDataset& dataset = *dataset_result;

  DHGCN_ASSIGN_OR_RETURN(SplitProtocol protocol, ParseSplit(split_name));
  DHGCN_ASSIGN_OR_RETURN(InputStream stream, ParseStream(stream_name));
  DatasetSplit split =
      MakeSplit(dataset, protocol, static_cast<uint64_t>(seed));
  std::printf("dataset: %lld samples (%lld classes), %s: %lld train / "
              "%lld test, stream=%s\n",
              static_cast<long long>(dataset.size()),
              static_cast<long long>(dataset.num_classes()),
              SplitProtocolName(protocol).c_str(),
              static_cast<long long>(split.train.size()),
              static_cast<long long>(split.test.size()),
              InputStreamName(stream).c_str());

  // --- Model -------------------------------------------------------------
  DHGCN_ASSIGN_OR_RETURN(ModelKind kind, ParseModelKind(model_name));
  ModelZooOptions zoo;
  zoo.scale.channels = {16, 32, 64};
  zoo.scale.strides = {1, 2, 2};
  zoo.scale.dropout = 0.0f;
  zoo.kn = kn;
  zoo.km = km;
  zoo.seed = static_cast<uint64_t>(seed);
  LayerPtr model =
      CreateModel(kind, dataset.layout_type(), dataset.num_classes(), zoo);
  std::printf("model: %s, %lld parameters\n", model->name().c_str(),
              static_cast<long long>(model->ParameterCount()));
  if (summary) std::printf("%s", ParameterSummary(*model).c_str());
  if (!load_path.empty()) {
    DHGCN_RETURN_IF_ERROR(LoadParameters(load_path, *model));
    std::printf("loaded checkpoint %s\n", load_path.c_str());
  }

  // --- Train -------------------------------------------------------------
  if (!eval_only) {
    DataLoader train_loader(&dataset, split.train, batch_size, stream,
                            /*shuffle=*/true,
                            Rng(static_cast<uint64_t>(seed) + 1));
    if (augment) {
      train_loader.SetAugmentation(AugmentationPipeline::Standard(frames));
    }
    TrainOptions train_options;
    train_options.epochs = epochs;
    train_options.initial_lr = static_cast<float>(lr);
    train_options.lr_milestones = {epochs * 3 / 5, epochs * 4 / 5};
    train_options.verbose = true;
    if (prune) {
      if (prune_sparsity < 0.0 || prune_sparsity >= 1.0) {
        return Status::InvalidArgument(StrCat(
            "--prune_sparsity must be in [0,1), got ", prune_sparsity));
      }
      train_options.prune.enabled = true;
      train_options.prune.target_sparsity = prune_sparsity;
      train_options.prune.start_epoch = prune_start;
      train_options.prune.end_epoch = prune_end;
    }
    if (guardrails_name != "off") {
      train_options.guardrails.enabled = true;
      DHGCN_ASSIGN_OR_RETURN(train_options.guardrails.policy,
                             ParseGuardrailPolicy(guardrails_name));
      train_options.guardrails.spike_factor =
          static_cast<float>(loss_spike_factor);
      train_options.guardrails.max_anomalies = max_anomalies;
    }
    Trainer trainer(model.get(), train_options);
    if (!checkpoint_path.empty()) {
      ResumeOptions resume_options;
      resume_options.checkpoint_path = checkpoint_path;
      resume_options.checkpoint_every = checkpoint_every;
      resume_options.resume = resume;
      DHGCN_ASSIGN_OR_RETURN(ResumedTraining resumed,
                             trainer.TrainWithResume(train_loader,
                                                     resume_options));
      if (resumed.resumed) {
        std::printf("resumed at epoch %lld from %s\n",
                    static_cast<long long>(resumed.start_epoch),
                    checkpoint_path.c_str());
      }
      std::printf("checkpoint: %s (%lld/%lld epochs complete)\n",
                  checkpoint_path.c_str(),
                  static_cast<long long>(resumed.completed_epochs),
                  static_cast<long long>(epochs));
    } else {
      DHGCN_RETURN_IF_ERROR(trainer.Train(train_loader).status());
    }
    const GuardrailCounters& guard = trainer.guardrail_counters();
    if (guard.anomalies > 0) {
      std::printf("guardrails: %lld anomalies, %lld skipped batches, "
                  "%lld LR halvings, %lld rollbacks\n",
                  static_cast<long long>(guard.anomalies),
                  static_cast<long long>(guard.skipped_batches),
                  static_cast<long long>(guard.lr_halvings),
                  static_cast<long long>(guard.rollbacks));
    }
  }

  // --- Evaluate / save ----------------------------------------------------
  DataLoader test_loader(&dataset, split.test, batch_size, stream,
                         /*shuffle=*/false);
  EvalOptions eval_options;
  eval_options.plan = plan_mode;
  eval_options.log_peak_bytes = true;
  eval_options.precision = rt.resolved_precision;
  // Int8 activation scales calibrate on training data (never the test
  // split: the eval must not see its own statistics).
  DataLoader calibration_loader(&dataset, split.train, batch_size, stream,
                                /*shuffle=*/false);
  eval_options.calibration_loader = &calibration_loader;
  EvalMetrics metrics = Evaluate(*model, test_loader, eval_options);
  std::printf("test[%s]: top-1 %.1f%%  top-5 %.1f%%  loss %.3f  (%lld "
              "samples)\n",
              PrecisionName(rt.resolved_precision), 100.0 * metrics.top1,
              100.0 * metrics.top5, metrics.loss,
              static_cast<long long>(metrics.count));
  if (report) {
    DataLoader report_loader(&dataset, split.test, batch_size, stream,
                             /*shuffle=*/false);
    ClassificationReport class_report =
        EvaluatePerClass(*model, report_loader, dataset.num_classes());
    std::printf("%s", class_report.ToString().c_str());
  }
  if (!save_path.empty()) {
    DHGCN_RETURN_IF_ERROR(SaveParameters(save_path, *model));
    std::printf("saved checkpoint %s\n", save_path.c_str());
  }
  return Status::OK();
}

}  // namespace
}  // namespace dhgcn

int main(int argc, char** argv) {
  dhgcn::Status status = dhgcn::RunMain(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

// Serving workload `serve-ntu`: the zoo DHGCN (fp32 fused plans, 2
// workers x 1 intra-op thread, max batch 8, queue 32, 50 ms deadline)
// loaded from a checkpoint and driven by one generator thread in three
// phases, overload last:
//   steady   — open loop at kSteadyRate, about a quarter of capacity;
//   closed   — 16 requests outstanding, deadlines too long to expire;
//   overload — open loop at kOverloadRate, past capacity even after a
//              3x speedup.
// Each phase stresses a different part of the serve layer: batch
// formation at low load, batching efficiency at saturation, admission
// and expiry under overload.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "core/dhgcn_model.h"
#include "data/dataloader.h"
#include "data/dataset.h"
#include "io/serialization.h"
#include "loadgen.h"
#include "plan/plan_builder.h"
#include "plan/plan_runner.h"
#include "serve/frozen_model.h"
#include "serve/server.h"
#include "train/experiment.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dhgcn::StatusCode;
using dhgcn::Tensor;

constexpr int64_t kFrames = 16;
// The pool is the 25% stratified holdout: 120 distinct clips over 30
// classes, so per-clip topology work averages over many prototypes.
constexpr int64_t kClasses = 30;
constexpr int64_t kSamplesPerClass = 16;
constexpr uint64_t kModelSeed = 17;
constexpr int64_t kWorkers = 2;
constexpr int64_t kMaxBatch = 8;
constexpr int64_t kQueue = 32;
constexpr int64_t kDeadlineNs = 50'000'000;
constexpr int64_t kClosedDeadlineNs = 60'000'000'000;
constexpr int64_t kClosedOutstanding = 16;
// Picked from the closed-loop capacity of this configuration (≈170
// clips/s on a 4-core x86 VM): steady ≈ 1/4 of it, overload ≈ 7x.
constexpr double kSteadyRate = 40.0;
constexpr double kOverloadRate = 1200.0;
constexpr int kSetupRepeats = 3;
// Warm-up bursts go out in pairs 3 ms apart: past the 2 ms coalescing
// delay, so the first batch is already executing when the second one
// arrives and the other worker compiles that batch size too.
constexpr int kWarmupPairsPerSize = 2;
constexpr int64_t kWarmupStaggerNs = 3'000'000;
// Shares of --seconds: reference forwards, then the three phases. The
// throughput windows (reference forwards, closed loop) get the most time:
// the steady p50 and the overload counts settle in a few seconds.
constexpr double kEvalShare = 0.25;
constexpr double kSteadyShare = 0.2;
constexpr double kClosedShare = 0.45;
constexpr double kOverloadShare = 0.1;
// Capacity is the median rate over this many equal closed-loop segments.
constexpr int kCapacitySegments = 6;
// Latency reported for a percentile that falls on a failed request.
constexpr double kFailedLatencyMs = 1e9;

// The zoo DHGCN (`dhgcn_serve --config zoo`, `dhgcn_train --model dhgcn`).
dhgcn::DhgcnConfig ZooConfig() {
  dhgcn::DhgcnConfig config =
      dhgcn::DhgcnConfig::Small(dhgcn::SkeletonLayoutType::kNtu25, kClasses);
  config.blocks = {{16, 1, 1}, {32, 2, 1}, {64, 2, 1}};
  config.dropout = 0.0f;
  config.topology.kn = 3;
  config.topology.km = 4;
  config.seed = kModelSeed;
  return config;
}

dhgcn::ServerOptions MakeServerOptions() {
  dhgcn::ServerOptions options;
  options.worker_count = kWorkers;
  options.plan_mode = dhgcn::PlanMode::kFused;
  options.precision = dhgcn::Precision::kFp32;
  options.batcher.max_batch_size = kMaxBatch;
  options.batcher.queue_capacity = kQueue;
  options.default_deadline_ns = kDeadlineNs;
  return options;
}

Tensor Stack(const std::vector<Tensor>& clips, size_t begin, size_t count) {
  const Tensor& first = clips[begin];
  Tensor batch({static_cast<int64_t>(count), first.dim(0), first.dim(1),
                first.dim(2)});
  const size_t clip_numel = static_cast<size_t>(first.numel());
  for (size_t i = 0; i < count; ++i) {
    std::memcpy(batch.data() + i * clip_numel, clips[begin + i].data(),
                clip_numel * sizeof(float));
  }
  return batch;
}

struct PhaseSummary {
  int64_t ok = 0;
  int64_t rejected_early = 0;
  int64_t expired = 0;
  int64_t wrong = 0;
  int64_t unexpected = 0;
  int64_t ok_in_window = 0;
};

PhaseSummary Tally(const PhaseRecord& phase) {
  PhaseSummary s;
  for (const RequestRecord& r : phase.requests) {
    if (r.wrong) ++s.wrong;
    if (r.code == StatusCode::kOk) {
      ++s.ok;
      if (r.done_ns <= phase.end_ns) ++s.ok_in_window;
    } else if (!r.admitted && r.code == StatusCode::kOverloaded) {
      ++s.rejected_early;
    } else if (r.admitted && r.code == StatusCode::kDeadlineExceeded) {
      ++s.expired;
    } else {
      ++s.unexpected;
    }
  }
  return s;
}

// Latency of each request from its due time; a request that did not get
// an OK answer counts as missing any limit.
std::vector<double> LatenciesFromDueMs(const PhaseRecord& phase) {
  std::vector<double> ms;
  for (const RequestRecord& r : phase.requests) {
    ms.push_back(r.code == StatusCode::kOk
                     ? static_cast<double>(r.done_ns - r.due_ns) * 1e-6
                     : kFailedLatencyMs);
  }
  return ms;
}

void AddPhaseMetrics(const PhaseRecord& phase, bool open_loop,
                     RunResult* result) {
  const std::string p = std::string("serve.") + phase.name + ".";
  std::vector<double> admit_us, queue_ms, exec_ms, late_ms;
  for (const RequestRecord& r : phase.requests) {
    admit_us.push_back(static_cast<double>(r.admit_ns - r.submit_ns) * 1e-3);
    late_ms.push_back(static_cast<double>(r.submit_ns - r.due_ns) * 1e-6);
    if (r.admitted && r.batch_size > 0) {
      queue_ms.push_back(static_cast<double>(r.queue_ns) * 1e-6);
      exec_ms.push_back(static_cast<double>(r.total_ns - r.queue_ns) * 1e-6);
    }
  }
  const PhaseSummary s = Tally(phase);
  AddDistribution(result, p + "admit_us", Summarize(admit_us), "us");
  const Distribution queue = Summarize(queue_ms);
  result->Add(p + "queue_ms.p50", queue.p50, "ms");
  result->Add(p + "queue_ms.tail", queue.tail, "ms");
  AddDistribution(result, p + "exec_ms", Summarize(exec_ms), "ms");
  const Distribution latency =
      Summarize(LatenciesFromDueMs(phase));
  result->Add(p + "latency_ms.p50", latency.p50, "ms");
  result->Add(p + "latency_ms.tail", latency.tail, "ms");
  const dhgcn::ServeStats& a = phase.stats_before;
  const dhgcn::ServeStats& b = phase.stats_after;
  const int64_t batches = b.batches - a.batches;
  result->Add(p + "batch_mean",
              batches > 0 ? static_cast<double>(b.batched_requests -
                                                a.batched_requests) /
                                static_cast<double>(batches)
                          : 0.0,
              "clips");
  result->Add(p + "rejected_early", static_cast<double>(s.rejected_early),
              "count");
  result->Add(p + "expired", static_cast<double>(s.expired), "count");
  result->Add(p + "wrong", static_cast<double>(s.wrong), "count");
  result->Add(p + "degrade_events",
              static_cast<double>(b.degrade_events - a.degrade_events),
              "count");
  result->Add(p + "max_in_flight", static_cast<double>(phase.max_in_flight),
              "count");
  if (open_loop) {
    const Distribution late = Summarize(late_ms);
    result->Add(std::string("loadgen.") + phase.name + ".late_ms.p50",
                late.p50, "ms");
    result->Add(std::string("loadgen.") + phase.name + ".late_ms.tail",
                late.tail, "ms");
  }
}

std::string PhaseLine(const PhaseRecord& phase) {
  const PhaseSummary s = Tally(phase);
  const Distribution latency = Summarize(LatenciesFromDueMs(phase));
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "phase %-8s %6zu sent  %6lld ok  %6lld rejected_early  "
                "%6lld expired  %lld wrong  %.1f ok/s  latency from due "
                "p50 %.2f ms tail %.2f ms (n=%lld)",
                phase.name, phase.requests.size(),
                static_cast<long long>(s.ok),
                static_cast<long long>(s.rejected_early),
                static_cast<long long>(s.expired),
                static_cast<long long>(s.wrong),
                static_cast<double>(s.ok_in_window) / phase.seconds,
                latency.p50, latency.tail,
                static_cast<long long>(latency.n));
  return buf;
}

// One served session: server creation, warm-up and the three phases.
struct Session {
  std::vector<double> setup_s;
  std::vector<double> load_ms;
  std::vector<PhaseRecord> phases;
  std::vector<PhaseRecord> warmup;
};

bool RunSession(const Args& args, const std::string& checkpoint,
                const std::vector<Tensor>& clips,
                const std::vector<std::vector<float>>& references,
                const std::vector<int64_t>& order, int setup_repeats,
                Tracer* tracer, Session* session, RunResult* result) {
  const dhgcn::DhgcnConfig config = ZooConfig();
  const size_t max_requests = static_cast<size_t>(
      kOverloadRate * kOverloadShare * args.seconds + 4096);
  std::unique_ptr<dhgcn::InferenceServer> server;
  std::unique_ptr<LoadGenerator> gen;
  for (int r = 0; r < setup_repeats; ++r) {
    if (server != nullptr) server->Shutdown();
    gen.reset();
    server.reset();
    const int64_t t0 = NowNs();
    {
      dhgcn::Result<std::unique_ptr<dhgcn::InferenceServer>> created =
          dhgcn::Status::Internal("not created");
      {
        ScopedSpan span(tracer, "io.load", "io");
        created = dhgcn::InferenceServer::Create(checkpoint, config, kFrames,
                                                 MakeServerOptions());
      }
      if (!created.ok()) {
        result->Fail("server creation: " + created.status().ToString());
        return false;
      }
      server = created.MoveValue();
    }
    session->load_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    gen = std::make_unique<LoadGenerator>(server.get(), &clips, &references,
                                          order, max_requests);
    gen->set_tracer(tracer);
    // Plan warm-up: every batch size on both workers.
    {
      ScopedSpan span(tracer, "serve.warmup", "serve");
      for (int64_t size = 1; size <= kMaxBatch; ++size) {
        for (int rep = 0; rep < kWarmupPairsPerSize; ++rep) {
          session->warmup.push_back(gen->RunBurstPair(
              size, kWarmupStaggerNs, kClosedDeadlineNs));
        }
      }
    }
    session->setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  auto phase = [&](const char* name, auto&& run) {
    ScopedSpan span(tracer, name, "bench");
    session->phases.push_back(run());
  };
  phase("phase.steady", [&] {
    return gen->RunOpenLoop("steady", kSteadyRate, kSteadyShare * args.seconds,
                            kDeadlineNs);
  });
  phase("phase.closed", [&] {
    return gen->RunClosedLoop("closed", kClosedOutstanding,
                              kClosedShare * args.seconds, kClosedDeadlineNs);
  });
  phase("phase.overload", [&] {
    return gen->RunOpenLoop("overload", kOverloadRate,
                            kOverloadShare * args.seconds, kDeadlineNs);
  });
  server->Shutdown();
  return true;
}

// Counts the operations and applies the output checks of one session.
void CheckSession(const Session& session, RunResult* result) {
  int64_t wrong = 0;
  for (const PhaseRecord& w : session.warmup) {
    const PhaseSummary s = Tally(w);
    result->attempted += static_cast<int64_t>(w.requests.size());
    result->failed += s.wrong + s.unexpected + s.expired + s.rejected_early;
    wrong += s.wrong;
    if (s.unexpected + s.expired + s.rejected_early > 0) {
      result->Fail("warm-up requests were not all answered");
    }
  }
  for (const PhaseRecord& phase : session.phases) {
    const PhaseSummary s = Tally(phase);
    result->attempted += static_cast<int64_t>(phase.requests.size());
    wrong += s.wrong;
    result->failed += s.wrong + s.unexpected;
    if (s.unexpected > 0) {
      result->Fail(std::string("phase ") + phase.name +
                   " got errors other than overload or deadline");
    }
    const std::string name = phase.name;
    if (name == "closed" && s.ok != static_cast<int64_t>(phase.requests.size())) {
      result->failed += static_cast<int64_t>(phase.requests.size()) - s.ok;
      result->Fail("closed-loop requests were not all answered");
    }
    if (name == "steady") result->failed += s.expired + s.rejected_early;
  }
  if (wrong > 0) {
    result->Fail(std::to_string(wrong) +
                 " served answers differ from a direct forward of the clip");
  }
}

// Op-level view of a request's compute: the served model's fused batch-1
// plan, replayed over the pool outside the server with every op timed.
// Its answers must equal the FrozenModel forwards bit for bit.
void TracedReferenceReplay(const std::string& checkpoint,
                           const std::vector<Tensor>& clips,
                           const std::vector<std::vector<float>>& references,
                           Tracer* tracer, RunResult* result) {
  dhgcn::Result<std::unique_ptr<dhgcn::DhgcnModel>> model =
      dhgcn::DhgcnModel::Make(ZooConfig());
  if (!model.ok()) {
    result->Fail("replay model: " + model.status().ToString());
    return;
  }
  dhgcn::Status loaded = dhgcn::LoadParameters(checkpoint, **model);
  if (!loaded.ok()) {
    result->Fail("replay checkpoint: " + loaded.ToString());
    return;
  }
  (*model)->SetTraining(false);
  dhgcn::Shape shape = clips[0].shape();
  shape.insert(shape.begin(), 1);
  dhgcn::Result<dhgcn::ExecutionPlan> plan =
      dhgcn::Status::Internal("not compiled");
  {
    ScopedSpan s(tracer, "plan.compile", "plan");
    plan = dhgcn::BuildInferencePlan(**model, shape, dhgcn::PlanMode::kFused);
  }
  if (!plan.ok()) {
    result->Fail("replay plan: " + plan.status().ToString());
    return;
  }
  dhgcn::PlanRunner runner(plan.MoveValue());
  OpClock clock(tracer, &runner);
  ScopedSpan pass(tracer, "serve.reference", "bench");
  int64_t mismatches = 0;
  for (size_t i = 0; i < clips.size(); ++i) {
    const Tensor x = Stack(clips, i, 1);
    clock.StartRun();
    const Tensor* logits = nullptr;
    {
      ScopedSpan s(tracer, "plan.run", "plan");
      logits = &runner.Run(x);
    }
    if (std::memcmp(logits->data(), references[i].data(),
                    references[i].size() * sizeof(float)) != 0) {
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    result->Fail(std::to_string(mismatches) +
                 " plan replays differ from the FrozenModel forward");
  }
  result->attempted += static_cast<int64_t>(clips.size());
  result->Add("plan.arena_mb",
              static_cast<double>(runner.arena_bytes()) / (1024.0 * 1024.0),
              "MB");
}

// Median over equal segments of the closed loop of the OK answers
// completed per second, so a burst of host contention in one segment
// does not move it.
double CapacityClipsPerS(const Session& session) {
  for (const PhaseRecord& p : session.phases) {
    if (std::string(p.name) != "closed") continue;
    const double segment_ns =
        static_cast<double>(p.end_ns - p.start_ns) / kCapacitySegments;
    std::vector<double> ok(kCapacitySegments, 0.0);
    for (const RequestRecord& r : p.requests) {
      const int64_t segment = static_cast<int64_t>(
          static_cast<double>(r.done_ns - p.start_ns) / segment_ns);
      if (r.code == StatusCode::kOk && segment < kCapacitySegments) {
        ok[static_cast<size_t>(segment)] += 1e9 / segment_ns;
      }
    }
    return Median(ok);
  }
  return 0.0;
}

}  // namespace

RunResult RunServeWorkload(const Args& args) {
  RunResult result;
  dhgcn::ThreadPool::Get().SetThreads(1);

  // --- Inputs: a seeded pool of distinct NTU-like test clips. ------------
  dhgcn::Result<dhgcn::SkeletonDataset> dataset =
      dhgcn::SkeletonDataset::Generate(dhgcn::NtuLikeConfig(
          kClasses, kSamplesPerClass, kFrames, args.seed));
  if (!dataset.ok()) {
    result.Fail("dataset generation: " + dataset.status().ToString());
    return result;
  }
  const dhgcn::DatasetSplit split = dhgcn::MakeSplit(
      *dataset, dhgcn::SplitProtocol::kRandom, args.seed);
  dhgcn::DataLoader transform(&*dataset, split.test, kMaxBatch,
                              dhgcn::InputStream::kJoint, /*shuffle=*/false);
  std::vector<Tensor> clips;
  for (int64_t index : split.test) {
    clips.push_back(transform.TransformData(dataset->sample(index).data));
  }
  // Request order: seeded shuffles of the pool, one after another.
  std::vector<int64_t> order;
  dhgcn::Rng rng(args.seed * 7919 + 3);
  for (int cycle = 0; cycle < 8; ++cycle) {
    std::vector<int64_t> perm(clips.size());
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int64_t>(i);
    for (size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[static_cast<size_t>(rng.UniformInt(
                                 0, static_cast<int64_t>(i) - 1))]);
    }
    order.insert(order.end(), perm.begin(), perm.end());
  }

  // The checkpoint is written before any timer starts.
  const std::filesystem::path checkpoint =
      std::filesystem::path(args.workdir) /
      ("serve-ntu-" + std::to_string(args.seed) + ".ckpt");
  {
    dhgcn::Result<std::unique_ptr<dhgcn::DhgcnModel>> model =
        dhgcn::DhgcnModel::Make(ZooConfig());
    if (!model.ok()) {
      result.Fail("model: " + model.status().ToString());
      return result;
    }
    dhgcn::Status saved =
        dhgcn::SaveParameters(checkpoint.string(), *model.ValueOrDie());
    if (!saved.ok()) {
      result.Fail("checkpoint: " + saved.ToString());
      return result;
    }
  }

  // --- Direct forwards outside the server: the reference answers, and
  // the model's offline batch-8 inference rate. ---------------------------
  dhgcn::Result<std::unique_ptr<dhgcn::FrozenModel>> frozen =
      dhgcn::FrozenModel::Load(checkpoint.string(), ZooConfig(), kFrames,
                               dhgcn::PlanMode::kFused);
  if (!frozen.ok()) {
    result.Fail("reference model: " + frozen.status().ToString());
    return result;
  }
  dhgcn::Workspace ws;
  std::vector<std::vector<float>> references(clips.size());
  for (size_t i = 0; i < clips.size(); ++i) {
    ws.Reset();
    const Tensor& logits = (*frozen)->Forward(Stack(clips, i, 1), ws);
    references[i].assign(logits.data(), logits.data() + logits.numel());
  }
  const size_t full_batches = clips.size() / kMaxBatch;
  std::vector<Tensor> batches;
  for (size_t b = 0; b < full_batches; ++b) {
    batches.push_back(Stack(clips, b * kMaxBatch, kMaxBatch));
  }
  // Batch-8 passes over the pool, timed as one window after an untimed
  // pass that compiles the batch-8 plan.
  int64_t batch_mismatch = 0;
  auto eval_pass = [&] {
    for (size_t b = 0; b < batches.size(); ++b) {
      ws.Reset();
      const Tensor& logits = (*frozen)->Forward(batches[b], ws);
      const int64_t k = logits.dim(1);
      for (size_t row = 0; row < static_cast<size_t>(kMaxBatch); ++row) {
        const std::vector<float>& ref = references[b * kMaxBatch + row];
        if (std::memcmp(logits.data() + static_cast<int64_t>(row) * k,
                        ref.data(), ref.size() * sizeof(float)) != 0) {
          ++batch_mismatch;
        }
      }
    }
  };
  eval_pass();
  std::vector<double> eval_rates;
  const int64_t eval_start = NowNs();
  while (eval_rates.size() < 3 ||
         static_cast<double>(NowNs() - eval_start) * 1e-9 <
             kEvalShare * args.seconds) {
    const int64_t t0 = NowNs();
    eval_pass();
    eval_rates.push_back(static_cast<double>(full_batches * kMaxBatch) /
                         (static_cast<double>(NowNs() - t0) * 1e-9));
  }
  const double eval_clips_per_s = Median(eval_rates);
  result.attempted += static_cast<int64_t>(
      clips.size() + (eval_rates.size() + 1) * full_batches * kMaxBatch);
  if (batch_mismatch > 0) {
    result.Note("note: " + std::to_string(batch_mismatch) +
                " batch-8 rows differ from the batch-1 forward");
  }

  // --- Untraced session: setup (repeated) and the three phases. ----------
  Session session;
  if (!RunSession(args, checkpoint.string(), clips, references, order,
                  kSetupRepeats, nullptr, &session, &result)) {
    return result;
  }
  CheckSession(session, &result);
  result.Note("workload serve-ntu: pool of " + std::to_string(clips.size()) +
              " distinct test clips, " + std::to_string(kWorkers) +
              " workers x 1 intra-op thread, max batch " +
              std::to_string(kMaxBatch) + ", queue " + std::to_string(kQueue));
  for (const PhaseRecord& p : session.phases) result.Note(PhaseLine(p));
  const double capacity = CapacityClipsPerS(session);
  const Distribution steady =
      Summarize(LatenciesFromDueMs(session.phases[0]));
  const PhaseRecord& overload = session.phases[2];
  // The workload's user-facing metrics under their own names.
  char line[200];
  auto metric = [&](const char* format, double value) {
    std::snprintf(line, sizeof(line), format, value);
    result.Note(line);
  };
  metric("metric setup_s %.6f s", Median(session.setup_s));
  metric("metric peak_rss_mb %.3f MB", PeakRssMb());
  metric("metric p50_ms %.4f ms (steady phase, from due time)", steady.p50);
  std::snprintf(line, sizeof(line),
                "metric p99_ms %.4f ms (steady phase, from due time: the "
                "highest percentile with >= 10 samples beyond it, p%.1f of "
                "n=%lld)",
                steady.tail,
                steady.n > 20 ? 100.0 * static_cast<double>(steady.n - 11) /
                                    static_cast<double>(steady.n - 1)
                              : 100.0,
                static_cast<long long>(steady.n));
  result.Note(line);
  metric("metric capacity_clips_per_s %.3f clips/s (closed loop)", capacity);
  metric("metric goodput_qps %.3f 1/s (overload phase)",
         static_cast<double>(Tally(overload).ok_in_window) /
             overload.seconds);
  std::snprintf(line, sizeof(line),
                "eval_clips_per_s %.3f clips/s (direct batch-8 forwards; "
                "median of %zu passes, IQR/median %.3f)",
                eval_clips_per_s, eval_rates.size(), RelativeIqr(eval_rates));
  result.Note(line);

  if (!args.trace) {
    result.Add("setup_s", Median(session.setup_s), "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    result.Add("clips_per_s", capacity, "clips/s");
    result.Add("eval_clips_per_s", eval_clips_per_s, "clips/s");
    result.Add("p50_ms", steady.p50, "ms");
    std::error_code ignored;
    std::filesystem::remove(checkpoint, ignored);
    return result;
  }

  // --- Traced session: the same, with spans. ------------------------------
  Tracer tracer(1 << 18);
  Session traced;
  const int32_t root = tracer.Begin("workload", "bench");
  TracedReferenceReplay(checkpoint.string(), clips, references, &tracer,
                        &result);
  const bool ran = RunSession(args, checkpoint.string(), clips, references,
                              order, 1, &tracer, &traced, &result);
  tracer.End(root);
  std::error_code ignored;
  std::filesystem::remove(checkpoint, ignored);
  if (!ran) return result;
  CheckSession(traced, &result);
  int64_t request_id = 0;
  for (const PhaseRecord& p : traced.phases) {
    for (const RequestRecord& r : p.requests) {
      const int64_t id = request_id++;
      tracer.AddRequestSpan("serve.admit", id, r.submit_ns, r.admit_ns);
      if (!r.admitted) continue;
      const int64_t taken = r.submit_ns + r.queue_ns;
      tracer.AddRequestSpan("serve.queue", id, r.submit_ns, taken);
      if (r.batch_size > 0) {
        tracer.AddRequestSpan("serve.exec", id, taken,
                              r.submit_ns + r.total_ns);
      }
    }
  }
  AddDistribution(&result, "io.load_ms", Summarize(traced.load_ms),
                  "ms");
  for (const PhaseRecord& p : traced.phases) {
    AddPhaseMetrics(p, std::string(p.name) != "closed", &result);
    result.Note(PhaseLine(p));
  }
  const PhaseRecord& traced_overload = traced.phases[2];
  result.Add("serve.overload.goodput_qps",
             static_cast<double>(Tally(traced_overload).ok_in_window) /
                 traced_overload.seconds,
             "1/s");
  AddOpMetrics(tracer, &result);
  AddDistribution(&result, "plan.compile_ms",
                  Summarize(tracer.DurationsMs("plan.compile")),
                  "ms");
  AddSelfTimeTable(tracer, &result);
  const double traced_capacity = CapacityClipsPerS(traced);
  result.Add("trace.overhead_pct",
             traced_capacity > 0 ? 100.0 * (capacity / traced_capacity - 1.0)
                                 : 0.0,
             "%");
  if (!args.trace_out.empty() && !tracer.WriteChromeJson(args.trace_out)) {
    result.Fail("cannot write trace " + args.trace_out);
  }
  return result;
}

}  // namespace perfbench

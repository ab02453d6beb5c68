// Serving driver + open-loop load benchmark for the fault-tolerant
// inference core (src/serve). Runs three phases against one server:
//
//   1. baseline   — the configured --qps for --duration_ms
//   2. overload   — qps * --overload_factor, optionally with faults
//                   armed (--fault_inject) and every Nth clip poisoned
//                   (--poison_every): overload must surface as explicit
//                   kOverloaded sheds and bounded p99, never a crash
//   3. recovery   — baseline qps again after a quiet gap; with --strict
//                   the run fails unless the degradation ladder stepped
//                   back to level 0 (full batch size)
//
// Examples:
//   dhgcn_serve --config tiny --qps 200 --duration_ms 1000
//   dhgcn_serve --qps 300 --overload_factor 4 --poison_every 97
//       --fault_inject worker-stall:5:40,queue-full:50
//       --bench_json BENCH_serving.json --strict

#include <cstdio>
#include <fstream>
#include <string>

// lint: allow-wallclock-file — the inter-phase quiet gap is a real
// sleep; everything else reads time through ServeClock.
#include <chrono>  // NOLINT(build/include_order)
#include <thread>

#include "base/fault_injection.h"
#include "base/flags.h"
#include "base/runtime_flags.h"
#include "base/string_util.h"
#include "serve/load_generator.h"
#include "serve/server.h"

namespace dhgcn {
namespace {

Result<SkeletonLayoutType> ParseLayout(const std::string& text) {
  if (text == "ntu") return SkeletonLayoutType::kNtu25;
  if (text == "kinetics") return SkeletonLayoutType::kKinetics18;
  return Status::InvalidArgument(
      StrCat("unknown layout '", text, "' (ntu|kinetics)"));
}

Result<DhgcnConfig> ParseConfig(const std::string& text,
                                SkeletonLayoutType layout,
                                int64_t classes, int64_t kn, int64_t km,
                                int64_t seed) {
  if (text == "tiny") return DhgcnConfig::Tiny(layout, classes);
  if (text == "small") return DhgcnConfig::Small(layout, classes);
  if (text == "paper") return DhgcnConfig::Paper(layout, classes);
  if (text == "zoo") {
    // Mirrors the model the dhgcn_train CLI builds (ModelKind::kDhgcn
    // with its fixed {16,32,64} scale), so `dhgcn_train --save` output
    // loads here with strict name/shape matching.
    DhgcnConfig config = DhgcnConfig::Small(layout, classes);
    config.blocks = {{16, 1, 1}, {32, 2, 1}, {64, 2, 1}};
    config.dropout = 0.0f;
    config.topology.kn = kn;
    config.topology.km = km;
    config.seed = static_cast<uint64_t>(seed);
    return config;
  }
  return Status::InvalidArgument(
      StrCat("unknown config '", text, "' (tiny|small|paper|zoo)"));
}

void PrintPhase(const std::string& label, const LoadGenReport& report,
                const HealthReport& health) {
  std::printf(
      "%-9s offered %5lld  ok %5lld  shed %4lld  expired %4lld  "
      "invalid %3lld | p50 %.2f ms  p99 %.2f ms  %.0f qps | "
      "health %s (level %lld, batch %lld)\n",
      label.c_str(), static_cast<long long>(report.offered),
      static_cast<long long>(report.ok),
      static_cast<long long>(report.shed),
      static_cast<long long>(report.expired),
      static_cast<long long>(report.invalid), report.p50_ms,
      report.p99_ms, report.throughput_qps,
      ServeHealthName(health.state).c_str(),
      static_cast<long long>(health.degrade_level),
      static_cast<long long>(health.target_batch_size));
}

Status RunMain(int argc, const char* const* argv) {
  std::string config_name = "tiny";
  std::string layout_name = "ntu";
  std::string checkpoint_path;
  std::string fault_spec;
  std::string bench_json;
  int64_t classes = 5;
  int64_t frames = 16;
  int64_t kn = 3;
  int64_t km = 4;
  int64_t workers = 2;
  int64_t queue_capacity = 64;
  int64_t max_batch = 8;
  int64_t deadline_ms = 50;
  double qps = 200.0;
  double overload_factor = 4.0;
  int64_t duration_ms = 1000;
  int64_t poison_every = 0;
  int64_t seed = 42;
  std::string plan_name = "on";
  RuntimeFlags rt;
  // Serving default: one intra-op thread per worker — parallelism
  // comes from --workers, not the compute pool.
  rt.threads = 1;
  bool strict = false;
  bool help = false;

  FlagSet flags("dhgcn_serve");
  flags.AddString("config", &config_name,
                  "model size: tiny|small|paper, or zoo = the exact "
                  "model dhgcn_train builds (serves its --save output)");
  flags.AddString("layout", &layout_name, "skeleton layout: ntu|kinetics");
  flags.AddInt64("classes", &classes, "output classes");
  flags.AddInt64("frames", &frames, "frames per clip");
  flags.AddInt64("kn", &kn, "zoo config: k_n (joints per K-NN hyperedge)");
  flags.AddInt64("km", &km, "zoo config: k_m (K-means hyperedges)");
  flags.AddString("checkpoint", &checkpoint_path,
                  "v2 weights to serve (empty = fresh weights)");
  flags.AddInt64("workers", &workers, "serving worker threads");
  flags.AddInt64("queue_capacity", &queue_capacity,
                 "bounded admission queue size");
  flags.AddInt64("max_batch", &max_batch, "micro-batch flush size");
  flags.AddInt64("deadline_ms", &deadline_ms, "per-request deadline");
  flags.AddDouble("qps", &qps, "baseline open-loop arrival rate");
  flags.AddDouble("overload_factor", &overload_factor,
                  "overload phase rate = qps * factor");
  flags.AddInt64("duration_ms", &duration_ms, "length of each phase");
  flags.AddString("fault_inject", &fault_spec,
                  "faults armed before the overload phase, e.g. "
                  "worker-stall:5:40,queue-full:50");
  flags.AddInt64("poison_every", &poison_every,
                 "overload phase: NaN-poison every Nth clip (0 = off)");
  flags.AddInt64("seed", &seed, "synthetic clip seed");
  flags.AddString("bench_json", &bench_json,
                  "write per-phase results to this JSON file");
  flags.AddString("plan", &plan_name,
                  "worker execution plans per batch size: on|fused (on "
                  "= bit-identical to the layer path; fused = Conv+BN "
                  "folding, rtol-equivalent)");
  rt.Register(&flags);
  flags.AddBool("strict", &strict,
                "fail unless overload shed explicitly and recovery "
                "returned to degrade level 0");
  flags.AddBool("help", &help, "show usage");
  DHGCN_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (help) {
    std::printf("%s", flags.Usage().c_str());
    return Status::OK();
  }
  DHGCN_RETURN_IF_ERROR(rt.Apply());
  if (overload_factor < 1.0) {
    return Status::InvalidArgument("--overload_factor must be >= 1");
  }

  DHGCN_ASSIGN_OR_RETURN(SkeletonLayoutType layout,
                         ParseLayout(layout_name));
  DHGCN_ASSIGN_OR_RETURN(
      DhgcnConfig config,
      ParseConfig(config_name, layout, classes, kn, km, seed));

  ServerOptions options;
  options.worker_count = workers;
  DHGCN_ASSIGN_OR_RETURN(options.plan_mode, ParsePlanMode(plan_name));
  options.precision = rt.resolved_precision;
  options.batcher.queue_capacity = queue_capacity;
  options.batcher.max_batch_size = max_batch;
  options.default_deadline_ns = MillisToNanos(deadline_ms);
  DHGCN_ASSIGN_OR_RETURN(
      std::unique_ptr<InferenceServer> server,
      InferenceServer::Create(checkpoint_path, config, frames, options));
  std::printf(
      "serving %s/%s: %lld classes, %lld frames, %lld workers, queue "
      "%lld, batch %lld, deadline %lld ms, plan %s, precision %s\n",
      config_name.c_str(), layout_name.c_str(),
      static_cast<long long>(classes), static_cast<long long>(frames),
      static_cast<long long>(workers),
      static_cast<long long>(queue_capacity),
      static_cast<long long>(max_batch),
      static_cast<long long>(deadline_ms), PlanModeName(options.plan_mode),
      PrecisionName(options.precision));

  LoadGenOptions load;
  load.qps = qps;
  load.duration_ms = duration_ms;
  load.deadline_ms = deadline_ms;
  load.seed = static_cast<uint64_t>(seed);

  // Phase 1: baseline.
  LoadGenReport baseline = RunLoad(*server, load);
  HealthReport baseline_health = server->Health();
  ServeStats baseline_stats = server->Stats();
  PrintPhase("baseline", baseline, baseline_health);

  // Phase 2: overload, with faults armed and inputs poisoned.
  if (!fault_spec.empty()) {
    DHGCN_RETURN_IF_ERROR(FaultInjection::Get().ArmFromSpec(fault_spec));
    std::printf("fault injection armed: %s\n", fault_spec.c_str());
  }
  LoadGenOptions overload = load;
  overload.qps = qps * overload_factor;
  overload.poison_every_n = poison_every;
  overload.seed += 1;
  LoadGenReport overload_report = RunLoad(*server, overload);
  HealthReport overload_health = server->Health();
  ServeStats overload_stats = server->Stats();
  PrintPhase("overload", overload_report, overload_health);

  // Phase 3: recovery at baseline rate after a quiet gap long enough
  // for the ladder to step back up: one quiet period per degrade
  // level, plus one for slack (workers poll MaybeRecover while idle).
  int64_t gap_periods = overload_health.degrade_level + 1;
  std::this_thread::sleep_for(std::chrono::nanoseconds(
      gap_periods * server->options().batcher.recover_quiet_ns));
  LoadGenOptions recovery = load;
  recovery.seed += 2;
  LoadGenReport recovery_report = RunLoad(*server, recovery);
  HealthReport recovery_health = server->Health();
  PrintPhase("recovery", recovery_report, recovery_health);

  ServeStats stats = server->Stats();
  std::printf(
      "totals: %lld submitted, %lld batches (mean %.2f), %lld shed, "
      "%lld expired, %lld invalid, %lld degrade / %lld recover "
      "events, max depth %lld\n",
      static_cast<long long>(stats.submitted),
      static_cast<long long>(stats.batches),
      stats.batches > 0 ? static_cast<double>(stats.batched_requests) /
                              static_cast<double>(stats.batches)
                        : 0.0,
      static_cast<long long>(stats.shed_overloaded),
      static_cast<long long>(stats.expired),
      static_cast<long long>(stats.invalid_input),
      static_cast<long long>(stats.degrade_events),
      static_cast<long long>(stats.recover_events),
      static_cast<long long>(stats.max_queue_depth));

  if (!bench_json.empty()) {
    std::ofstream os(bench_json);
    if (!os) {
      return Status::IOError(StrCat("cannot write ", bench_json));
    }
    os << "{\n  \"benchmark\": \"dhgcn_serve\",\n"
       << "  \"config\": \"" << config_name << "\",\n"
       << "  \"workers\": " << workers << ",\n"
       << "  \"queue_capacity\": " << queue_capacity << ",\n"
       << "  \"max_batch\": " << max_batch << ",\n"
       << "  \"deadline_ms\": " << deadline_ms << ",\n"
       << "  \"overload_factor\": " << overload_factor << ",\n"
       << "  \"phases\": [\n"
       << LoadGenReportJson("baseline", baseline, baseline_stats,
                            baseline_health)
       << ",\n"
       << LoadGenReportJson("overload", overload_report, overload_stats,
                            overload_health)
       << ",\n"
       << LoadGenReportJson("recovery", recovery_report, stats,
                            recovery_health)
       << "\n  ]\n}\n";
    std::printf("wrote %s\n", bench_json.c_str());
  }

  if (strict) {
    // The robustness contract the soak job enforces: overload must shed
    // explicitly (or expire) rather than crash or stall, the deadline
    // must bound OK latency, and the ladder must fully recover.
    if (overload_report.shed + overload_report.expired == 0) {
      return Status::Internal(
          "strict: overload phase neither shed nor expired — the "
          "open-loop rate was not an overload");
    }
    double bound_ms =
        static_cast<double>(deadline_ms) + 100.0;  // scheduling slack
    if (overload_report.p99_ms > bound_ms) {
      return Status::Internal(
          StrCat("strict: overload p99 ", overload_report.p99_ms,
                 " ms exceeds deadline bound ", bound_ms, " ms"));
    }
    if (recovery_health.degrade_level != 0) {
      return Status::Internal(
          StrCat("strict: degrade level still ",
                 recovery_health.degrade_level, " after recovery"));
    }
    if (poison_every > 0 && overload_report.invalid == 0) {
      return Status::Internal(
          "strict: poisoned clips were not quarantined");
    }
    std::printf("strict checks passed\n");
  }
  server->Shutdown();
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

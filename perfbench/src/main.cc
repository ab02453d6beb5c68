// perfbench_dhgcn: one workload of the DHGCN end-to-end benchmark.
//
//   perfbench_dhgcn --workload train-ntu|train-kinetics-stgcn|serve-ntu
//                   --seed N --seconds S --trace 0|1
//                   [--trace_out FILE.json] [--workdir DIR]
//
// Prints run context and human-readable lines, then as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics the workload
// measures with --trace 1 (run.py fills in the layers it does not
// exercise from BENCHMARK.json). Exits 1 when an output check fails, 2
// on bad usage.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Run context: printed, never a metric.
void PrintContext(const Args& args) {
  std::printf("context: workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("context: build_type=%s flags='%s'\n", PERFBENCH_BUILD_TYPE,
              PERFBENCH_CXX_FLAGS);
  std::ifstream loadavg("/proc/loadavg");
  std::string line;
  std::getline(loadavg, line);
  std::printf("context: loadavg='%s'\n", line.c_str());
  // Rate of a fixed dependent floating-point loop: tells a slow host from
  // a slow change when comparing runs.
  const int64_t t0 = NowNs();
  double x = 1.0;
  for (int i = 0; i < 20'000'000; ++i) x = x * 1.0000001 + 1e-9;
  const double s = static_cast<double>(NowNs() - t0) * 1e-9;
  std::printf("context: reference_loop_mops=%.1f (x=%g)\n", 20.0 / s, x);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--trace_out") {
      args->trace_out = value;
    } else if (key == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         (args->workload == "train-ntu" ||
          args->workload == "train-kinetics-stgcn" ||
          args->workload == "serve-ntu");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench_dhgcn: built without NDEBUG; refusing to time a "
               "debug library\n");
  return 2;
#endif
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_dhgcn --workload "
                 "train-ntu|train-kinetics-stgcn|serve-ntu --seed N "
                 "--seconds S --trace 0|1 [--trace_out F] [--workdir D]\n");
    return 2;
  }
  perfbench::PrintContext(args);
  perfbench::RunResult result = args.workload == "serve-ntu"
                                    ? perfbench::RunServeWorkload(args)
                                    : perfbench::RunTrainWorkload(args);
  if (result.attempted < 1) result.Fail("no operation attempted");
  perfbench::PrintResult(result);
  return result.correct ? 0 : 1;
}

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady clock) — the only clock the benchmark
/// reads, on every thread, so spans and request times share one axis.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Command-line arguments shared by every workload.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome Trace Event JSON written by a traced run ("" = none).
  std::string trace_out;
  /// Directory for files a workload writes (the serving checkpoint).
  std::string workdir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: the output checks, the operation
/// counts, the metrics, and human-readable lines printed before the
/// final JSON line.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed output check (the run then reports correct=false).
  void Fail(const std::string& why);
  void Note(const std::string& line) { notes.push_back(line); }
};

/// Summary of a sample of timings: the median plus the highest
/// percentile that still has at least 10 samples beyond it (the 11th
/// largest value), with the sample count. With 20 samples or fewer that
/// value is not above the median, and `tail` holds the maximum.
struct Distribution {
  double p50 = 0.0;
  double tail = 0.0;
  int64_t n = 0;
};
Distribution Summarize(std::vector<double> values);

/// Adds `<name>.p50`, `<name>.tail` and `<name>.n` metrics.
void AddDistribution(RunResult* result, const std::string& name,
                     const Distribution& d, const std::string& unit);

double Median(std::vector<double> values);
/// (q3 - q1) / median, with quartiles as Python's
/// statistics.quantiles(values, n=4) computes them.
double RelativeIqr(std::vector<double> values);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Prints the notes, then the final JSON line
/// {"correct", "attempted", "failed", "metrics"}.
void PrintResult(const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_

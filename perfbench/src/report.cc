#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

void RunResult::Fail(const std::string& why) {
  correct = false;
  notes.push_back("CHECK FAILED: " + why);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Distribution Summarize(std::vector<double> values) {
  Distribution d;
  d.n = static_cast<int64_t>(values.size());
  if (values.empty()) return d;
  d.p50 = Median(values);
  std::sort(values.begin(), values.end());
  d.tail = values.size() > 20 ? values[values.size() - 11] : values.back();
  return d;
}

void AddDistribution(RunResult* result, const std::string& name,
                     const Distribution& d, const std::string& unit) {
  result->Add(name + ".p50", d.p50, unit);
  result->Add(name + ".tail", d.tail, unit);
  result->Add(name + ".n", static_cast<double>(d.n), "count");
}

double RelativeIqr(std::vector<double> values) {
  const int64_t ld = static_cast<int64_t>(values.size());
  if (ld < 2) return 0.0;
  std::sort(values.begin(), values.end());
  // statistics.quantiles(..., n=4, method='exclusive').
  auto quartile = [&](int64_t i) {
    int64_t j = i * (ld + 1) / 4;
    j = std::clamp<int64_t>(j, 1, ld - 1);
    const int64_t delta = i * (ld + 1) - j * 4;
    return (values[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
            values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  const double median = Median(values);
  return median != 0.0 ? (quartile(3) - quartile(1)) / median : 0.0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void PrintResult(const RunResult& result) {
  for (const std::string& line : result.notes) {
    std::printf("%s\n", line.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

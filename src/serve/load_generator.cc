#include "serve/load_generator.h"

// lint: allow-thread-file — the generator aggregates completions from
// server worker threads (mutex + bounded waits) and paces arrivals with
// sleeps; serving-side only, no compute parallelism.
// lint: allow-wallclock-file — open-loop pacing is wall-clock by
// definition.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <thread>

#include "base/check.h"
#include "base/rng.h"
#include "base/thread_annotations.h"
#include "serve/clock.h"

namespace dhgcn {

namespace {

/// Shared sink for completions arriving from worker threads.
struct Collector {
  Mutex mu;
  CondVar cv;
  int64_t outstanding DHGCN_GUARDED_BY(mu) = 0;
  int64_t ok DHGCN_GUARDED_BY(mu) = 0;
  int64_t expired DHGCN_GUARDED_BY(mu) = 0;
  int64_t invalid DHGCN_GUARDED_BY(mu) = 0;
  int64_t other_errors DHGCN_GUARDED_BY(mu) = 0;
  int64_t batched_sum DHGCN_GUARDED_BY(mu) = 0;
  std::vector<double> ok_latency_ms DHGCN_GUARDED_BY(mu);
};

void CollectorDone(void* ctx, const ServeResponse& response) {
  Collector* collector = static_cast<Collector*>(ctx);
  MutexLock lock(&collector->mu);
  if (response.status.ok()) {
    ++collector->ok;
    collector->ok_latency_ms.push_back(
        static_cast<double>(response.total_ns) / 1e6);
    collector->batched_sum += response.batch_size;
  } else if (response.status.IsDeadlineExceeded()) {
    ++collector->expired;
  } else if (response.status.IsInvalidArgument()) {
    ++collector->invalid;
  } else {
    ++collector->other_errors;
  }
  --collector->outstanding;
  if (collector->outstanding == 0) collector->cv.NotifyAll();
}

double Percentile(std::vector<double>* values, double pct) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  double rank = pct / 100.0 * static_cast<double>(values->size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values->size() - 1);
  double frac = rank - static_cast<double>(lo);
  return (*values)[lo] * (1.0 - frac) + (*values)[hi] * frac;
}

}  // namespace

LoadGenReport RunLoad(InferenceServer& server,
                      const LoadGenOptions& options) {
  DHGCN_CHECK(options.qps > 0.0 && options.duration_ms > 0);
  const FrozenModel& model = server.model();
  Rng rng(options.seed);
  Tensor clip({model.config().in_channels, model.frames(),
               model.num_joints()});
  for (int64_t i = 0; i < clip.numel(); ++i) {
    clip.flat(i) = rng.Normal();
  }

  SubmitOptions submit;
  submit.deadline_ns = MillisToNanos(options.deadline_ms);

  LoadGenReport report;
  Collector collector;
  ServeClock& clock = *ServeClock::Real();
  const int64_t gap_ns =
      static_cast<int64_t>(std::llround(1e9 / options.qps));
  const int64_t start_ns = clock.NowNanos();
  const int64_t end_ns =
      DeadlineAfter(start_ns, MillisToNanos(options.duration_ms));

  int64_t sent = 0;
  int64_t shed = 0;
  for (int64_t next_ns = start_ns; next_ns < end_ns;
       next_ns += gap_ns) {
    // Open loop: sleep to the grid point, never to "when the last
    // request finished".
    int64_t now = clock.NowNanos();
    if (next_ns > now) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(next_ns - now));
    }
    ++report.offered;
    ++sent;
    bool poison = options.poison_every_n > 0 &&
                  sent % options.poison_every_n == 0;
    if (poison) {
      clip.flat(0) = std::numeric_limits<float>::quiet_NaN();
    }
    {
      MutexLock lock(&collector.mu);
      ++collector.outstanding;
    }
    Status submitted = server.Submit(clip, submit, &CollectorDone,
                                     &collector);
    if (poison) clip.flat(0) = 0.0f;
    if (!submitted.ok()) {
      {
        MutexLock lock(&collector.mu);
        --collector.outstanding;
      }
      if (submitted.IsOverloaded()) {
        ++shed;
      } else if (submitted.IsDeadlineExceeded()) {
        ++report.expired;
      } else if (submitted.IsInvalidArgument()) {
        ++report.invalid;
      } else {
        ++report.other_errors;
      }
    }
  }

  {
    MutexLock lock(&collector.mu);
    while (collector.outstanding > 0) {
      // Bounded wait (serve-wait rule); admitted requests always
      // complete, so this drains.
      collector.cv.WaitForNanos(&collector.mu, 50'000'000);
    }
    report.accepted = report.offered - shed - report.expired -
                      report.invalid - report.other_errors;
    report.ok = collector.ok;
    report.shed = shed;
    report.expired += collector.expired;
    report.invalid += collector.invalid;
    report.other_errors += collector.other_errors;
    report.wall_seconds =
        static_cast<double>(clock.NowNanos() - start_ns) / 1e9;
    if (report.wall_seconds > 0.0) {
      report.throughput_qps =
          static_cast<double>(report.ok) / report.wall_seconds;
    }
    report.p50_ms = Percentile(&collector.ok_latency_ms, 50.0);
    report.p99_ms = Percentile(&collector.ok_latency_ms, 99.0);
    if (!collector.ok_latency_ms.empty()) {
      report.max_ms = collector.ok_latency_ms.back();
      report.mean_batch = static_cast<double>(collector.batched_sum) /
                          static_cast<double>(collector.ok);
    }
  }
  return report;
}

std::string LoadGenReportJson(const std::string& label,
                              const LoadGenReport& report,
                              const ServeStats& stats,
                              const HealthReport& health) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "    {\n"
     << "      \"phase\": \"" << label << "\",\n"
     << "      \"offered\": " << report.offered << ",\n"
     << "      \"accepted\": " << report.accepted << ",\n"
     << "      \"ok\": " << report.ok << ",\n"
     << "      \"shed_overloaded\": " << report.shed << ",\n"
     << "      \"deadline_expired\": " << report.expired << ",\n"
     << "      \"invalid_input\": " << report.invalid << ",\n"
     << "      \"other_errors\": " << report.other_errors << ",\n"
     << "      \"wall_seconds\": " << report.wall_seconds << ",\n"
     << "      \"throughput_qps\": " << report.throughput_qps << ",\n"
     << "      \"p50_ms\": " << report.p50_ms << ",\n"
     << "      \"p99_ms\": " << report.p99_ms << ",\n"
     << "      \"max_ms\": " << report.max_ms << ",\n"
     << "      \"mean_batch\": " << report.mean_batch << ",\n"
     << "      \"server\": {\n"
     << "        \"health\": \"" << ServeHealthName(health.state)
     << "\",\n"
     << "        \"degrade_level\": " << health.degrade_level << ",\n"
     << "        \"target_batch_size\": " << health.target_batch_size
     << ",\n"
     << "        \"batches\": " << stats.batches << ",\n"
     << "        \"degrade_events\": " << stats.degrade_events << ",\n"
     << "        \"recover_events\": " << stats.recover_events << ",\n"
     << "        \"max_queue_depth\": " << stats.max_queue_depth << "\n"
     << "      }\n"
     << "    }";
  return os.str();
}

}  // namespace dhgcn

#ifndef DHGCN_SERVE_SERVE_TYPES_H_
#define DHGCN_SERVE_SERVE_TYPES_H_

#include <cstdint>
#include <limits>
#include <string>

#include "base/status.h"
#include "tensor/tensor.h"

namespace dhgcn {

/// \brief Outcome of one serving request, delivered exactly once per
/// admitted request (rejected requests get a synchronous Status instead).
struct ServeResponse {
  Status status;
  int64_t request_id = 0;
  /// (num_classes,) logits; empty unless `status.ok()`. Owning storage —
  /// valid after the worker's arena has been recycled.
  Tensor logits;
  /// Nanoseconds spent queued before the micro-batch was taken.
  int64_t queue_ns = 0;
  /// Submit-to-completion nanoseconds.
  int64_t total_ns = 0;
  /// Size of the micro-batch this request was executed in (0 when it
  /// never reached execution).
  int64_t batch_size = 0;
};

/// Completion callback invoked by a server worker thread. Must not
/// throw, must not block for long (it runs on the serving hot path), and
/// must not call back into the server.
using ServeCompletionFn = void (*)(void* ctx, const ServeResponse& response);

/// Milliseconds to nanoseconds, clamped to the int64 range instead of
/// overflowing.
inline int64_t MillisToNanos(int64_t ms) {
  constexpr int64_t kNanosPerMilli = 1'000'000;
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  if (ms > kMax / kNanosPerMilli) return kMax;
  if (ms < kMin / kNanosPerMilli) return kMin;
  return ms * kNanosPerMilli;
}

/// Absolute time `relative_ns` (> 0) after `now_ns`, clamped at
/// INT64_MAX instead of overflowing: a deadline past the end of the
/// clock never passes.
inline int64_t DeadlineAfter(int64_t now_ns, int64_t relative_ns) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  return now_ns > kMax - relative_ns ? kMax : now_ns + relative_ns;
}

/// \brief Per-request submission options.
struct SubmitOptions {
  /// Relative deadline for this request; 0 picks the server default.
  /// Requests still queued when the deadline passes are expired with
  /// kDeadlineExceeded *before* any compute is spent on them.
  int64_t deadline_ns = 0;
};

/// \brief Readiness ladder exposed by InferenceServer::Health().
enum class ServeHealth : int {
  kStarting = 0,     ///< workers not yet running
  kReady = 1,        ///< serving at full batch size
  kDegraded = 2,     ///< shedding triggered the degradation ladder, or a
                     ///< worker is stalled: still serving, reduced quality
  kUnhealthy = 3,    ///< every worker is stalled; requests only expire
  kShuttingDown = 4, ///< draining; new submissions are rejected
};

std::string ServeHealthName(ServeHealth health);

/// \brief Point-in-time health snapshot.
struct HealthReport {
  ServeHealth state = ServeHealth::kStarting;
  int64_t degrade_level = 0;   ///< 0 = full batch size
  int64_t target_batch_size = 0;
  int64_t stalled_workers = 0;
  int64_t queue_depth = 0;
};

/// \brief Monotonic serving counters (snapshot under the server lock).
struct ServeStats {
  int64_t submitted = 0;        ///< Submit() calls that passed validation
  int64_t admitted = 0;         ///< entered the queue
  int64_t completed_ok = 0;     ///< OK responses delivered
  int64_t shed_overloaded = 0;  ///< rejected with kOverloaded
  int64_t expired = 0;          ///< kDeadlineExceeded (queued or late)
  int64_t invalid_input = 0;    ///< kInvalidArgument at validation
  int64_t batches = 0;          ///< micro-batches executed
  int64_t batched_requests = 0; ///< requests summed over those batches
  int64_t degrade_events = 0;   ///< ladder steps down (smaller batches)
  int64_t recover_events = 0;   ///< ladder steps back up
  int64_t max_queue_depth = 0;
};

}  // namespace dhgcn

#endif  // DHGCN_SERVE_SERVE_TYPES_H_

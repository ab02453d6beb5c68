#ifndef DHGCN_SERVE_MICRO_BATCHER_H_
#define DHGCN_SERVE_MICRO_BATCHER_H_

#include <cstdint>
#include <vector>

#include "base/result.h"
#include "serve/serve_types.h"
#include "tensor/tensor.h"

namespace dhgcn {

/// \brief Tuning for the micro-batching admission queue.
///
/// Times are nanoseconds. The defaults target a small CPU model: coalesce
/// for up to 2 ms, never queue more than 128 requests, and start
/// shrinking batches as soon as admission has to shed.
struct MicroBatcherOptions {
  /// Hard bound on queued requests; admission beyond it sheds with
  /// kOverloaded. The backing storage is preallocated — the queue never
  /// allocates after construction.
  int64_t queue_capacity = 128;
  /// Flush when this many requests are waiting (at degrade level 0).
  int64_t max_batch_size = 8;
  /// Flush the oldest request after coalescing this long (level 0).
  int64_t batch_delay_ns = 2'000'000;
  /// Start executing a request at least this long before its deadline,
  /// so compute has a chance to finish inside it.
  int64_t flush_margin_ns = 2'000'000;
  /// Minimum spacing between degradation steps, so one burst of sheds
  /// drops at most one level at a time.
  int64_t degrade_cooldown_ns = 20'000'000;
  /// Shed-free time required before stepping one level back up.
  int64_t recover_quiet_ns = 200'000'000;

  [[nodiscard]] Status Validate() const;
};

/// \brief One queued inference request.
struct PendingRequest {
  int64_t id = 0;
  Tensor clip;            ///< owning copy of the caller's input
  int64_t submit_ns = 0;
  int64_t deadline_ns = 0;  ///< absolute; expired before compute is spent
  ServeCompletionFn done_fn = nullptr;
  void* done_ctx = nullptr;
};

/// \brief Bounded FIFO micro-batching queue with deadlines, load
/// shedding and a batch-size degradation ladder.
///
/// Pure policy object: every method takes `now_ns` explicitly and the
/// class does no locking, no clock reads and no allocation after
/// construction, so unit tests replay arbitrary schedules with a fake
/// clock.
///
/// Call contract under concurrency: the caller serializes every method
/// call on one instance. `InferenceServer` expresses that statically by
/// declaring its member `batcher_ DHGCN_GUARDED_BY(mu_)` — the
/// annotation lives at the *owning member*, not as `REQUIRES` on these
/// methods, because Clang's thread-safety analysis cannot prove
/// cross-object mutex identity (it has no way to know which caller
/// mutex guards `this`). Single-threaded users (unit tests) need no
/// lock at all.
///
/// Policy:
///  - **Admission**: reject with kOverloaded when `size == capacity`
///    (after noting the shed for the degradation ladder) or when the
///    request's deadline has already passed.
///  - **Flush**: a batch is ready when `size >= target_batch_size()`, or
///    when `now` reaches the earliest per-request flush point
///    `min(submit + delay, deadline - flush_margin)`.
///  - **Expiry**: requests whose deadline has passed are handed back via
///    `TakeExpired` so callers fail them *without* spending compute.
///  - **Degradation ladder**: each shed (rate-limited by
///    `degrade_cooldown_ns`) halves the target batch size and the
///    coalescing delay — smaller batches start sooner and drain the
///    queue faster instead of collapsing it. After `recover_quiet_ns`
///    without sheds, one level is restored at a time.
class MicroBatcher {
 public:
  explicit MicroBatcher(const MicroBatcherOptions& options);

  /// Admits or sheds. On error the request is handed back untouched in
  /// `*request` so the caller still owns its completion.
  [[nodiscard]] Status Admit(PendingRequest* request, int64_t now_ns);

  /// Moves every queued request whose deadline has passed into
  /// `*expired` (FIFO order preserved on both sides). Allocation-free
  /// when `expired` has room for the whole queue.
  void TakeExpired(int64_t now_ns, std::vector<PendingRequest>* expired);

  /// True when a batch should be taken now (see the flush policy above).
  [[nodiscard]] bool BatchReady(int64_t now_ns) const;

  /// Moves up to `target_batch_size()` oldest requests into `*batch`.
  void TakeBatch(std::vector<PendingRequest>* batch);

  /// Nanoseconds until the next time-triggered event (flush point or
  /// expiry) — a bounded wait hint for the worker's condition wait.
  /// Returns `horizon_ns` when the queue is empty.
  [[nodiscard]] int64_t NanosUntilNextEvent(int64_t now_ns,
                                            int64_t horizon_ns) const;

  /// Steps the ladder one level up when the shed-free quiet period has
  /// elapsed. Call on any convenient event edge (admissions, flushes).
  void MaybeRecover(int64_t now_ns);

  int64_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  int64_t degrade_level() const { return degrade_level_; }
  int64_t max_degrade_level() const { return max_degrade_level_; }
  /// Current flush threshold: `max_batch_size >> degrade_level`, >= 1.
  int64_t target_batch_size() const;
  /// Current coalescing delay: `batch_delay_ns >> degrade_level`.
  int64_t effective_delay_ns() const;

  int64_t shed_count() const { return shed_count_; }
  int64_t degrade_events() const { return degrade_events_; }
  int64_t recover_events() const { return recover_events_; }

 private:
  int64_t FlushAtNs(const PendingRequest& request) const;
  void NoteShed(int64_t now_ns);

  MicroBatcherOptions options_;
  int64_t max_degrade_level_ = 0;

  /// FIFO storage, bounded by `queue_capacity` (capacity reserved up
  /// front; erase-from-front moves are cheap shared-pointer shuffles).
  std::vector<PendingRequest> pending_;
  int64_t count_ = 0;

  int64_t degrade_level_ = 0;
  int64_t last_shed_ns_ = 0;
  int64_t last_degrade_ns_ = 0;
  bool shed_seen_ = false;

  int64_t shed_count_ = 0;
  int64_t degrade_events_ = 0;
  int64_t recover_events_ = 0;
};

}  // namespace dhgcn

#endif  // DHGCN_SERVE_MICRO_BATCHER_H_

#ifndef DHGCN_SERVE_SERVER_H_
#define DHGCN_SERVE_SERVER_H_

// lint: allow-thread-file — the serving core *is* the one place
// inter-request concurrency lives: worker threads, a request mutex and
// bounded condition waits. Intra-op parallelism still goes through
// base/thread_pool.h, so the determinism contract is untouched. All
// condition waits are bounded (`WaitForNanos`), enforced by the
// repo_lint `serve-wait` rule, and every locking invariant is
// annotated for Clang's thread-safety analysis (DESIGN.md §13).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/result.h"
#include "base/thread_annotations.h"
#include "serve/clock.h"
#include "serve/frozen_model.h"
#include "serve/micro_batcher.h"
#include "serve/serve_types.h"
#include "tensor/workspace.h"

namespace dhgcn {

/// \brief Server tuning knobs. Times are nanoseconds.
struct ServerOptions {
  /// Worker threads, each owning a model replica and a workspace arena.
  int64_t worker_count = 1;
  /// Plan mode of each replica's execution plans, compiled per
  /// micro-batch size (see FrozenModel::Load and PlanCache).
  PlanMode plan_mode = PlanMode::kUnfused;
  /// Inference numerics of each replica: kInt8 loads post-training-
  /// quantized models (synthetic-batch calibration at load time; a
  /// calibration failure downgrades that replica to fp32 with one
  /// warning — see FrozenModel::Load).
  Precision precision = Precision::kFp32;
  MicroBatcherOptions batcher;
  /// Deadline applied when SubmitOptions.deadline_ns == 0.
  int64_t default_deadline_ns = 50'000'000;
  /// A worker busy on one batch longer than this counts as stalled for
  /// health reporting.
  int64_t stall_threshold_ns = 1'000'000'000;
  /// Upper bound on one idle condition wait (workers re-check state at
  /// least this often; also the watchdog's reporting granularity).
  int64_t idle_tick_ns = 5'000'000;

  [[nodiscard]] Status Validate() const;
};

/// \brief Fault-tolerant micro-batching inference server.
///
/// Concurrent single-clip submissions are coalesced into micro-batches
/// under a latency-deadline + max-batch-size policy (see MicroBatcher)
/// and executed by worker threads on per-worker model replicas with
/// per-worker Workspace arenas. Replicas forward concurrently: kernel
/// scratch belongs to the thread that drives the op, and the intra-op
/// pool runs a second concurrent caller inline. Robustness contract:
///
///  - **Backpressure**: admission beyond the bounded queue rejects
///    synchronously with kOverloaded — callers see the shed explicitly,
///    nothing blocks unboundedly.
///  - **Deadlines**: queued requests whose deadline passes are expired
///    with kDeadlineExceeded before any compute is spent; requests that
///    finish late get kDeadlineExceeded instead of a stale answer.
///  - **Graceful degradation**: sustained shedding shrinks the target
///    batch size / coalescing delay (MicroBatcher ladder) and recovers
///    automatically once load drops.
///  - **Poison isolation**: each request is finite-validated (the
///    ingest-quarantine rule of training) at admission, so a
///    NaN-poisoned clip is rejected alone with kInvalidArgument before
///    it can enter the queue, and its would-be batchmates run.
///  - **Watchdog**: per-worker heartbeats surface stalls through
///    Health() (kDegraded / kUnhealthy) without stopping admission
///    control.
///  - **Exactly-once completion**: every admitted request's callback
///    fires exactly once, including through Shutdown() (drain).
///
/// Fault-injection sites (`queue-full`, `worker-stall`,
/// `deadline-miss`, `poison-input`) make each failure mode testable on
/// demand.
class InferenceServer {
 public:
  /// Loads `worker_count` model replicas from `checkpoint_path` (empty =
  /// fresh weights) and starts the workers. `clock` defaults to the
  /// process steady clock; tests may inject a FakeServeClock (non-owning,
  /// must outlive the server).
  static Result<std::unique_ptr<InferenceServer>> Create(
      const std::string& checkpoint_path, const DhgcnConfig& config,
      int64_t frames, const ServerOptions& options,
      ServeClock* clock = nullptr);

  ~InferenceServer();
  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Non-blocking admission. OK means the request was admitted and
  /// `done_fn(done_ctx, response)` will fire exactly once from a worker
  /// thread; any error means the request was rejected *now* and the
  /// callback will never fire. The clip is copied on admission, so the
  /// caller may reuse its buffer immediately.
  [[nodiscard]] Status Submit(const Tensor& clip,
                              const SubmitOptions& options,
                              ServeCompletionFn done_fn, void* done_ctx);

  /// Blocking convenience wrapper around Submit for synchronous callers
  /// (and the C ABI). The returned response's `status` carries
  /// kOverloaded / kDeadlineExceeded / kInvalidArgument rejections.
  ServeResponse Infer(const Tensor& clip, const SubmitOptions& options);

  HealthReport Health() const;
  ServeStats Stats() const;

  /// Stops admission, drains the queue (still honoring deadlines), and
  /// joins the workers. Idempotent; also runs from the destructor.
  void Shutdown();

  const FrozenModel& model() const { return *models_[0]; }
  const ServerOptions& options() const { return options_; }

 private:
  InferenceServer(std::vector<std::unique_ptr<FrozenModel>> models,
                  const ServerOptions& options, ServeClock* clock);

  void WorkerLoop(int64_t worker_index);
  /// Executes one taken micro-batch outside the lock: validates inputs,
  /// stacks into the worker's arena `ws`, forwards, splits and
  /// completes.
  void ExecuteBatch(int64_t worker_index, Workspace& ws,
                    std::vector<PendingRequest>* batch);
  void Complete(PendingRequest* request, Status status, Tensor logits,
                int64_t taken_ns, int64_t batch_size);

  /// models_/options_/clock_ are immutable after Create() returns, so
  /// they carry no guard.
  std::vector<std::unique_ptr<FrozenModel>> models_;
  ServerOptions options_;
  ServeClock* clock_;

  /// Guards the admission queue and every piece of server state the
  /// submitter, workers and health probes share. Never held during a
  /// forward: replicas run concurrently.
  mutable Mutex mu_;
  CondVar work_cv_;
  MicroBatcher batcher_ DHGCN_GUARDED_BY(mu_);
  bool shutting_down_ DHGCN_GUARDED_BY(mu_) = false;
  bool started_ DHGCN_GUARDED_BY(mu_) = false;
  int64_t next_request_id_ DHGCN_GUARDED_BY(mu_) = 1;
  ServeStats stats_ DHGCN_GUARDED_BY(mu_);

  /// Worker heartbeats: 0 = idle, else NowNanos() when the current
  /// batch started. Written by the owning worker, read by Health() —
  /// atomics, not mu_, so the watchdog never contends with admission.
  /// One flat fixed-size array (worker_count entries, sized at
  /// construction): the watchdog scan walks contiguous memory instead
  /// of chasing one heap pointer per worker.
  std::unique_ptr<std::atomic<int64_t>[]> worker_busy_since_;
  /// Mutated only in Create() (before any worker runs) and Shutdown()
  /// (after the shutting_down_ handshake stops every loop), so joins
  /// happen outside any lock.
  std::vector<std::thread> workers_;
};

}  // namespace dhgcn

#endif  // DHGCN_SERVE_SERVER_H_

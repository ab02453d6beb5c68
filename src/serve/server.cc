#include "serve/server.h"

// lint: allow-thread-file — see server.h: the serving core is where
// inter-request concurrency lives; compute still routes through
// base/thread_pool.h.
// lint: allow-wallclock-file — condition-wait timeouts and the
// fault-injected worker stall are wall-clock by nature (serving-path
// only; nothing here feeds training state or checkpoints).

#include <chrono>
#include <cstring>
#include <limits>
#include <utility>

#include "base/check.h"
#include "base/fault_injection.h"
#include "base/string_util.h"
#include "data/validation.h"

namespace dhgcn {

namespace {

/// Stack-resident completion latch for the blocking Infer wrapper.
struct SyncWaiter {
  Mutex mu;
  CondVar cv;
  bool done DHGCN_GUARDED_BY(mu) = false;
  ServeResponse response DHGCN_GUARDED_BY(mu);
};

void SyncWaiterDone(void* ctx, const ServeResponse& response) {
  SyncWaiter* waiter = static_cast<SyncWaiter*>(ctx);
  // Notify while still holding the mutex: the waiter destroys this
  // stack-resident latch as soon as it observes done, and it can only
  // observe done after we release the lock — which is only after
  // NotifyAll has returned. Notifying outside the lock races the
  // condvar's destruction (caught by TSan).
  MutexLock lock(&waiter->mu);
  waiter->response = response;
  waiter->done = true;
  waiter->cv.NotifyAll();
}

}  // namespace

std::string ServeHealthName(ServeHealth health) {
  switch (health) {
    case ServeHealth::kStarting:
      return "starting";
    case ServeHealth::kReady:
      return "ready";
    case ServeHealth::kDegraded:
      return "degraded";
    case ServeHealth::kUnhealthy:
      return "unhealthy";
    case ServeHealth::kShuttingDown:
      return "shutting-down";
  }
  return "?";
}

Status ServerOptions::Validate() const {
  if (worker_count < 1) {
    return Status::InvalidArgument(
        StrCat("worker_count must be >= 1, got ", worker_count));
  }
  if (default_deadline_ns < 1 || stall_threshold_ns < 1 ||
      idle_tick_ns < 1) {
    return Status::InvalidArgument("server durations must be >= 1 ns");
  }
  return batcher.Validate();
}

InferenceServer::InferenceServer(
    std::vector<std::unique_ptr<FrozenModel>> models,
    const ServerOptions& options, ServeClock* clock)
    : models_(std::move(models)),
      options_(options),
      clock_(clock),
      batcher_(options.batcher) {
  // Value-initialized (`[]()`) so every heartbeat slot starts at 0/idle.
  worker_busy_since_ = std::make_unique<std::atomic<int64_t>[]>(
      static_cast<size_t>(options_.worker_count));
}

Result<std::unique_ptr<InferenceServer>> InferenceServer::Create(
    const std::string& checkpoint_path, const DhgcnConfig& config,
    int64_t frames, const ServerOptions& options, ServeClock* clock) {
  DHGCN_RETURN_IF_ERROR(options.Validate());
  std::vector<std::unique_ptr<FrozenModel>> models;
  for (int64_t w = 0; w < options.worker_count; ++w) {
    // One replica per worker: layer forwards cache member state, so a
    // shared instance would race.
    DHGCN_ASSIGN_OR_RETURN(
        std::unique_ptr<FrozenModel> model,
        FrozenModel::Load(checkpoint_path, config, frames,
                          options.plan_mode, options.precision));
    models.push_back(std::move(model));
  }
  std::unique_ptr<InferenceServer> server(
      // lint: allow-naked-new — private ctor is unreachable by
      // make_unique; the pointer lands in unique_ptr immediately.
      new InferenceServer(std::move(models), options,
                          clock != nullptr ? clock : ServeClock::Real()));
  {
    MutexLock lock(&server->mu_);
    server->started_ = true;
  }
  for (int64_t w = 0; w < options.worker_count; ++w) {
    server->workers_.emplace_back(
        [raw = server.get(), w] { raw->WorkerLoop(w); });
  }
  return server;
}

InferenceServer::~InferenceServer() { Shutdown(); }

Status InferenceServer::Submit(const Tensor& clip,
                               const SubmitOptions& options,
                               ServeCompletionFn done_fn, void* done_ctx) {
  DHGCN_CHECK(done_fn != nullptr);
  DHGCN_RETURN_IF_ERROR(models_[0]->ValidateClipShape(clip));
  int64_t relative_deadline = options.deadline_ns > 0
                                  ? options.deadline_ns
                                  : options_.default_deadline_ns;
  PendingRequest request;
  request.clip = clip.Clone();
  if (FaultInjection::Get().ShouldFire(FaultSite::kServePoisonInput)) {
    request.clip.flat(0) = std::numeric_limits<float>::quiet_NaN();
  }
  // Ingest quarantine at admission: a poisoned clip never enters the
  // queue, so it cannot expire there unseen.
  if (!TensorHasFiniteValues(request.clip)) {
    MutexLock lock(&mu_);
    ++stats_.invalid_input;
    return Status::InvalidArgument(
        "clip rejected by ingest quarantine (non-finite values)");
  }
  request.done_fn = done_fn;
  request.done_ctx = done_ctx;
  {
    MutexLock lock(&mu_);
    if (shutting_down_) {
      return Status::FailedPrecondition("server is shutting down");
    }
    int64_t now = clock_->NowNanos();
    request.id = next_request_id_++;
    request.submit_ns = now;
    request.deadline_ns = DeadlineAfter(now, relative_deadline);
    ++stats_.submitted;
    Status admitted = batcher_.Admit(&request, now);
    if (!admitted.ok()) {
      if (admitted.IsOverloaded()) {
        ++stats_.shed_overloaded;
      } else if (admitted.IsDeadlineExceeded()) {
        ++stats_.expired;
      }
      return admitted;
    }
    ++stats_.admitted;
    if (batcher_.size() > stats_.max_queue_depth) {
      stats_.max_queue_depth = batcher_.size();
    }
  }
  work_cv_.NotifyOne();
  return Status::OK();
}

ServeResponse InferenceServer::Infer(const Tensor& clip,
                                     const SubmitOptions& options) {
  SyncWaiter waiter;
  Status submitted = Submit(clip, options, &SyncWaiterDone, &waiter);
  if (!submitted.ok()) {
    ServeResponse response;
    response.status = submitted;
    return response;
  }
  MutexLock lock(&waiter.mu);
  while (!waiter.done) {
    // Bounded waits only; the server's exactly-once completion
    // guarantee (including through Shutdown) bounds the loop itself.
    waiter.cv.WaitForNanos(&waiter.mu, 50'000'000);
  }
  return waiter.response;
}

void InferenceServer::Complete(PendingRequest* request, Status status,
                               Tensor logits, int64_t taken_ns,
                               int64_t batch_size) {
  ServeResponse response;
  int64_t now = clock_->NowNanos();
  response.request_id = request->id;
  response.queue_ns = taken_ns > 0 ? taken_ns - request->submit_ns
                                   : now - request->submit_ns;
  response.total_ns = now - request->submit_ns;
  response.batch_size = batch_size;
  response.logits = std::move(logits);
  {
    MutexLock lock(&mu_);
    if (status.ok()) {
      ++stats_.completed_ok;
    } else if (status.IsDeadlineExceeded()) {
      ++stats_.expired;
    }
  }
  response.status = std::move(status);
  request->done_fn(request->done_ctx, response);
}

void InferenceServer::WorkerLoop(int64_t worker_index) {
  Workspace ws;  // this worker's arena, reset per batch
  std::vector<PendingRequest> expired;
  std::vector<PendingRequest> batch;
  expired.reserve(static_cast<size_t>(options_.batcher.queue_capacity));
  batch.reserve(static_cast<size_t>(options_.batcher.max_batch_size));
  for (;;) {
    expired.clear();
    batch.clear();
    bool forced_miss = false;
    {
      MutexLock lock(&mu_);
      for (;;) {
        int64_t now = clock_->NowNanos();
        batcher_.MaybeRecover(now);
        batcher_.TakeExpired(now, &expired);
        if (!expired.empty()) break;
        if (batcher_.BatchReady(now) ||
            (shutting_down_ && !batcher_.empty())) {
          forced_miss = FaultInjection::Get().ShouldFire(
              FaultSite::kServeDeadlineMiss);
          batcher_.TakeBatch(&batch);
          break;
        }
        if (shutting_down_ && batcher_.empty()) return;
        int64_t wait_ns =
            batcher_.NanosUntilNextEvent(now, options_.idle_tick_ns);
        if (wait_ns < 100'000) wait_ns = 100'000;
        work_cv_.WaitForNanos(&mu_, wait_ns);
      }
    }
    for (PendingRequest& request : expired) {
      Complete(&request,
               Status::DeadlineExceeded(
                   "deadline expired while queued (no compute spent)"),
               Tensor(), /*taken_ns=*/0, /*batch_size=*/0);
    }
    if (batch.empty()) continue;
    if (forced_miss) {
      for (PendingRequest& request : batch) {
        Complete(&request,
                 Status::DeadlineExceeded(
                     "fault injection: micro-batch deadline miss"),
                 Tensor(), /*taken_ns=*/0, /*batch_size=*/0);
      }
      continue;
    }
    ExecuteBatch(worker_index, ws, &batch);
  }
}

void InferenceServer::ExecuteBatch(int64_t worker_index, Workspace& ws,
                                   std::vector<PendingRequest>* batch) {
  FrozenModel& model = *models_[static_cast<size_t>(worker_index)];
  std::atomic<int64_t>& busy =
      worker_busy_since_[static_cast<size_t>(worker_index)];
  int64_t taken_ns = clock_->NowNanos();
  busy.store(taken_ns, std::memory_order_release);

  FaultInjection& faults = FaultInjection::Get();
  if (faults.ShouldFire(FaultSite::kServeWorkerStall)) {
    int64_t stall_ms = faults.payload(FaultSite::kServeWorkerStall);
    if (stall_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
    }
  }

  // Re-check deadlines so a stall never leads to compute on requests
  // that can no longer be answered.
  std::vector<PendingRequest> runnable;
  runnable.reserve(batch->size());
  int64_t batch_size = static_cast<int64_t>(batch->size());
  for (PendingRequest& request : *batch) {
    if (request.deadline_ns <= clock_->NowNanos()) {
      Complete(&request,
               Status::DeadlineExceeded(
                   "deadline expired before compute started"),
               Tensor(), taken_ns, batch_size);
      continue;
    }
    runnable.push_back(std::move(request));
  }
  if (runnable.empty()) {
    busy.store(0, std::memory_order_release);
    return;
  }

  int64_t b = static_cast<int64_t>(runnable.size());
  int64_t clip_numel = model.clip_numel();
  ws.Reset();
  Tensor stacked = ws.Acquire({b, model.config().in_channels,
                               model.frames(), model.num_joints()});
  float* dst = stacked.data();
  for (int64_t i = 0; i < b; ++i) {
    std::memcpy(dst + i * clip_numel,
                runnable[static_cast<size_t>(i)].clip.data(),
                static_cast<size_t>(clip_numel) * sizeof(float));
  }

  Tensor logits = model.Forward(stacked, ws);
  DHGCN_CHECK_EQ(logits.dim(0), b);
  int64_t classes = logits.dim(1);

  int64_t done_ns = clock_->NowNanos();
  const float* src = logits.data();
  for (int64_t i = 0; i < b; ++i) {
    PendingRequest& request = runnable[static_cast<size_t>(i)];
    if (request.deadline_ns <= done_ns) {
      Complete(&request,
               Status::DeadlineExceeded("inference finished after the "
                                        "request deadline"),
               Tensor(), taken_ns, b);
      continue;
    }
    Tensor row({classes});
    std::memcpy(row.data(), src + i * classes,
                static_cast<size_t>(classes) * sizeof(float));
    Complete(&request, Status::OK(), std::move(row), taken_ns, b);
  }

  {
    MutexLock lock(&mu_);
    ++stats_.batches;
    stats_.batched_requests += b;
  }
  busy.store(0, std::memory_order_release);
}

HealthReport InferenceServer::Health() const {
  HealthReport report;
  int64_t now = clock_->NowNanos();
  int64_t stalled = 0;
  for (int64_t w = 0; w < options_.worker_count; ++w) {
    int64_t since = worker_busy_since_[static_cast<size_t>(w)].load(
        std::memory_order_acquire);
    if (since > 0 && now - since > options_.stall_threshold_ns) ++stalled;
  }
  MutexLock lock(&mu_);
  report.stalled_workers = stalled;
  report.queue_depth = batcher_.size();
  report.degrade_level = batcher_.degrade_level();
  report.target_batch_size = batcher_.target_batch_size();
  if (!started_) {
    report.state = ServeHealth::kStarting;
  } else if (shutting_down_) {
    report.state = ServeHealth::kShuttingDown;
  } else if (stalled >= options_.worker_count) {
    report.state = ServeHealth::kUnhealthy;
  } else if (stalled > 0 || batcher_.degrade_level() > 0) {
    report.state = ServeHealth::kDegraded;
  } else {
    report.state = ServeHealth::kReady;
  }
  return report;
}

ServeStats InferenceServer::Stats() const {
  MutexLock lock(&mu_);
  ServeStats stats = stats_;
  stats.degrade_events = batcher_.degrade_events();
  stats.recover_events = batcher_.recover_events();
  return stats;
}

void InferenceServer::Shutdown() {
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

}  // namespace dhgcn

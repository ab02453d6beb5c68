#include "base/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <string>

namespace dhgcn {

namespace {

// Set while the thread (worker or caller) is executing task chunks;
// ParallelFor checks it to reject nested parallel regions.
thread_local bool tls_in_parallel = false;

int64_t DefaultThreadCount() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — read once, while the lazily
  // constructed singleton pool is being built, before any worker exists.
  if (const char* env = std::getenv("DHGCN_THREADS")) {
    char* end = nullptr;
    long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1) {
      return static_cast<int64_t>(parsed);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int64_t>(hw) : 1;
}

}  // namespace

ThreadPool& ThreadPool::Get() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::InParallelRegion() { return tls_in_parallel; }

ThreadPool::ThreadPool() { SetThreads(DefaultThreadCount()); }

ThreadPool::~ThreadPool() { StopWorkers(); }

void ThreadPool::SetThreads(int64_t n) {
  DHGCN_CHECK_GE(n, 1);
  DHGCN_CHECK(!tls_in_parallel);  // reconfiguring inside a task deadlocks
  if (n == threads_ && static_cast<int64_t>(workers_.size()) == n - 1) {
    return;
  }
  StopWorkers();
  threads_ = n;
  StartWorkers(n - 1);
}

void ThreadPool::StopWorkers() {
  {
    MutexLock lock(&mu_);
    // Condition loops are written out (not lambda predicates) so the
    // guarded reads sit in this frame, which provably holds mu_.
    while (active_workers_ != 0) done_cv_.Wait(&mu_);
    shutdown_ = true;
  }
  worker_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  {
    MutexLock lock(&mu_);
    shutdown_ = false;
  }
}

void ThreadPool::StartWorkers(int64_t worker_count) {
  workers_.reserve(static_cast<size_t>(worker_count));
  for (int64_t i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::Run(TaskFn fn, void* ctx, int64_t begin, int64_t end,
                     int64_t grain) {
  DHGCN_CHECK_GT(grain, 0);
  DHGCN_CHECK(!tls_in_parallel);  // nested ParallelFor is rejected
  if (end <= begin) return;

  const int64_t chunks = (end - begin + grain - 1) / grain;
  bool published = false;
  if (!workers_.empty() && chunks > 1) {
    MutexLock lock(&mu_);
    // Let stragglers from the previous job leave the claim loop before
    // the job fields they read are overwritten. If another caller's job
    // is (or becomes) in flight, the slot is taken: run inline below.
    while (!job_in_flight_ && active_workers_ != 0) done_cv_.Wait(&mu_);
    if (!job_in_flight_) {
      job_in_flight_ = true;
      published = true;
      job_fn_ = fn;
      job_ctx_ = ctx;
      job_begin_ = begin;
      job_end_ = end;
      job_grain_ = grain;
      job_chunks_ = chunks;
      next_chunk_.store(0, std::memory_order_relaxed);
      remaining_chunks_.store(chunks, std::memory_order_relaxed);
      ++job_id_;
    }
  }
  if (!published) {
    // Serial path: same chunks, ascending order, calling thread.
    tls_in_parallel = true;
    for (int64_t c = 0; c < chunks; ++c) {
      int64_t chunk_begin = begin + c * grain;
      fn(ctx, chunk_begin, std::min(end, chunk_begin + grain));
    }
    tls_in_parallel = false;
    return;
  }
  worker_cv_.NotifyAll();

  RunChunks();  // the calling thread is one of the compute threads

  MutexLock lock(&mu_);
  while (remaining_chunks_.load(std::memory_order_acquire) != 0) {
    done_cv_.Wait(&mu_);
  }
  job_in_flight_ = false;
}

void ThreadPool::RunChunks() {
  tls_in_parallel = true;
  for (;;) {
    int64_t chunk = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job_chunks_) break;
    int64_t chunk_begin = job_begin_ + chunk * job_grain_;
    int64_t chunk_end = std::min(job_end_, chunk_begin + job_grain_);
    job_fn_(job_ctx_, chunk_begin, chunk_end);
    if (remaining_chunks_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      MutexLock lock(&mu_);
      done_cv_.NotifyAll();
    }
  }
  tls_in_parallel = false;
}

void ThreadPool::WorkerLoop() {
  uint64_t last_job = 0;
  for (;;) {
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && job_id_ == last_job) worker_cv_.Wait(&mu_);
      if (shutdown_) return;
      last_job = job_id_;
      ++active_workers_;
    }
    RunChunks();
    {
      MutexLock lock(&mu_);
      --active_workers_;
    }
    done_cv_.NotifyAll();
  }
}

}  // namespace dhgcn

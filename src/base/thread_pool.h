#ifndef DHGCN_BASE_THREAD_POOL_H_
#define DHGCN_BASE_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "base/check.h"
#include "base/thread_annotations.h"

namespace dhgcn {

/// \brief Process-wide fixed-size worker pool for intra-op parallelism.
///
/// The pool exists to make the hot kernels (GEMM family, Conv2d,
/// BatchNorm, the loss batch loop, the dynamic-topology frames) use
/// every core **without giving up bit-exact determinism**. The contract
/// that makes that possible:
///
/// *Static contiguous partitioning.* `ParallelFor(begin, end, grain,
/// fn)` splits `[begin, end)` into `ceil(range / grain)` contiguous
/// chunks of `grain` elements (last chunk possibly shorter). The chunk
/// boundaries depend only on `(begin, end, grain)` — never on the
/// worker count — so the same chunks run whether the pool has 1 or 64
/// threads; only *which thread* runs a chunk varies. A kernel whose
/// chunks write disjoint output regions is therefore bit-identical for
/// every thread count, including the fully serial `threads=1` fallback.
///
/// *Fixed-order reduction.* Cross-chunk reductions must not combine
/// partials in completion order. `ParallelReduceSum` stores one partial
/// accumulator per chunk (per-chunk slots, capped at
/// `kMaxReduceChunks`, so the chunking — and thus the float summation
/// tree — is still thread-count-independent) and adds them in ascending
/// chunk order on the calling thread.
///
/// *Task contract.* Tasks must not throw (exceptions are banned in
/// library code; the dispatch path is `noexcept`, so a throwing task
/// terminates), must not call back into `ParallelFor` (nested parallel
/// regions are rejected with a `DHGCN_CHECK`), and must only write
/// state that no other chunk writes.
///
/// *No allocation on the task path.* Dispatch passes a raw function
/// pointer plus a pointer to the caller's stack-resident callable — no
/// `std::function`, no heap traffic — so parallelized `*Into` workspace
/// kernels keep the steady-state allocation budget at zero.
///
/// Thread count: `ThreadPool::Get()` lazily builds the pool with the
/// `DHGCN_THREADS` environment variable if set (>= 1), otherwise
/// `std::thread::hardware_concurrency()`. `SetThreads(n)` reconfigures
/// at any quiescent point (joins and respawns workers); `--threads`
/// plumbs it through the CLI tools. `threads == 1` spawns no workers at
/// all and runs every chunk inline, in order, on the calling thread.
///
/// *Concurrent callers.* The pool has one job slot. A caller that
/// finds another caller's job in flight does not wait for it: it runs
/// its own chunks inline, in order, through the serial fallback path,
/// which static partitioning makes bit-identical. So any number of
/// threads (e.g. serving workers) may call `ParallelFor` at once;
/// only `SetThreads` needs a quiescent pool.
class ThreadPool {
 public:
  /// Upper bound on per-call reduction chunks (fixed-size slot array on
  /// the caller's stack keeps the reduce path allocation-free).
  static constexpr int64_t kMaxReduceChunks = 64;

  /// The process-wide pool, created on first use.
  static ThreadPool& Get();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Reconfigures the pool to `n` total compute threads (the calling
  /// thread plus `n - 1` workers). `n >= 1`; `n == 1` is the fully
  /// serial fallback. Must not be called from inside a task, nor while
  /// another thread may be inside `ParallelFor`.
  void SetThreads(int64_t n);

  /// Total compute threads (calling thread included).
  int64_t thread_count() const { return threads_; }

  /// True while the calling thread is executing a ParallelFor task.
  static bool InParallelRegion();

  /// Runs `fn(chunk_begin, chunk_end)` over static contiguous chunks of
  /// `[begin, end)`; see the class comment for the determinism
  /// contract. Blocks until every chunk has finished. Empty ranges
  /// return immediately without invoking `fn`; `grain` must be >= 1.
  template <typename Fn>
  void ParallelFor(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
    using Callable = std::remove_reference_t<Fn>;
    Run(
        +[](void* ctx, int64_t chunk_begin, int64_t chunk_end) noexcept {
          (*static_cast<Callable*>(ctx))(chunk_begin, chunk_end);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
        begin, end, grain);
  }

  /// Deterministic chunked sum: `fn(chunk_begin, chunk_end)` returns a
  /// `double` partial for its chunk; partials are combined in ascending
  /// chunk order regardless of which thread produced them. The chunk
  /// count is capped at `kMaxReduceChunks` by widening `grain` — still
  /// a pure function of `(begin, end, grain)`, so the summation order
  /// is identical for every thread count.
  template <typename Fn>
  double ParallelReduceSum(int64_t begin, int64_t end, int64_t grain,
                           Fn&& fn) {
    DHGCN_CHECK_GT(grain, 0);
    if (end <= begin) return 0.0;
    int64_t range = end - begin;
    int64_t effective_grain = grain;
    if ((range + effective_grain - 1) / effective_grain > kMaxReduceChunks) {
      effective_grain = (range + kMaxReduceChunks - 1) / kMaxReduceChunks;
    }
    int64_t chunks = (range + effective_grain - 1) / effective_grain;
    double partials[kMaxReduceChunks];
    ParallelFor(begin, end, effective_grain,
                [&](int64_t chunk_begin, int64_t chunk_end) {
                  int64_t slot = (chunk_begin - begin) / effective_grain;
                  partials[slot] = fn(chunk_begin, chunk_end);
                });
    double total = 0.0;
    for (int64_t c = 0; c < chunks; ++c) total += partials[c];
    return total;
  }

 private:
  /// Raw task entry: `noexcept` enforces the exception-free contract at
  /// the dispatch boundary.
  using TaskFn = void (*)(void* ctx, int64_t chunk_begin,
                          int64_t chunk_end) noexcept;

  ThreadPool();
  ~ThreadPool();

  void Run(TaskFn fn, void* ctx, int64_t begin, int64_t end, int64_t grain);
  /// Claims and executes chunks of the current job until none remain.
  /// Runs lock-free by design (see the job_* field comment), so it is
  /// excluded from the static analysis — the active_workers_/job_id_
  /// handshake, not mu_, is what makes its reads race-free (validated
  /// dynamically by the TSan CI job).
  void RunChunks() DHGCN_NO_THREAD_SAFETY_ANALYSIS;
  void WorkerLoop();
  void StopWorkers();
  void StartWorkers(int64_t worker_count);

  /// threads_ and workers_ are reconfigured only at quiescent points
  /// (SetThreads joins every worker first) and only read in between, so
  /// they carry no guard.
  int64_t threads_ = 1;
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar worker_cv_;
  CondVar done_cv_;
  /// Incremented per job; workers wake when it changes.
  uint64_t job_id_ DHGCN_GUARDED_BY(mu_) = 0;
  /// True from a job's publication until its caller has seen every
  /// chunk finish. Other callers run inline meanwhile.
  bool job_in_flight_ DHGCN_GUARDED_BY(mu_) = false;
  /// Workers currently inside RunChunks. Publication of the next job
  /// waits for this to reach zero, so job fields are never written
  /// while a straggler may still read them.
  int64_t active_workers_ DHGCN_GUARDED_BY(mu_) = 0;
  bool shutdown_ DHGCN_GUARDED_BY(mu_) = false;

  // Current job. Written under mu_ while no job is in flight and
  // active_workers_ == 0; read by workers inside RunChunks *without* the
  // lock, made safe by the job_id_ handshake above (each worker observes
  // the new job_id_ under mu_ before touching these, and no write
  // happens while any worker is active). RunChunks is the one
  // DHGCN_NO_THREAD_SAFETY_ANALYSIS function in the tree for exactly
  // this reason.
  TaskFn job_fn_ DHGCN_GUARDED_BY(mu_) = nullptr;
  void* job_ctx_ DHGCN_GUARDED_BY(mu_) = nullptr;
  int64_t job_begin_ DHGCN_GUARDED_BY(mu_) = 0;
  int64_t job_end_ DHGCN_GUARDED_BY(mu_) = 0;
  int64_t job_grain_ DHGCN_GUARDED_BY(mu_) = 1;
  int64_t job_chunks_ DHGCN_GUARDED_BY(mu_) = 0;
  std::atomic<int64_t> next_chunk_{0};
  std::atomic<int64_t> remaining_chunks_{0};
};

/// Frames per chunk of the kernels that run a call's N·T frames in
/// parallel (dynamic topology, DynamicVertexMix): a constant, so the
/// chunking never depends on the thread count.
inline constexpr int64_t kFramesPerChunk = 16;

/// Grain (units per chunk) targeting `target_flops` multiply-accumulates
/// per ParallelFor chunk, given the per-unit cost. Depends only on the
/// workload shape — never on the pool size — so chunk boundaries stay
/// thread-count-independent. Kernels with per-chunk setup cost (e.g. the
/// blocked GEMM re-streaming its packed panels) pass a larger target
/// than the 16k default below.
inline int64_t GrainForFlopsTarget(int64_t flops_per_unit,
                                   int64_t target_flops) {
  if (flops_per_unit < 1) flops_per_unit = 1;
  int64_t grain = target_flops / flops_per_unit;
  return grain < 1 ? 1 : grain;
}

/// Default grain policy: roughly 16k multiply-accumulates per chunk.
inline int64_t GrainForFlops(int64_t flops_per_unit) {
  return GrainForFlopsTarget(flops_per_unit, 16384);
}

}  // namespace dhgcn

#endif  // DHGCN_BASE_THREAD_POOL_H_

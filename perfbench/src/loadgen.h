#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <vector>

#include "base/thread_annotations.h"
#include "serve/server.h"
#include "tensor/tensor.h"
#include "trace.h"

namespace perfbench {

/// Everything known about one request once it has finished. Written by
/// the completion callback on a server worker, read by the driving
/// thread only after the completion queue hands the request back (the
/// queue's mutex orders the two).
struct RequestRecord {
  int64_t clip = 0;
  int64_t due_ns = 0;     // when the schedule wanted it sent
  int64_t submit_ns = 0;  // Submit() entered
  int64_t admit_ns = 0;   // Submit() returned
  bool admitted = false;
  dhgcn::StatusCode code = dhgcn::StatusCode::kOk;
  int64_t done_ns = 0;
  int64_t queue_ns = 0;
  int64_t total_ns = 0;
  int64_t batch_size = 0;
  /// OK answer whose logits differ from the direct forward of the clip.
  bool wrong = false;
};

/// Outcome of one load phase.
struct PhaseRecord {
  const char* name = "";
  double seconds = 0.0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;  // end of the schedule (open) or of sending (closed)
  /// Most requests admitted in this phase and not yet completed (queued
  /// or executing), sampled at each admission.
  int64_t max_in_flight = 0;
  std::vector<RequestRecord> requests;
  dhgcn::ServeStats stats_before;
  dhgcn::ServeStats stats_after;
};

/// Single-threaded load generator. It replays a pool of distinct clips
/// in a seeded order, times every request from its due time, and keeps a
/// closed loop going from the same thread through a completion queue.
/// Every served answer is compared with `references[clip]`, the logits
/// of a direct forward of the same clip outside the server.
class LoadGenerator {
 public:
  LoadGenerator(dhgcn::InferenceServer* server,
                const std::vector<dhgcn::Tensor>* clips,
                const std::vector<std::vector<float>>* references,
                std::vector<int64_t> order, size_t max_requests);
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Open loop: request i is due at start + i / rate and is sent then,
  /// however the server is keeping up. Returns after every admitted
  /// request has completed.
  PhaseRecord RunOpenLoop(const char* name, double rate, double seconds,
                          int64_t deadline_ns);
  /// Closed loop: keeps `outstanding` requests in flight for `seconds`,
  /// sending the next one as each completes.
  PhaseRecord RunClosedLoop(const char* name, int64_t outstanding,
                            double seconds, int64_t deadline_ns);
  /// Plan warm-up: sends `count` requests at once, then `count` more
  /// `stagger_ns` later, and waits for all. A burst up to the batch limit
  /// executes as one batch of `count`; when the first batch is taken
  /// within the stagger and still executing, the second one lands on
  /// another worker.
  PhaseRecord RunBurstPair(int64_t count, int64_t stagger_ns,
                           int64_t deadline_ns);

  /// Records spans on the generator thread (sleep, admit, wait) when
  /// non-null.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  static void OnDone(void* ctx, const dhgcn::ServeResponse& response);
  /// Sends request `index` of the current phase; false if rejected now.
  bool Send(int64_t index, int64_t due_ns, int64_t deadline_ns);
  void PushCompleted(int64_t index);
  /// Blocks until a completion is queued; returns its request index.
  int64_t PopCompleted();
  void WaitAllCompleted(int64_t admitted);

  struct Slot {
    LoadGenerator* owner = nullptr;
    int64_t index = 0;
  };

  PhaseRecord StartPhase(const char* name);
  PhaseRecord FinishPhase(PhaseRecord phase, int64_t sent);

  dhgcn::InferenceServer* server_;
  Tracer* tracer_ = nullptr;
  const std::vector<dhgcn::Tensor>* clips_;
  const std::vector<std::vector<float>>* references_;
  std::vector<int64_t> order_;
  int64_t next_clip_ = 0;
  /// Per-request records of the current phase, pre-sized; the callback
  /// writes only its own record.
  std::vector<RequestRecord> records_;
  std::vector<Slot> slots_;
  int64_t phase_admitted_ = 0;
  int64_t phase_max_in_flight_ = 0;

  dhgcn::Mutex mu_;
  dhgcn::CondVar cv_;
  /// Completed request indices not yet taken by the closed loop (a ring
  /// sized to max_requests, so pushes never allocate).
  std::vector<int64_t> done_ring_ DHGCN_GUARDED_BY(mu_);
  int64_t done_head_ DHGCN_GUARDED_BY(mu_) = 0;
  int64_t done_tail_ DHGCN_GUARDED_BY(mu_) = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_

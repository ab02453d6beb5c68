#ifndef DHGCN_BASE_FAULT_INJECTION_H_
#define DHGCN_BASE_FAULT_INJECTION_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "base/result.h"
#include "base/thread_annotations.h"

namespace dhgcn {

/// Deterministic fault sites instrumented across the library. Each armed
/// site counts the passes over it and fires exactly once, at the armed
/// (1-based) Nth pass. Tests — and `dhgcn_train --fault_inject` /
/// `dhgcn_serve --fault_inject` — use these to prove that every recovery
/// path actually executes.
enum class FaultSite : int {
  kGradientNaN = 0,       ///< trainer: overwrite a gradient value with NaN
  kGradientInf,           ///< trainer: overwrite a gradient value with +Inf
  kFileWrite,             ///< serialization: fail the Nth atomic file write
  kCheckpointTruncate,    ///< serialization: drop `payload` trailing bytes
  kBatchNaN,              ///< dataloader: poison a batch tensor with NaN
  kServeQueueFull,        ///< serving: admission behaves as if the queue
                          ///< were full (explicit kOverloaded shed)
  kServeWorkerStall,      ///< serving: worker sleeps `payload` ms before
                          ///< executing its batch (watchdog / backpressure)
  kServeDeadlineMiss,     ///< serving: the dequeued micro-batch is treated
                          ///< as having missed its deadline
  kServePoisonInput,      ///< serving: poison one submitted clip with NaN
                          ///< (admission must reject it alone)
  kSiteCount,             // sentinel, keep last
};

std::string FaultSiteName(FaultSite site);

/// \brief Global registry of armed faults.
///
/// The training stack drives it from a single thread; the serving stack
/// (src/serve) passes over sites from concurrent submitter and worker
/// threads, so pass counting is internally synchronized. A disarmed
/// registry costs one relaxed atomic load per pass. Pass counting starts
/// when a site is armed, so arming `nth = 1` always fires on the next
/// pass.
class FaultInjection {
 public:
  static FaultInjection& Get();

  /// Arms `site` to fire at the `nth` (1-based) pass from now.
  /// `payload` is site-specific (kCheckpointTruncate: bytes to drop,
  /// kServeWorkerStall: milliseconds to stall).
  void Arm(FaultSite site, int64_t nth, int64_t payload = 0);
  void Disarm(FaultSite site);
  /// Disarms every site and clears all pass/fire counters.
  void Reset();

  /// Counts one pass over `site`; returns true when the armed pass is
  /// reached. One-shot: the site disarms after firing until re-armed.
  /// Discarding the result consumes a pass without handling the fault,
  /// so callers must consume it.
  [[nodiscard]] bool ShouldFire(FaultSite site);

  int64_t payload(FaultSite site) const;
  /// Times `site` has fired since construction / Reset().
  int64_t fire_count(FaultSite site) const;
  bool any_armed() const {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  /// Arms sites from a comma-separated spec, e.g.
  /// "grad-nan:3,write-fail:1,truncate:1:7". Each item is
  /// `site:nth[:payload]` with site one of grad-nan | grad-inf |
  /// write-fail | truncate | batch-nan | queue-full | worker-stall |
  /// deadline-miss | poison-input.
  Status ArmFromSpec(const std::string& spec);

 private:
  struct Site {
    bool armed = false;
    int64_t fire_at = 0;  // 1-based pass index counted from Arm()
    int64_t passes = 0;
    int64_t payload = 0;
    int64_t fires = 0;
  };

  FaultInjection() = default;

  // The registry is queried from serving worker and client threads
  // concurrently; a plain mutex (no parallel compute) keeps pass
  // counting exact without routing through the ThreadPool.
  mutable Mutex mu_;
  std::array<Site, static_cast<size_t>(FaultSite::kSiteCount)> sites_
      DHGCN_GUARDED_BY(mu_);
  /// Fast-path disarmed check; relaxed is fine, any thread that races an
  /// Arm() simply sees the site on its next pass.
  std::atomic<int64_t> armed_count_{0};
};

}  // namespace dhgcn

#endif  // DHGCN_BASE_FAULT_INJECTION_H_

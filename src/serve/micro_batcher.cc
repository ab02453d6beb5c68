#include "serve/micro_batcher.h"

#include <algorithm>
#include <cstddef>

#include "base/check.h"
#include "base/fault_injection.h"
#include "base/string_util.h"

namespace dhgcn {

Status MicroBatcherOptions::Validate() const {
  if (queue_capacity < 1) {
    return Status::InvalidArgument(
        StrCat("queue_capacity must be >= 1, got ", queue_capacity));
  }
  if (max_batch_size < 1 || max_batch_size > queue_capacity) {
    return Status::InvalidArgument(
        StrCat("max_batch_size must be in [1, queue_capacity], got ",
               max_batch_size));
  }
  if (batch_delay_ns < 0 || flush_margin_ns < 0 ||
      degrade_cooldown_ns < 0 || recover_quiet_ns < 0) {
    return Status::InvalidArgument("batcher durations must be >= 0");
  }
  return Status::OK();
}

MicroBatcher::MicroBatcher(const MicroBatcherOptions& options)
    : options_(options) {
  options_.Validate().AbortIfNotOk();
  pending_.reserve(static_cast<size_t>(options_.queue_capacity));
  while ((options_.max_batch_size >> (max_degrade_level_ + 1)) >= 1) {
    ++max_degrade_level_;
  }
}

int64_t MicroBatcher::target_batch_size() const {
  return std::max<int64_t>(1, options_.max_batch_size >> degrade_level_);
}

int64_t MicroBatcher::effective_delay_ns() const {
  return options_.batch_delay_ns >> degrade_level_;
}

int64_t MicroBatcher::FlushAtNs(const PendingRequest& request) const {
  return std::min(request.submit_ns + effective_delay_ns(),
                  request.deadline_ns - options_.flush_margin_ns);
}

Status MicroBatcher::Admit(PendingRequest* request, int64_t now_ns) {
  DHGCN_CHECK(request != nullptr && request->done_fn != nullptr);
  MaybeRecover(now_ns);
  if (request->deadline_ns <= now_ns) {
    return Status::DeadlineExceeded(
        "request deadline passed before admission");
  }
  bool forced_full =
      FaultInjection::Get().ShouldFire(FaultSite::kServeQueueFull);
  if (forced_full || count_ >= options_.queue_capacity) {
    NoteShed(now_ns);
    return Status::Overloaded(
        forced_full
            ? "fault injection: admission queue treated as full"
            : StrCat("admission queue full (", count_, " pending)"));
  }
  pending_.push_back(std::move(*request));
  ++count_;
  return Status::OK();
}

void MicroBatcher::TakeExpired(int64_t now_ns,
                               std::vector<PendingRequest>* expired) {
  // In-place, order-preserving compaction: live requests slide down,
  // dead ones move out in FIFO order. No temporary buffer, unlike
  // std::stable_partition.
  size_t live = 0;
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].deadline_ns <= now_ns) {
      expired->push_back(std::move(pending_[i]));
    } else {
      if (i != live) pending_[live] = std::move(pending_[i]);
      ++live;
    }
  }
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(live),
                 pending_.end());
  count_ = static_cast<int64_t>(pending_.size());
}

bool MicroBatcher::BatchReady(int64_t now_ns) const {
  if (count_ == 0) return false;
  if (count_ >= target_batch_size()) return true;
  for (const PendingRequest& request : pending_) {
    if (now_ns >= FlushAtNs(request)) return true;
  }
  return false;
}

void MicroBatcher::TakeBatch(std::vector<PendingRequest>* batch) {
  int64_t take = std::min(count_, target_batch_size());
  for (int64_t i = 0; i < take; ++i) {
    batch->push_back(std::move(pending_[static_cast<size_t>(i)]));
  }
  pending_.erase(pending_.begin(), pending_.begin() + take);
  count_ = static_cast<int64_t>(pending_.size());
}

int64_t MicroBatcher::NanosUntilNextEvent(int64_t now_ns,
                                          int64_t horizon_ns) const {
  int64_t next = horizon_ns;
  for (const PendingRequest& request : pending_) {
    int64_t event = std::min(FlushAtNs(request), request.deadline_ns);
    next = std::min(next, event - now_ns);
  }
  return std::max<int64_t>(next, 0);
}

void MicroBatcher::NoteShed(int64_t now_ns) {
  ++shed_count_;
  last_shed_ns_ = now_ns;
  shed_seen_ = true;
  if (degrade_level_ < max_degrade_level_ &&
      (degrade_events_ == 0 ||
       now_ns - last_degrade_ns_ >= options_.degrade_cooldown_ns)) {
    ++degrade_level_;
    ++degrade_events_;
    last_degrade_ns_ = now_ns;
  }
}

void MicroBatcher::MaybeRecover(int64_t now_ns) {
  if (degrade_level_ == 0 || !shed_seen_) return;
  if (now_ns - last_shed_ns_ >= options_.recover_quiet_ns) {
    --degrade_level_;
    ++recover_events_;
    // Each further step up requires its own quiet period.
    last_shed_ns_ = now_ns;
  }
}

}  // namespace dhgcn

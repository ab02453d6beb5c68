#include "loadgen.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "report.h"

namespace perfbench {
namespace {

void SleepUntilNs(int64_t when_ns) {
  const int64_t now = NowNs();
  if (when_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(when_ns - now));
  }
}

}  // namespace

LoadGenerator::LoadGenerator(dhgcn::InferenceServer* server,
                             const std::vector<dhgcn::Tensor>* clips,
                             const std::vector<std::vector<float>>* references,
                             std::vector<int64_t> order, size_t max_requests)
    : server_(server),
      clips_(clips),
      references_(references),
      order_(std::move(order)),
      records_(max_requests),
      slots_(max_requests) {
  for (size_t i = 0; i < max_requests; ++i) {
    slots_[i] = {this, static_cast<int64_t>(i)};
  }
  dhgcn::MutexLock lock(&mu_);
  done_ring_.assign(max_requests, 0);
}

void LoadGenerator::OnDone(void* ctx, const dhgcn::ServeResponse& response) {
  const Slot* slot = static_cast<const Slot*>(ctx);
  LoadGenerator* self = slot->owner;
  RequestRecord& r = self->records_[static_cast<size_t>(slot->index)];
  r.done_ns = NowNs();
  r.code = response.status.code();
  r.queue_ns = response.queue_ns;
  r.total_ns = response.total_ns;
  r.batch_size = response.batch_size;
  if (response.status.ok()) {
    const std::vector<float>& ref =
        (*self->references_)[static_cast<size_t>(r.clip)];
    r.wrong = response.logits.numel() != static_cast<int64_t>(ref.size()) ||
              std::memcmp(response.logits.data(), ref.data(),
                          ref.size() * sizeof(float)) != 0;
  }
  self->PushCompleted(slot->index);
}

void LoadGenerator::PushCompleted(int64_t index) {
  dhgcn::MutexLock lock(&mu_);
  done_ring_[static_cast<size_t>(done_tail_) % done_ring_.size()] = index;
  ++done_tail_;
  cv_.NotifyAll();
}

int64_t LoadGenerator::PopCompleted() {
  ScopedSpan span(tracer_, "loadgen.wait", "loadgen");
  dhgcn::MutexLock lock(&mu_);
  while (done_head_ == done_tail_) cv_.WaitForNanos(&mu_, 10'000'000);
  const int64_t index =
      done_ring_[static_cast<size_t>(done_head_) % done_ring_.size()];
  ++done_head_;
  return index;
}

void LoadGenerator::WaitAllCompleted(int64_t admitted) {
  ScopedSpan span(tracer_, "loadgen.drain", "loadgen");
  dhgcn::MutexLock lock(&mu_);
  while (done_tail_ < admitted) cv_.WaitForNanos(&mu_, 10'000'000);
}

bool LoadGenerator::Send(int64_t index, int64_t due_ns, int64_t deadline_ns) {
  RequestRecord& r = records_[static_cast<size_t>(index)];
  r = RequestRecord();
  r.clip = order_[static_cast<size_t>(next_clip_) % order_.size()];
  ++next_clip_;
  r.due_ns = due_ns;
  dhgcn::SubmitOptions options;
  options.deadline_ns = deadline_ns;
  dhgcn::Status status;
  {
    ScopedSpan span(tracer_, "serve.admit", "serve");
    r.submit_ns = NowNs();
    status = server_->Submit((*clips_)[static_cast<size_t>(r.clip)], options,
                             &LoadGenerator::OnDone,
                             &slots_[static_cast<size_t>(index)]);
    r.admit_ns = NowNs();
  }
  r.admitted = status.ok();
  if (!status.ok()) {
    r.code = status.code();
    return false;
  }
  ++phase_admitted_;
  int64_t completed = 0;
  {
    dhgcn::MutexLock lock(&mu_);
    completed = done_tail_;
  }
  phase_max_in_flight_ =
      std::max(phase_max_in_flight_, phase_admitted_ - completed);
  return true;
}

PhaseRecord LoadGenerator::StartPhase(const char* name) {
  PhaseRecord phase;
  phase.name = name;
  phase.stats_before = server_->Stats();
  phase_admitted_ = 0;
  phase_max_in_flight_ = 0;
  dhgcn::MutexLock lock(&mu_);
  done_head_ = 0;
  done_tail_ = 0;
  return phase;
}

PhaseRecord LoadGenerator::FinishPhase(PhaseRecord phase, int64_t sent) {
  phase.stats_after = server_->Stats();
  phase.max_in_flight = phase_max_in_flight_;
  phase.requests.assign(records_.begin(), records_.begin() + sent);
  return phase;
}

PhaseRecord LoadGenerator::RunOpenLoop(const char* name, double rate,
                                       double seconds, int64_t deadline_ns) {
  PhaseRecord phase = StartPhase(name);
  phase.seconds = seconds;
  const int64_t count = std::min<int64_t>(
      static_cast<int64_t>(rate * seconds), static_cast<int64_t>(records_.size()));
  const double period_ns = 1e9 / rate;
  const int64_t start = NowNs();
  phase.start_ns = start;
  phase.end_ns = start + static_cast<int64_t>(seconds * 1e9);
  int64_t admitted = 0;
  for (int64_t i = 0; i < count; ++i) {
    const int64_t due = start + static_cast<int64_t>(period_ns * static_cast<double>(i));
    {
      ScopedSpan span(tracer_, "loadgen.sleep", "loadgen");
      SleepUntilNs(due);
    }
    if (Send(i, due, deadline_ns)) ++admitted;
  }
  WaitAllCompleted(admitted);
  return FinishPhase(std::move(phase), count);
}

PhaseRecord LoadGenerator::RunClosedLoop(const char* name,
                                         int64_t outstanding, double seconds,
                                         int64_t deadline_ns) {
  PhaseRecord phase = StartPhase(name);
  phase.seconds = seconds;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  phase.start_ns = start;
  phase.end_ns = end;
  const int64_t limit = static_cast<int64_t>(records_.size());
  int64_t sent = 0;
  int64_t in_flight = 0;
  for (; sent < outstanding && sent < limit; ++sent) {
    if (Send(sent, NowNs(), deadline_ns)) ++in_flight;
  }
  while (in_flight > 0) {
    PopCompleted();
    --in_flight;
    const int64_t now = NowNs();
    if (now < end && sent < limit) {
      if (Send(sent, now, deadline_ns)) ++in_flight;
      ++sent;
    }
  }
  return FinishPhase(std::move(phase), sent);
}

PhaseRecord LoadGenerator::RunBurstPair(int64_t count, int64_t stagger_ns,
                                        int64_t deadline_ns) {
  PhaseRecord phase = StartPhase("burst");
  int64_t admitted = 0;
  for (int64_t i = 0; i < 2 * count; ++i) {
    if (i == count) SleepUntilNs(NowNs() + stagger_ns);
    if (Send(i, NowNs(), deadline_ns)) ++admitted;
  }
  WaitAllCompleted(admitted);
  return FinishPhase(std::move(phase), 2 * count);
}

}  // namespace perfbench

#ifndef DHGCN_SERVE_CLOCK_H_
#define DHGCN_SERVE_CLOCK_H_

// lint: allow-wallclock-file — serving deadlines and latency accounting
// are wall-clock by definition. The clock never feeds training state or
// checkpoints, and every policy decision takes `now` as an argument so
// tests drive the FakeServeClock deterministically.

#include <atomic>
#include <chrono>
#include <cstdint>

namespace dhgcn {

/// \brief Monotonic nanosecond clock behind the serving stack.
///
/// All deadline, flush and watchdog decisions read time through this
/// interface, so tests substitute `FakeServeClock` and replay overload /
/// expiry / recovery scenarios without sleeping.
class ServeClock {
 public:
  virtual ~ServeClock() = default;
  virtual int64_t NowNanos() const = 0;

  /// Process-wide steady-clock instance.
  static ServeClock* Real();
};

/// \brief Manually advanced clock for deterministic policy tests.
/// Safe to advance from one thread while server threads read it.
class FakeServeClock : public ServeClock {
 public:
  explicit FakeServeClock(int64_t start_ns = 0) : now_ns_(start_ns) {}

  int64_t NowNanos() const override {
    return now_ns_.load(std::memory_order_acquire);
  }
  void AdvanceNanos(int64_t delta_ns) {
    now_ns_.fetch_add(delta_ns, std::memory_order_acq_rel);
  }
  void AdvanceMillis(int64_t delta_ms) { AdvanceNanos(delta_ms * 1000000); }

 private:
  std::atomic<int64_t> now_ns_;
};

class RealServeClock : public ServeClock {
 public:
  int64_t NowNanos() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

}  // namespace dhgcn

#endif  // DHGCN_SERVE_CLOCK_H_

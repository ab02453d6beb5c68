#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "plan/plan_runner.h"

namespace perfbench {

/// One timed interval. Spans on the benchmark's driving thread nest
/// (`parent` is the enclosing span's index, -1 for a root) and form the
/// additive self-time tree; request spans (`request >= 0`) come from
/// server completions, overlap freely and stay outside that tree.
struct Span {
  const char* name = "";
  /// Module the span's time is charged to (data, model, nn, core,
  /// kernels, plan, serve, io, loadgen, bench).
  const char* layer = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t request = -1;
};

/// In-memory span recorder. Spans are kept in a vector reserved up
/// front and written out once, after the measured work.
///
/// Not thread-safe: every call comes from the driving thread (request
/// spans are added there too, from completion records).
class Tracer {
 public:
  explicit Tracer(size_t reserve_spans);

  /// Opens a span nested in the innermost open one.
  int32_t Begin(const char* name, const char* layer);
  void End(int32_t span);
  /// Adds a closed span that was timed elsewhere, nested in the
  /// innermost open one (plan-op spans from the PlanRunner observer).
  void AddChild(const char* name, const char* layer, int64_t start_ns,
                int64_t end_ns);
  /// Adds one request-scoped span (outside the self-time tree).
  void AddRequestSpan(const char* name, int64_t request, int64_t start_ns,
                      int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ms) of every nested span with this name, in order.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Self time (ms) summed per layer over the nested spans: each span's
  /// duration minus the time its children cover. The values add up to
  /// the summed duration of the root spans.
  std::map<std::string, double> SelfMsByLayer() const;
  /// Summed duration (ms) of the root spans.
  double RootMs() const;

  /// Writes Chrome Trace Event JSON (Perfetto / chrome://tracing):
  /// nested spans as complete ("X") events on tid 1 with their parent
  /// index in args, request spans as async ("b"/"e") events keyed by
  /// request id. Returns false when the file cannot be written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::vector<double> SelfMs() const;

  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  int64_t origin_ns_;
};

/// RAII span on the driving thread; does nothing when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* layer)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, layer) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Times every op of a PlanRunner's replays from outside, as spans
/// nested in the innermost open span: the runner's observer fires after
/// the input copy-in and after every op, so consecutive callbacks bracket
/// one op each. Span names are "op.<PlanOpKindName>"; hypergraph ops are
/// charged to layer "core", the rest to "kernels".
class OpClock {
 public:
  /// Installs itself as `runner`'s observer; must outlive its replays.
  OpClock(Tracer* tracer, dhgcn::PlanRunner* runner);
  OpClock(const OpClock&) = delete;
  OpClock& operator=(const OpClock&) = delete;
  /// Call before each Run().
  void StartRun() { calls_ = 0; }

 private:
  void OnSlot();

  Tracer* tracer_;
  const dhgcn::ExecutionPlan* plan_;
  int64_t calls_ = 0;
  int64_t last_ns_ = 0;
};

/// Adds `op.<kind>.ms.{p50,tail,n}` for the op kinds the benchmark
/// follows.
struct RunResult;
void AddOpMetrics(const Tracer& tracer, RunResult* result);

/// Adds one `self.<layer>.ms` metric per layer that has spans, plus
/// trace.e2e_ms and trace.spans, and prints them as a table; fails the
/// run when the self-times do not add up to the root spans' duration.
void AddSelfTimeTable(const Tracer& tracer, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

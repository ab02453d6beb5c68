// Fixture: every rule violated once, every violation justified — the
// self-test asserts this file produces zero findings.
// lint: allow-throw-file — exercising the file-level escape hatch.
#include <chrono>
#include <mutex>
#include <stdexcept>

namespace dhgcn {

int SideEffect();

void Run() {
  if (SideEffect() < 0) throw std::runtime_error("file-level allow");
  // lint: allow-discard — called for its side effect only.
  (void)SideEffect();
  // lint: allow-naked-new — fixture for the adjacent-line escape hatch.
  float* buffer = new float[4];
  delete[] buffer;
  // lint: allow-wallclock — wall-clock time never reaches training state.
  auto t0 = std::chrono::steady_clock::now();
  (void)t0;
  // lint: allow-thread — fixture exercising the thread-rule escape hatch.
  // lint: allow-mutex-wrap — same line also trips the raw-lock-type rule.
  static std::mutex escape_mu;
  escape_mu.lock();
  escape_mu.unlock();
  // lint: allow-simd — fixture exercising the simd-rule escape hatch.
  int supports_avx = __builtin_cpu_supports("avx");
  // lint: allow-simd — int8 vector-register token behind the same hatch.
  __m256i wide = {};
  if (supports_avx < 0 || sizeof(wide) == 0) SideEffect();
}

class Tensor;
class Workspace;
void Consume(const Tensor& t);

// Never compiled, only linted: both ws-lifetime shapes, each escaped.
struct PinnedSlots {
  void Rebuild(Workspace& arena) {
    // lint: allow-ws-lifetime — pinned arena, offsets stable across Reset.
    slot_ = arena.BorrowAt(0, {4, 4});
  }
  Tensor slot_;
};

void WsLifetimeEscape(Workspace& ws) {
  auto tile = ws.Acquire({8});
  ws.Reset();
  // lint: allow-ws-lifetime — fixture: stale use, explicitly escaped.
  Consume(tile);
}

// lint: allow-fwd-bwd-pair-file — inference-only layer, no backward.
class InferenceOnlyLayer {
 private:
  Tensor ForwardImpl(const Tensor& input, Workspace* ws);
};

}  // namespace dhgcn

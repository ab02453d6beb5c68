// Negative fixture: MUST NOT compile under
// `-Wthread-safety -Wthread-safety-beta -Werror` (registered with
// WILL_FAIL in CTest). Acquires two mutexes against their declared
// DHGCN_ACQUIRED_BEFORE order — the static form of a lock-order
// inversion, which any code that nests two mutexes would declare.
// Note the -beta flag is what enables the ordering checks; if this
// fixture compiles, lock-order verification has silently turned off.
#include "base/thread_annotations.h"

namespace {

class Ordered {
 public:
  void AcquireInOrder() {
    dhgcn::MutexLock outer(&first_);
    dhgcn::MutexLock inner(&second_);
  }

  void AcquireInverted() {
    dhgcn::MutexLock outer(&second_);
    dhgcn::MutexLock inner(&first_);  // violates first_ -> second_: error
  }

 private:
  dhgcn::Mutex first_ DHGCN_ACQUIRED_BEFORE(second_);
  dhgcn::Mutex second_;
};

}  // namespace

int main() {
  Ordered o;
  o.AcquireInOrder();
  o.AcquireInverted();
  return 0;
}

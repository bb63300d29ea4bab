// Lint fixture control: idiomatic sy:: locking that must lint clean —
// scoped critical sections, declared-order nesting (out-buffer before
// inbox, the engine.out -> net.inbox edge of docs/LOCK_ORDER.md),
// balanced manual Lock/Unlock.
#include "common/mutex.h"

namespace lint_fixture {

struct Inbox {
  sy::Mutex mu;
  int depth = 0;
};

struct OutBuffer {
  sy::Mutex mu;
  int pending = 0;
};

class GoodSender {
 public:
  void Flush(OutBuffer* out, Inbox* inbox) {
    sy::MutexLock out_lock(&out->mu);
    {
      sy::MutexLock lock(&inbox->mu);
      inbox->depth += out->pending;
    }
    out->pending = 0;
  }

  void ManualPair(OutBuffer* out) {
    out->mu.Lock();
    ++out->pending;
    out->mu.Unlock();
  }
};

}  // namespace lint_fixture

// Lint fixture: nested acquisition inverting the declared edge
// engine.out -> net.inbox (docs/LOCK_ORDER.md): an out-buffer lock taken
// while holding an inbox lock. Expected: [lock-order] at the inner lock.
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

void Drain(Inbox* inbox, OutBuffer* out) {
  sy::MutexLock lock(&inbox->mu);
  {
    sy::MutexLock out_lock(&out->mu);  // planted inversion
    out->pending += inbox->depth;
  }
  inbox->depth = 0;
}

}  // namespace lint_fixture

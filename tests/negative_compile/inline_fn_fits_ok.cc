// Control case for inline_fn_oversize.cc: a closure with DriveSet's
// dispatch-completion captures (the drive set, the slot, the dispatched
// QueuedRequest, the chosen LBA, the prediction) passes the same
// DiskCompletionFn::FitsInline guard the real site asserts. If this file
// fails, QueuedRequest itself has outgrown the buffer.
#include "src/disk/sim_disk.h"
#include "src/sched/queued_request.h"
#include "src/util/strong_types.h"

int main() {
  using mimdraid::DiskCompletionFn;
  using mimdraid::DiskOpResult;
  int engine = 0;
  int* self = &engine;
  const mimdraid::SlotId slot(1);
  mimdraid::QueuedRequest entry;
  const mimdraid::BlockAddr chosen_lba(8);
  const double predicted = 1.0;
  auto done = [self, slot, entry = std::move(entry), chosen_lba,
               predicted](const DiskOpResult&) {
    (void)self;
    (void)slot;
    (void)entry;
    (void)chosen_lba;
    (void)predicted;
  };
  static_assert(DiskCompletionFn::FitsInline<decltype(done)>,
                "dispatch completion closure outgrew DiskCompletionFn");
  DiskCompletionFn fn(std::move(done));
  return fn ? 0 : 1;
}

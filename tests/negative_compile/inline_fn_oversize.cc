// Negative-compile case: DriveSet's dispatch-completion closure with 48 more
// bytes of capture — what QueuedRequest growing by one resolved position per
// entry would do — must fail the FitsInline guard instead of silently
// moving every disk op's completion onto the heap. (The real-size closure
// passes; see inline_fn_fits_ok.cc.)
#include "src/disk/sim_disk.h"
#include "src/sched/queued_request.h"
#include "src/util/strong_types.h"

int main() {
  using mimdraid::DiskCompletionFn;
  using mimdraid::DiskOpResult;
  struct Extra {
    unsigned char bytes[48];
  };
  int engine = 0;
  int* self = &engine;
  const mimdraid::SlotId slot(1);
  mimdraid::QueuedRequest entry;
  const mimdraid::BlockAddr chosen_lba(8);
  const double predicted = 1.0;
  const Extra extra{};
  auto done = [self, slot, entry = std::move(entry), chosen_lba, predicted,
               extra](const DiskOpResult&) {
    (void)self;
    (void)slot;
    (void)entry;
    (void)chosen_lba;
    (void)predicted;
    (void)extra;
  };
  // expected error: static assertion failed
  static_assert(DiskCompletionFn::FitsInline<decltype(done)>,
                "dispatch completion closure outgrew DiskCompletionFn");
  return 0;
}

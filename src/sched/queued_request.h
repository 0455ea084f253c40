// A request queued at one physical drive.
//
// The Disk Configuration Layer translates a logical I/O into per-drive
// entries. On an SR-Array disk a read carries the LBAs of all Dr rotational
// replicas as candidates; the replica-aware schedulers (RLOOK, RSATF) choose
// among them at dispatch time. Plain schedulers use the first candidate. By
// construction all candidates of one entry live on the same cylinder (the
// replicas of a block share a cylinder, on different tracks) — but note the
// invariant is not absolute: a latent-bad-sector remap relocates a replica
// to zone spare space, possibly on another cylinder, so per-entry shortcuts
// keyed off one candidate's cylinder are unsound (schedulers bound costs per
// replica for exactly this reason).
//
// DriveSet resolves every candidate's position when it queues the entry, so
// scheduler picks do not re-translate the same LBAs on every dispatch
// (DESIGN.md §5). The positions live inside the candidate vector the entry
// already owns: the entry itself does not grow, which keeps DriveSet's
// dispatch-completion closure inside DiskCompletionFn's inline buffer.
#ifndef MIMDRAID_SRC_SCHED_QUEUED_REQUEST_H_
#define MIMDRAID_SRC_SCHED_QUEUED_REQUEST_H_

#include <cstdint>
#include <vector>

#include "src/disk/access_predictor.h"
#include "src/disk/sim_disk.h"
#include "src/util/time.h"

namespace mimdraid {

struct QueuedRequest {
  uint64_t id = 0;
  DiskOp op = DiskOp::kRead;
  uint32_t sectors = 0;
  std::vector<AccessCandidate> candidates;
  SimTime arrival_us;
  // Background replica propagation (serviced only when the foreground queue
  // is empty; see Section 3.4).
  bool delayed = false;
  // Calibration-maintenance access (periodic reference-sector read).
  bool maintenance = false;
  // Array-layer correlation handle (fragment key; 0 for delayed/maintenance).
  uint64_t tag = 0;
  // Recovery attempts already spent on the work this entry carries; a retry
  // mints a fresh entry (fresh id, so queue conservation holds) with
  // attempts + 1.
  uint32_t attempts = 0;
};

// Resolves every candidate of `entry` against `layout` (the layout of the
// drive whose queue it joins). A layout with remaps leaves the candidates
// unresolved: such a position would never be Current().
inline void ResolveCandidates(const DiskLayout& layout, QueuedRequest& entry) {
  if (layout.has_remaps()) {
    return;
  }
  for (AccessCandidate& c : entry.candidates) {
    c.pos = layout.Resolve(c.lba.value());
  }
}

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_SCHED_QUEUED_REQUEST_H_

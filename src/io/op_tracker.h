// The logical-op lifecycle every array backend runs. A backend splits each
// logical I/O into parts (fragments) that finish in any order; the tracker
// reports the op's arrival to the collector, counts its parts down, and on
// the last one tallies the completion, reports it with the final leg, and
// runs the submitter's `done`. Records live in a HandleSlab, so a steady
// stream of ops allocates nothing here.
//
// Final-leg rule: the leg reported is the one the last part brought; a last
// part that finished without a disk op (an unrecoverable fragment) reports
// none, even when earlier parts had one.
#ifndef MIMDRAID_SRC_IO_OP_TRACKER_H_
#define MIMDRAID_SRC_IO_OP_TRACKER_H_

#include <cstdint>
#include <utility>

#include "src/disk/sim_disk.h"
#include "src/io/array_backend.h"
#include "src/obs/trace_collector.h"
#include "src/sim/io_status.h"
#include "src/util/check.h"
#include "src/util/handle_slab.h"

namespace mimdraid {

// Where finished ops are tallied: the backend's read/write completion
// counters and the engine's unrecoverable-completion count. Borrowed; each
// must outlive the tracker.
struct OpTally {
  uint64_t* reads_completed = nullptr;
  uint64_t* writes_completed = nullptr;
  uint64_t* unrecoverable_completions = nullptr;
};

// The final leg of disk op `r`, whose queue entry arrived at
// `entry_arrival_us`.
inline FinalLeg LegOf(SimTime entry_arrival_us, const DiskOpResult& r) {
  FinalLeg leg;
  leg.entry_arrival_us = entry_arrival_us;
  leg.disk_start_us = r.start_us;
  leg.overhead_us = r.overhead_us;
  leg.seek_us = r.seek_us;
  leg.rotational_us = r.rotational_us;
  leg.transfer_us = r.transfer_us;
  return leg;
}

class OpTracker {
 public:
  using DoneFn = ArrayBackend::DoneFn;

  // `collector` may be null (no tracing).
  OpTracker(TraceCollector* collector, OpTally tally)
      : collector_(collector), tally_(tally) {}

  // Opens an op of `parts` parts (at least one) that arrived at
  // `arrival_us`: reports the arrival under the next op id and returns the
  // op's handle.
  [[nodiscard]] uint64_t Begin(DiskOp op, uint64_t lba, uint32_t sectors,
                               uint32_t parts, SimTime arrival_us,
                               DoneFn done) {
    const uint64_t id = next_op_id_++;
    if (collector_ != nullptr) {
      collector_->OnRequestArrival(id, op == DiskOp::kWrite, lba, sectors,
                                   arrival_us);
    }
    const uint64_t handle = ops_.Acquire();
    Op& rec = ops_[handle];
    rec.id = id;
    rec.op = op;
    rec.parts = parts;
    rec.status = IoStatus::kOk;
    rec.recovery_attempts = 0;
    rec.done = std::move(done);
    return handle;
  }

  // The op gained a part (a part was split in two).
  void AddPart(uint64_t handle) { ++ops_[handle].parts; }

  // Counts one retry, failover or re-plan spent on the op; a no-op once the
  // op has completed.
  void NoteRecovery(uint64_t handle) {
    if (Op* rec = ops_.Find(handle)) {
      ++rec->recovery_attempts;
    }
  }

  // One part finished at `completion_us` with `status` (kOk, or the part
  // could not be served); `leg` is the disk op that finished it, nullptr
  // when none did. The last part completes the op: kOk when every part was,
  // kUnrecoverable otherwise.
  void PartDone(uint64_t handle, IoStatus status, SimTime completion_us,
                const FinalLeg* leg) {
    Op& rec = ops_[handle];
    if (status != IoStatus::kOk) {
      rec.status = IoStatus::kUnrecoverable;
    }
    MIMDRAID_CHECK_GT(rec.parts, 0u);
    if (--rec.parts > 0) {
      return;
    }
    IoResult out;
    out.status = rec.status;
    out.completion_us = completion_us;
    out.recovery_attempts = rec.recovery_attempts;
    if (out.status != IoStatus::kOk) {
      ++*tally_.unrecoverable_completions;
    } else if (rec.op == DiskOp::kRead) {
      ++*tally_.reads_completed;
    } else {
      ++*tally_.writes_completed;
    }
    if (collector_ != nullptr) {
      collector_->OnRequestComplete(rec.id, out.status, out.completion_us,
                                    out.recovery_attempts, leg);
    }
    DoneFn done = std::move(rec.done);
    ops_.Release(handle);
    if (done) {
      done(out);
    }
  }

  // No op outstanding.
  bool empty() const { return ops_.empty(); }

 private:
  struct Op {
    uint64_t id = 0;  // the collector's request id
    DiskOp op = DiskOp::kRead;
    uint32_t parts = 0;  // parts still outstanding
    IoStatus status = IoStatus::kOk;
    uint32_t recovery_attempts = 0;
    DoneFn done;
  };

  TraceCollector* collector_;
  OpTally tally_;
  // Op ids stay a running counter: the collector reports them.
  uint64_t next_op_id_ = 1;
  HandleSlab<Op> ops_;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_IO_OP_TRACKER_H_

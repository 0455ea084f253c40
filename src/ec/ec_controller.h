// General (k+m) erasure-coded array controller: Reed-Solomon/Cauchy coding
// over GF(2^8), degraded reads via matrix-inversion reconstruction,
// multi-fault tolerance up to m concurrent failures with multi-slot rebuild,
// and per-request parity-update strategy selection (read-modify-write vs
// reconstruct-write).
//
// This is the parity ArrayBackend and the capacity-efficient end of the
// paper's frontier: RAID-5 is the k+1 case (an EcLayout under the kRaid5
// scheme), k+2 is RAID-6, larger m buys tolerance of m concurrent failures at
// k/(k+m) capacity efficiency. It is a pure policy layer: the per-drive
// machinery — scheduler queues, dispatch, fault counting, auto-fail,
// hot-spare promotion, the scrub timer, observer wiring — lives in the shared
// DriveSet engine, which routes every sub-op's completion back here; bounded
// command retry, failover and repair are this controller's decisions.
//
// Write planning: for a fragment targeting data shard D with p <= m live
// parity columns, read-modify-write costs (1 + p) reads + (1 + p) writes
// (old data + old parities in, deltas out) and needs D readable;
// reconstruct-write costs (k - 1) reads when every other data column is
// readable, or k reads through an arbitrary decode set otherwise, plus the
// same writes. Under the kRotated scheme the controller prices both and takes
// the cheaper plan, tied toward RMW. Under kRaid5 it keeps RAID-5's rule:
// with D readable, reconstruct-write only a full-unit fragment whose sibling
// data units are all readable, read-modify-write anything else. With fewer
// than k readable columns and no RMW path the fragment completes with
// IoStatus::kUnrecoverable — never a crash.
//
// Rebuild: slots queue. One slot rebuilds at a time (row by row through a
// k-column decode set); further failed slots whose spares promote while a
// rebuild streams wait in FIFO order and are served degraded until their
// turn. Up to m concurrent failures stay fully serviceable throughout.
#ifndef MIMDRAID_SRC_EC_EC_CONTROLLER_H_
#define MIMDRAID_SRC_EC_EC_CONTROLLER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/disk/access_predictor.h"
#include "src/disk/sim_disk.h"
#include "src/ec/ec_layout.h"
#include "src/ec/gf256.h"
#include "src/io/array_backend.h"
#include "src/io/drive_set.h"
#include "src/io/op_tracker.h"
#include "src/obs/trace_collector.h"
#include "src/sched/scheduler.h"
#include "src/sim/auditor.h"
#include "src/sim/fault_injector.h"
#include "src/sim/io_status.h"
#include "src/sim/simulator.h"
#include "src/stats/fault_stats.h"
#include "src/util/handle_slab.h"

namespace mimdraid {

struct EcControllerStats {
  uint64_t reads_completed = 0;
  uint64_t writes_completed = 0;
  // Strategy counts (every write fragment lands in exactly one):
  uint64_t rmw_writes = 0;          // parity delta from old data + old parity
  uint64_t reconstruct_writes = 0;  // parity recomputed from the data columns
  uint64_t degraded_reads = 0;      // served through a decode set
  // Write fragments planned around at least one unusable row member (counted
  // in addition to the strategy tally above).
  uint64_t degraded_writes = 0;
  uint64_t rebuilt_rows = 0;
};

class EcController : public ArrayBackend, private DriveSetClient {
 public:
  using DoneFn = ArrayBackend::DoneFn;

  // `codec` and `layout` are borrowed and must outlive the controller;
  // codec->n() must equal layout->num_disks() and codec->k() the layout's
  // data_shards(). `options` configure the engine; the policy itself has no
  // settings.
  EcController(Simulator* sim, std::vector<SimDisk*> disks,
               std::vector<AccessPredictor*> predictors,
               const EcLayout* layout, const EcCodec* codec,
               const DriveSetOptions& options);

  EcController(const EcController&) = delete;
  EcController& operator=(const EcController&) = delete;

  ~EcController() override;

  void Submit(DiskOp op, uint64_t lba, uint32_t sectors, DoneFn done) override;

  // Logical capacity (parity excluded): rows * k * unit.
  uint64_t dataset_sectors() const override {
    return layout_->data_capacity_sectors();
  }

  // Marks a disk failed. Up to m concurrent losses are survived: reads
  // decode through any k live columns, writes re-plan around the missing
  // members. Past m, affected fragments complete with
  // IoStatus::kUnrecoverable instead of crashing. Always returns true: every
  // single loss is covered by the code.
  bool FailDisk(SlotId disk) override;
  bool IsFailed(SlotId disk) const override { return drives_->failed(disk); }

  // Reconstructs the (replaced) failed disk row by row through a k-column
  // decode set. When another rebuild is already streaming the slot queues
  // and starts when its turn comes; `done` fires when that slot's pass ends
  // (kOk fully restored, kUnrecoverable rows were lost, kDiskFailed the
  // replacement died mid-rebuild).
  void Rebuild(SlotId disk, DoneFn done) override;
  bool RebuildInProgress() const override { return rebuilding_disk_ >= 0; }

  void AddSpare(SimDisk* disk, AccessPredictor* predictor) override {
    drives_->AddSpare(disk, predictor);
  }
  size_t spares_available() const override {
    return drives_->spares_available();
  }

  const EcControllerStats& stats() const { return stats_; }
  const FaultRecoveryStats& fault_stats() const override {
    return drives_->fstats();
  }
  const EcLayout& layout() const { return *layout_; }
  const EcCodec& codec() const { return *codec_; }
  bool Idle() const override;

  // Publishes "fault.*" and backend counters: "raid5.*" under the kRaid5
  // scheme, "ec.*" otherwise.
  void ExportStats(StatsRegistry* registry) const override;

  void StopScrub() override { drives_->StopScrub(); }
  void StartScrub() override { drives_->StartScrub(); }

  void AuditQuiescent() const override;

 private:
  // Test access to the fragment slab (tests/fault_injection_test.cc).
  friend class EcControllerTestPeer;

  // One plan of one logical fragment moving through its phases (reads, then
  // writes). Held in frags_ and named by a slab handle that every sub-op
  // closure of the plan carries. A re-plan (disk failure or media-error
  // fallback) releases the handle and plans afresh under a new one, so the
  // old plan's sub-ops still in flight find nothing when they complete.
  struct FragWork {
    uint64_t op_handle = 0;  // the owning op in ops_
    EcFragment frag;
    DiskOp op = DiskOp::kRead;
    int phase_remaining = 0;  // read-phase sub-ops still out
    int writes_remaining = 0;  // write-phase sub-ops still out
    // Plan as if the data disk's old contents were unreadable (a media error
    // exhausted its retry budget).
    bool force_degraded = false;
    // After a media-error read is served via reconstruction, rewrite the bad
    // sectors so the drive reallocates them.
    bool repair_pending = false;
    // kOk, or kUnrecoverable once a sub-op's loss cannot be planned around.
    IoStatus status = IoStatus::kOk;
  };

  // The rebuild row in flight: its decode reads still out and what they saw.
  // A pass rebuilds one row at a time and passes run one at a time, so one
  // record serves every row.
  struct RebuildRow {
    int reads_remaining = 0;
    bool lost = false;         // a decode read failed
    bool column_died = false;  // ... because its drive fail-stopped
  };

  struct QueuedRebuild {
    SlotId slot;
    DoneFn done;
  };

  // --- DriveSetClient hooks ---
  // Every sub-op is an engine command; raw entries never reach the policy.
  void OnEntryComplete(SlotId disk, const QueuedRequest& entry,
                       BlockAddr chosen_lba,
                       const DiskOpResult& result) override;
  void OnSlotFailed(SlotId disk, std::vector<QueuedRequest> drained) override;
  // Promotion keeps the engine default (always allowed): a promotion during
  // a rebuild queues behind it instead of clobbering the rebuild cursor.
  uint64_t UsedSpanSectors(SlotId disk) const override;
  void OnSparePromoted(SlotId disk) override;
  bool ScrubEligible() const override;
  // One scrub chunk: reads every usable unit of the next stripe row.
  void ScrubStep() override;

  void SubmitReadFragment(uint64_t op_handle, const EcFragment& frag,
                          bool force_degraded = false,
                          bool repair_on_success = false);
  void SubmitWriteFragment(uint64_t op_handle, const EcFragment& frag,
                           bool force_degraded = false);
  // Claims a fresh plan record for one fragment of `op_handle`.
  uint64_t NewPlan(uint64_t op_handle, const EcFragment& frag, DiskOp op,
                   bool force_degraded, int phase_remaining);
  // A sub-op of a released plan completed: closes its fault record, if any.
  void DropStaleResult(const DiskOpResult& r, uint64_t id);
  // Releases `key`'s plan and plans the fragment again (counted as a
  // recovery attempt of its op).
  void Replan(uint64_t key, bool force_degraded, bool repair_on_success);
  // Queues one sub-op on the foreground queue with bounded retry. `done` is
  // any `void(const DiskOpResult&, uint64_t id)` callable; taking it by type
  // keeps the retry wrapper inside CommandDoneFn's inline buffer.
  template <typename Fn>
  void EnqueueDiskOp(uint32_t disk, DiskOp op, uint64_t lba, uint32_t sectors,
                     Fn done, uint32_t attempts = 0);
  void FragmentPhaseDone(uint64_t key, FragWork& work,
                         const DiskOpResult* last = nullptr);
  // Releases `key`'s plan and finishes its part of the op; `last` is the
  // sub-op that finished it, nullptr when none did.
  void FinishFragment(uint64_t key, const DiskOpResult* last);
  // Finishes a fragment no plan can serve: its part of the op completes
  // kUnrecoverable at the next event-queue turn.
  void CompleteFragmentFailed(uint64_t op_handle);

  void StartRebuild(SlotId disk, DoneFn done);
  void FinishRebuild(IoStatus status);
  void AbortRebuild(uint32_t disk);
  void RebuildNextRow();

  // True if the disk holds valid row data right now (alive, not waiting in
  // the rebuild queue, and — when it is the active rebuild target — already
  // rebuilt past the row).
  bool DiskUsable(uint32_t disk, uint32_t row) const;
  // Columns of `row` whose old contents are readable for decode purposes,
  // in ascending disk order, excluding `excluding_disk` (pass num_disks()
  // to exclude none). `unreadable_disk` marks a disk whose drive is alive
  // but whose unit for this row cannot be read (media-error fallback).
  std::vector<uint32_t> ReadableColumns(uint32_t row, uint32_t excluding_disk,
                                        uint32_t unreadable_disk) const;

  FaultRecoveryStats& fstats() { return drives_->fstats(); }

  Simulator* sim_;
  const EcLayout* layout_;
  const EcCodec* codec_;
  InvariantAuditor* auditor_ = nullptr;

  std::unique_ptr<DriveSet> drives_;
  // Logical ops in flight; each fragment is one part.
  OpTracker ops_;
  HandleSlab<FragWork> frags_;

  // Active rebuild: rows < rebuilt_rows_ of rebuilding_disk_ are valid.
  int rebuilding_disk_ = -1;
  uint32_t rebuilt_rows_ = 0;
  DoneFn rebuild_done_;
  uint64_t rebuild_rows_lost_ = 0;
  // Slots waiting for the active rebuild to finish. Queued slots stay marked
  // failed (their promoted spare holds no data yet), so service keeps
  // decoding around them until their pass starts.
  std::deque<QueuedRebuild> rebuild_queue_;
  RebuildRow rebuild_row_;

  uint32_t scrub_cursor_ = 0;  // next stripe row to sweep

  EcControllerStats stats_;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_EC_EC_CONTROLLER_H_

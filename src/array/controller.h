// The Disk Configuration + Scheduling layers of the prototype (Sections 3.1,
// 3.3, 3.4): translates logical array I/O into per-drive queue entries,
// implements the mirror read heuristic (idle-closest dispatch,
// duplicate-and-cancel when busy), and propagates write replicas in the
// background through per-disk delayed-write queues backed by an NVRAM
// metadata table with a force-out threshold.
//
// The per-drive machinery — scheduler queues, the dispatch loop, fault
// counting, auto-fail, hot-spare promotion, the scrub timer, observer
// wiring — lives in the shared DriveSet engine (src/io/drive_set.h); this
// class is the mirror *policy* over that engine and one of the two
// ArrayBackend implementations. Foreground fragments and replica
// propagations are raw engine entries (multi-candidate, duplicated and
// cancelled at dispatch, NVRAM-backed); rebuild copies, scrub reads and
// recalibration reads are engine commands whose callbacks carry their own
// recovery. Either way the engine only routes the completion: every retry,
// failover and repair decision is made here.
#ifndef MIMDRAID_SRC_ARRAY_CONTROLLER_H_
#define MIMDRAID_SRC_ARRAY_CONTROLLER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/array/array_layout.h"
#include "src/array/nvram_table.h"
#include "src/calib/predictor.h"
#include "src/disk/access_predictor.h"
#include "src/disk/sim_disk.h"
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
#include "src/util/flat_map.h"
#include "src/util/handle_slab.h"

namespace mimdraid {

struct ArrayControllerOptions {
  // The mirror schedules with RSATF by default (the engine's own default is
  // SATF).
  ArrayControllerOptions() { engine.scheduler = SchedulerKind::kRsatf; }

  // The per-drive engine's settings.
  DriveSetOptions engine;
  // NVRAM delayed-write metadata table capacity; above this, pending delayed
  // writes are forced into the foreground queues (Section 3.4).
  size_t delayed_table_limit = 10'000;
  // Period of maintenance reference-sector reads feeding re-calibration
  // (paper: two minutes). 0 disables.
  SimDuration recalibration_interval_us;
  // When true, every replica of a write is written in the foreground and the
  // write completes only after all copies land (the "foreground propagation"
  // mode of Figures 5 and 13). When false, the write completes after the
  // first copy; the rest propagate in the background.
  bool foreground_write_propagation = false;
};

struct ArrayStats {
  uint64_t reads_completed = 0;
  uint64_t writes_completed = 0;
  uint64_t delayed_writes_completed = 0;
  uint64_t delayed_writes_forced = 0;   // moved to FG by the table limit
  uint64_t delayed_writes_discarded = 0;  // superseded by a newer write
  uint64_t read_duplicates_cancelled = 0;
  uint64_t recalibration_reads = 0;  // reference-sector reads completed
  uint64_t parked_reads = 0;  // reads ordered behind an in-flight write
  // Reads served while every replica carried a stale marker (possible only
  // under partially overlapping unaligned writes; see SubmitReadFragment).
  uint64_t stale_fallback_reads = 0;
};

class ArrayController : public ArrayBackend, private DriveSetClient {
 public:
  // Completion carries a full IoResult: kOk, or kUnrecoverable when every
  // recovery avenue (retry, replica failover, repair) is exhausted. The
  // intermediate statuses (kMediaError/kTimeout/kDiskFailed) are absorbed by
  // the recovery machinery and never surface here.
  using DoneFn = ArrayBackend::DoneFn;

  // `disks` and `predictors` are parallel arrays of size
  // layout->num_disks(); the controller borrows them.
  ArrayController(Simulator* sim, std::vector<SimDisk*> disks,
                  std::vector<AccessPredictor*> predictors,
                  const ArrayLayout* layout,
                  const ArrayControllerOptions& options);

  ArrayController(const ArrayController&) = delete;
  ArrayController& operator=(const ArrayController&) = delete;

  // Cancels pending maintenance timers. The controller must be idle (no
  // in-flight disk operation holds a completion callback into it).
  ~ArrayController() override;

  // Submits a logical I/O. `done` fires at the simulated completion time
  // (first-copy time for writes unless foreground propagation is on).
  void Submit(DiskOp op, uint64_t lba, uint32_t sectors, DoneFn done) override;

  const ArrayStats& stats() const { return stats_; }
  const ArrayLayout& layout() const { return *layout_; }
  uint64_t dataset_sectors() const override {
    return layout_->dataset_sectors();
  }

  // Outstanding foreground entries across all drive queues (dispatched
  // requests excluded).
  size_t TotalQueued() const {
    return drives_->TotalQueued(DriveSet::Queue::kForeground);
  }
  // Pending background replica propagations (the NVRAM table occupancy).
  size_t DelayedBacklog() const { return nvram_.size(); }
  // The delayed-write metadata table (what NVRAM preserves across a crash).
  const NvramTable& nvram() const { return nvram_; }
  // Crash recovery (Section 3.4): re-queues the propagation of every replica
  // recorded in a surviving NVRAM snapshot. Call on a freshly constructed
  // controller before offering load.
  void RestorePropagations(const std::vector<NvramEntry>& entries);
  size_t QueueDepth(uint32_t disk) const {
    return drives_->QueueDepth(SlotId(disk));
  }
  bool Idle() const override;

  // Runs the auditor's terminal consistency check (queues, NVRAM table,
  // stale markers, parked reads and the waiter index must all be empty).
  // Call once the array reports Idle(); a no-op when no auditor is attached.
  void AuditQuiescent() const override;

  // --- Disk failure and rebuild (the Section 2.5 reliability argument). ---
  // Marks a disk failed. Every block with a surviving copy (Dm >= 2, or
  // pending same-data replicas elsewhere) keeps being served; returns false
  // if the configuration cannot tolerate the loss (Dm == 1: an SR-Array
  // column has no cross-disk copy — data loss). The array must be quiescent
  // on that disk (no in-flight command).
  bool FailDisk(SlotId disk) override;
  bool IsFailed(SlotId disk) const override { return drives_->failed(disk); }
  // Re-populates a replaced disk from its mirror twins, fragment stream by
  // fragment stream; `done` fires when redundancy is restored. Requires
  // Dm >= 2.
  void RebuildDisk(uint32_t disk, DoneFn done);
  void Rebuild(SlotId disk, DoneFn done) override {
    RebuildDisk(disk.value(), std::move(done));
  }
  uint64_t rebuild_copied_fragments() const { return rebuild_copied_; }
  // True from RebuildDisk until that stream's `done` is about to fire, for
  // every stream (rebuilds of different slots may run side by side).
  bool RebuildInProgress() const override { return !rebuilds_.empty(); }

  // --- Hot spares and fault recovery. ---
  // Registers a standby drive (and its predictor) the controller may promote
  // into a failed slot. Borrowed; must outlive the controller. The spare is
  // wired to the auditor/injector only on promotion.
  void AddSpare(SimDisk* disk, AccessPredictor* predictor) override {
    drives_->AddSpare(disk, predictor);
  }
  size_t spares_available() const override {
    return drives_->spares_available();
  }
  const FaultRecoveryStats& fault_stats() const override {
    return drives_->fstats();
  }

  // Publishes "fault.*" and "array.*" counters.
  void ExportStats(StatsRegistry* registry) const override;

  // Cancels the periodic scrub timer (in-flight scrub reads drain normally).
  // Call before draining to quiescence; the destructor also cancels it.
  void StopScrub() override { drives_->StopScrub(); }
  // Re-arms the timer; the next step resumes from scrub_cursor_ as it stood.
  void StartScrub() override { drives_->StartScrub(); }

 private:
  // Test access to the fragment slab (tests/fault_injection_test.cc).
  friend class ArrayControllerTestPeer;

  // One fragment of a logical op, from Map until its completion. Held in
  // frags_ and named by a slab handle (QueuedRequest::tag, retry closures);
  // a recycled slot keeps its vectors' capacity.
  struct FragState {
    uint64_t op_handle = 0;  // the owning op in ops_
    uint64_t logical_lba = 0;
    uint32_t sectors = 0;
    DiskOp op = DiskOp::kRead;
    std::vector<ReplicaLocation> replicas;
    uint32_t entries_remaining = 0;  // FG entries that must still complete
    // Entries queued for this fragment (for duplicate cancellation).
    std::vector<std::pair<uint32_t, uint64_t>> queued;  // (disk, entry id)
    // --- Recovery state ---
    uint32_t attempts = 0;  // in-place retries spent (timeouts)
    // Replicas that returned a media error this fragment lifetime; excluded
    // from failover candidate sets and rewritten (repaired) once the
    // fragment completes from a surviving copy.
    std::vector<ReplicaLocation> bad_replicas;
    // Replicas that landed (foreground propagation mode only).
    uint32_t successes = 0;
    IoStatus status = IoStatus::kOk;  // worst unabsorbed status
    // Next in-flight write fragment of the same stripe unit (the barrier
    // index's chain; 0 ends it).
    uint64_t next_inflight = 0;

    // Back to the freshly-mapped state, keeping vector capacity.
    void Reset();
  };

  struct ParkedRequest {
    DiskOp op;
    uint64_t lba;
    uint32_t sectors;
    DoneFn done;
    SimTime issue_us;
  };

  static uint64_t ReplicaKey(uint32_t disk, uint64_t lba) {
    return (static_cast<uint64_t>(disk) << 48) | lba;
  }

  // --- DriveSetClient hooks ---
  void OnEntryDispatched(SlotId slot, const QueuedRequest& entry) override;
  void OnEntryComplete(SlotId slot, const QueuedRequest& entry,
                       BlockAddr chosen_addr,
                       const DiskOpResult& result) override;
  // The slot failed (engine fail-stop or FailDisk): abandon its drained
  // propagations and reroute its drained foreground entries before any
  // spare promotion.
  void OnSlotFailed(SlotId slot, std::vector<QueuedRequest> drained) override;
  bool SparePromotionAllowed(SlotId slot) override;
  // Physical span the slot's column occupies through its drive's placement —
  // the extent a promoted spare must resolve.
  uint64_t UsedSpanSectors(SlotId slot) const override;
  void OnSparePromoted(SlotId slot) override;
  bool ScrubEligible() const override;
  // One scrub chunk: reads every live replica of the next stripe unit of the
  // logical space.
  void ScrubStep() override;

  void SubmitInternal(DiskOp op, uint64_t lba, uint32_t sectors, DoneFn done,
                      SimTime issue_us);
  // Both return false when no live candidate disk remains; the fragment is
  // then completed with kUnrecoverable instead of being queued.
  bool SubmitReadFragment(FragState& frag, uint64_t frag_key);
  bool SubmitWriteFragment(FragState& frag, uint64_t frag_key);
  void AuditMappedFragments(uint64_t lba, uint32_t sectors,
                            const MappedFragments& fragments) const;
  // `leg` is the decomposition of the disk op whose completion completed the
  // fragment; nullptr on paths with no such op (unrecoverable completions,
  // lost foreground-propagation replicas).
  void CompleteFragment(uint64_t frag_key, FragState& frag,
                        uint32_t chosen_disk, uint64_t chosen_lba,
                        SimTime completion_us, const FinalLeg* leg = nullptr);
  void CancelSiblings(uint64_t frag_key, uint32_t winner_disk,
                      uint64_t winner_entry);
  void AddDelayedWrite(uint32_t disk, uint64_t lba, uint32_t sectors,
                       uint32_t attempts = 0);
  void CancelPendingDelayed(uint32_t disk, uint64_t lba);
  void EnforceDelayedTableLimit();
  // First logical sector of the range with an in-flight foreground write.
  std::optional<uint64_t> FirstInflightSector(uint64_t lba,
                                              uint32_t sectors) const;
  // Enters a write fragment into the barrier index / takes it out again; the
  // removal queues every sector it unblocks that a parked read waits on.
  void AddInflightWrite(uint64_t frag_key, FragState& frag);
  void RemoveInflightWrite(uint64_t frag_key, FragState& frag);
  // Resubmits, in park order, every parked read whose waiter sector lost its
  // last covering write fragment since the last wake and that no other
  // in-flight write blocks.
  void WakeParked();
  // Total registrations in waiters_: one per parked read.
  size_t WaiterEntries() const;
  void ScheduleRecalibration(uint32_t disk);
  // Sources and copies the next fragment at or after `next_lba` that has a
  // replica on the stream's disk, or finishes the stream.
  void RebuildNextFragment(uint64_t stream, uint64_t next_lba);
  void EnqueueRebuildWrite(uint64_t stream, ReplicaLocation loc);
  // One of the fragment's target writes landed or was lost; the last one
  // moves the stream on.
  void RebuildWriteSettled(uint64_t stream);
  // Ends one rebuild stream and reports `status` through its `done`.
  void FinishRebuildStream(uint64_t stream, IoStatus status);
  // Completion of one scrub read of replica `loc` (id 0: drained unread).
  void ScrubReadDone(ReplicaLocation loc, uint32_t sectors,
                     const DiskOpResult& result, uint64_t id);
  bool ReplicaIsStale(uint32_t disk, uint64_t lba, uint32_t sectors) const;

  // --- Fault recovery (raw entries) ---
  // engine.retry bounds the in-place retries of foreground reads that time
  // out. Writes and background propagations retry without an attempt bound:
  // they carry data that exists nowhere else yet, so the only legal terminal
  // states are "landed" and "target disk failed".
  // Dispatches a failed entry's recovery; called from OnEntryComplete for
  // every non-kOk completion after the engine has the fault on record.
  void HandleEntryFailure(uint32_t disk, const QueuedRequest& entry,
                          uint64_t chosen_lba, const DiskOpResult& result);
  void HandleReadFailure(uint32_t disk, const QueuedRequest& entry,
                         uint64_t chosen_lba, const DiskOpResult& result);
  void HandleWriteFailure(uint32_t disk, const QueuedRequest& entry,
                          uint64_t chosen_lba, const DiskOpResult& result);
  void HandleDelayedFailure(uint32_t disk, const QueuedRequest& entry,
                            uint64_t chosen_lba, const DiskOpResult& result);
  void CompleteFragmentUnrecoverable(uint64_t frag_key, FragState& frag);
  // A foreground-propagation replica write was lost (its disk failed);
  // accounts it and completes the fragment when all entries are in.
  void LoseWriteReplica(uint64_t frag_key);

  FaultRecoveryStats& fstats() { return drives_->fstats(); }

  Simulator* sim_;
  const ArrayLayout* layout_;
  ArrayControllerOptions options_;
  InvariantAuditor* auditor_ = nullptr;

  // The shared drive-pool engine: queues, dispatch, fault counting,
  // auto-fail, spares, the scrub timer.
  std::unique_ptr<DriveSet> drives_;
  // Logical ops in flight; each of an op's fragments is one part.
  OpTracker ops_;

  std::vector<EventId> recalibration_events_;

  HandleSlab<FragState> frags_;
  // Scratch kept across requests so the steady-state Submit path allocates
  // nothing: Map's output, an op's fragment handles, and a read fragment's
  // per-disk candidate sets (cand_lbas_[begin, end) for each disk).
  struct CandidateSet {
    uint32_t disk = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
  };
  MappedFragments map_scratch_;
  std::vector<uint64_t> frag_scratch_;
  std::vector<CandidateSet> cand_sets_;
  std::vector<BlockAddr> cand_lbas_;

  // Pending background propagation, keyed by replica location (the NVRAM
  // metadata table). The owning queue entry may live in the delayed queue or,
  // if forced out, the FG queue.
  NvramTable nvram_;
  // Physical sectors whose content is stale until propagation completes.
  std::unordered_set<uint64_t> stale_sectors_;
  // In-flight foreground write fragments (the ordering barrier), keyed by
  // the stripe unit holding the fragment's start LBA; each key heads a chain
  // through FragState::next_inflight. A fragment never crosses a stripe
  // unit, so a range's blockers are found in the units it spans.
  FlatMap<uint64_t> inflight_writes_;
  // Reads parked behind in-flight writes, keyed by park sequence (park
  // order). Each is registered in waiters_ under exactly one blocking
  // logical sector: one some in-flight write fragment covers, or one that
  // the last covering fragment released and that wake_sectors_ lists for
  // the next wake.
  std::map<uint64_t, ParkedRequest> parked_;
  uint64_t next_park_seq_ = 0;
  std::unordered_map<uint64_t, std::vector<uint64_t>> waiters_;
  std::vector<uint64_t> wake_sectors_;

  // One mirror rebuild stream (one per RebuildDisk, until its `done` is
  // about to fire). A stream copies one fragment at a time: a source read,
  // then one write per replica the rebuilt slot holds.
  struct RebuildStream {
    uint32_t disk = 0;  // the slot being re-populated
    DoneFn done;
    // The fragment in flight: its length, the slot's replicas of it, the
    // writes still outstanding, and the logical LBA after it.
    uint32_t len = 0;
    std::vector<ReplicaLocation> targets;
    size_t writes_left = 0;
    uint64_t resume = 0;
  };
  HandleSlab<RebuildStream> rebuilds_;
  uint64_t rebuild_copied_ = 0;
  // Replica sources that returned a media error during rebuild/scrub
  // sourcing; never picked again (keyed by ReplicaKey).
  std::unordered_set<uint64_t> bad_sources_;

  // --- Background scrubbing state ---
  uint64_t scrub_cursor_ = 0;  // next logical LBA to sweep

  ArrayStats stats_;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_ARRAY_CONTROLLER_H_

// The shared drive-pool engine underneath every array backend.
//
// Historically the mirror/SR-Array controller and the parity controller each
// owned their own copy of the per-drive machinery: scheduler queues, the
// dispatch loop, bounded retry with backoff, consecutive-error auto-fail,
// fail-stop response, hot-spare promotion, the idle-gated scrub timer, and
// the wiring of the three observer layers (InvariantAuditor, FaultInjector,
// TraceCollector). DriveSet extracts that machinery once, all but retry,
// whose unit differs per policy (the fragment for the mirror, the disk
// command for the parity controller); a backend is now a policy layer
// (mirror heuristics + delayed propagation on one side, parity geometry +
// RMW planning on the other) speaking to the engine through the
// DriveSetClient hooks below.
//
// One completion protocol: the engine queues, dispatches, counts faults and
// routes each completion to whoever asked for the work; recovery is always
// the policy's. Work reaches a queue in one of two forms:
//  * Commands: EnqueueCommand queues one single-disk access on the
//    foreground or the delayed queue together with its done callback, held
//    in an allocation-free slab and found through the handle the queue entry
//    carries. Every completion — kOk, a fault, or a synthetic kDiskFailed
//    from a drain — goes to that callback exactly once. The parity
//    controller's sub-ops and the mirror's rebuild, scrub and recalibration
//    I/O are commands.
//  * Raw entries: the policy allocates ids (AllocEntryId), builds
//    QueuedRequest values (multi-candidate reads, duplicates cancelled at
//    dispatch, NVRAM-backed propagations), enqueues them (Enqueue), cancels
//    or forces them out through the engine's queue operations, and gets
//    their completions through DriveSetClient::OnEntryComplete.
#ifndef MIMDRAID_SRC_IO_DRIVE_SET_H_
#define MIMDRAID_SRC_IO_DRIVE_SET_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/disk/access_predictor.h"
#include "src/disk/sim_disk.h"
#include "src/obs/trace_collector.h"
#include "src/sched/queued_request.h"
#include "src/sched/scheduler.h"
#include "src/sim/auditor.h"
#include "src/sim/fault_injector.h"
#include "src/sim/io_status.h"
#include "src/sim/simulator.h"
#include "src/stats/fault_stats.h"
#include "src/util/inline_fn.h"

namespace mimdraid {

// Engine-side scrub admission policy: how a scrub timer tick decides whether
// to run a policy ScrubStep. The policy-side gate (DriveSetClient::
// ScrubEligible — no rebuild in flight, no outstanding logical ops) applies
// under either mode; gating here only controls whether scrubbing must wait
// for the drives themselves to go quiet.
enum class ScrubGating {
  // A tick runs only when every live drive is idle with empty queues and no
  // recovery timer is armed — scrubbing never competes with foreground or
  // background I/O (the utilization-gated policy; the historical behavior).
  kIdleGated,
  // A tick runs whenever the policy gate allows, even with delayed-queue
  // backlog or busy drives — the fixed-period policy, which trades foreground
  // interference for a guaranteed sweep cadence.
  kAlways,
};

struct DriveSetOptions {
  SchedulerKind scheduler = SchedulerKind::kSatf;
  // Cap on SATF-class scan depth per dispatch (0 = whole queue).
  size_t max_scan = 0;
  // Observers. All borrowed; each must outlive the DriveSet. The engine wires
  // them into the simulator, every disk, every per-drive scheduler, and every
  // promoted spare; attaching any of them changes no scheduling decision.
  InvariantAuditor* auditor = nullptr;
  FaultInjector* fault_injector = nullptr;
  TraceCollector* collector = nullptr;
  // Bounded retry with exponential backoff: the backoff of the recovery
  // timers (ScheduleRecovery) policies arm for their own retries, and the
  // attempt bound of whichever retries a policy bounds.
  RetryPolicy retry;
  // Consecutive-error budget per slot before the engine declares the drive
  // failed and promotes a hot spare (0 = never auto-fail on error count; an
  // explicit kDiskFailed verdict always auto-fails).
  uint32_t disk_error_fail_threshold = 0;
  // Period of the background scrubber (0 = off). Each tick that finds every
  // live drive quiet, no recovery timer armed, and the policy eligible
  // (DriveSetClient::ScrubEligible) runs one policy-defined ScrubStep.
  // Idle-gating is the rate limit: scrubbing never competes with foreground
  // work.
  SimDuration scrub_interval_us;
  // Engine-side scrub admission (see ScrubGating above). The default keeps
  // the historical idle-gated behavior.
  ScrubGating scrub_gating = ScrubGating::kIdleGated;
};

// Policy hooks a backend implements on top of the engine. Calls arrive
// synchronously from inside the engine's dispatch/completion/failure paths.
class DriveSetClient {
 public:
  virtual ~DriveSetClient() = default;

  // A raw entry was picked and removed from a queue, observers notified, and
  // is about to be predicted + started on the drive. The mirror policy
  // cancels duplicate siblings here. Commands do not come through here.
  virtual void OnEntryDispatched(SlotId /*disk*/,
                                 const QueuedRequest& /*entry*/) {}

  // A raw entry completed. The engine has already run the observer
  // bookkeeping and fault accounting (including a possible auto-fail);
  // recovery policy for the entry is the client's.
  virtual void OnEntryComplete(SlotId disk, const QueuedRequest& entry,
                               BlockAddr chosen_lba,
                               const DiskOpResult& result) = 0;

  // The engine fail-stopped `disk` (explicit kDiskFailed verdict or the
  // consecutive-error threshold) and drained both of its queues
  // (DriveSet::DrainFailedSlot): every queued command has already completed
  // with a synthetic kDiskFailed, and `drained` holds the slot's raw entries
  // — delayed queue first, then foreground, each in queue order — for the
  // policy to dispose of (abandon propagations, reroute or fail entries).
  // Called before any spare promotion.
  virtual void OnSlotFailed(SlotId disk,
                            std::vector<QueuedRequest> drained) = 0;

  // May the engine promote a hot spare into the failed slot right now? A
  // policy with no redundancy to rebuild from says no.
  virtual bool SparePromotionAllowed(SlotId /*disk*/) { return true; }

  // Physical sectors of `disk`'s drive the policy actually addresses (the
  // span a replacement promoted into the slot must be able to resolve).
  // 0 = any drive qualifies. On heterogeneous fleets this is how the engine
  // rejects spares too small for the failed drive's used extent.
  virtual uint64_t UsedSpanSectors(SlotId /*disk*/) const { return 0; }

  // A spare took over `disk`'s slot (observers rewired, injector slot
  // reset). The slot is still marked failed; the policy starts its rebuild,
  // which clears the mark.
  virtual void OnSparePromoted(SlotId disk) = 0;

  // Policy-level scrub gating beyond the engine's (no outstanding logical
  // ops, no rebuild in progress, ...).
  virtual bool ScrubEligible() const { return true; }

  // Issue the next chunk of verification work. Called at most once per timer
  // tick, only when the whole stack is idle.
  virtual void ScrubStep() {}
};

class DriveSet {
 public:
  // Result of a command, plus the id of the queue entry that carried it (0
  // for synthetic completions of commands that never reached the drive —
  // enqueue on an already-failed slot, or a drain). A non-kOk result with a
  // non-zero id has an open auditor fault record the policy must resolve
  // exactly once (ResolveFault). The inline buffer holds the parity
  // controller's retry wrapper around its largest sub-op closure, so a
  // command allocates nothing.
  using CommandDoneFn = InlineFn<void(const DiskOpResult&, uint64_t), 112>;
  // Deferred work (recovery timers, synthetic completions). Sized so the
  // engine's bracketing closure still fits Simulator::EventFn inline.
  using DeferredFn = InlineFn<void(), 80>;

  // The two queues of a slot. Foreground entries always outrank delayed ones.
  enum class Queue { kForeground, kDelayed };

  // `disks` and `predictors` are parallel, same-size, borrowed. `client` is
  // borrowed and must outlive the DriveSet; no hook is called from the
  // constructor.
  DriveSet(Simulator* sim, std::vector<SimDisk*> disks,
           std::vector<AccessPredictor*> predictors, DriveSetClient* client,
           const DriveSetOptions& options);

  DriveSet(const DriveSet&) = delete;
  DriveSet& operator=(const DriveSet&) = delete;

  // Cancels the scrub timer. In-flight disk operations must have drained
  // (their completion callbacks hold `this`).
  ~DriveSet();

  // --- Slots ---
  size_t num_slots() const { return disks_.size(); }
  Simulator* sim() { return sim_; }
  SimDisk* disk(SlotId slot) { return disks_[slot.value()]; }
  const SimDisk* disk(SlotId slot) const { return disks_[slot.value()]; }
  AccessPredictor* predictor(SlotId slot) { return predictors_[slot.value()]; }
  bool failed(SlotId slot) const { return failed_[slot.value()]; }
  // Manual failure/replacement bookkeeping for policy-initiated transitions
  // (FailDisk / Rebuild): flips the flag without stats, injector fail-stop,
  // client hooks, or spare promotion.
  void MarkFailed(SlotId slot) { failed_[slot.value()] = true; }
  void MarkReplaced(SlotId slot) { failed_[slot.value()] = false; }
  uint64_t error_count(SlotId slot) const {
    return error_counts_[slot.value()];
  }

  InvariantAuditor* auditor() { return options_.auditor; }
  FaultInjector* fault_injector() { return options_.fault_injector; }
  TraceCollector* collector() { return options_.collector; }
  const DriveSetOptions& options() const { return options_; }
  FaultRecoveryStats& fstats() { return fstats_; }
  const FaultRecoveryStats& fstats() const { return fstats_; }

  // --- Queues ---
  // The engine is the only owner of a slot's two queues; policies reach them
  // through the operations below, each of which does its own auditor and
  // collector bookkeeping. Queue conservation: every entry id comes from
  // AllocEntryId, is reported queued once (Enqueue), and leaves exactly once:
  // by dispatch, by Cancel, or by DrainFailedSlot. Every change to a
  // foreground queue's length emits one OnQueueDepth sample.
  [[nodiscard]] uint64_t AllocEntryId() { return next_entry_id_++; }
  // Resolves `entry`'s candidates against the slot's drive and appends it to
  // `queue`. Does not dispatch.
  void Enqueue(SlotId slot, Queue queue, QueuedRequest entry);
  // Removes raw entry `id` from whichever of `slot`'s queues holds it and
  // reports the cancellation; nullopt (and no change) when it is not queued
  // there — already dispatched, or drained. Commands cannot be cancelled:
  // their callbacks must fire.
  std::optional<QueuedRequest> Cancel(SlotId slot, uint64_t id);
  // Whether entry `id` still waits in one of `slot`'s queues.
  bool Queued(SlotId slot, uint64_t id) const;
  // Moves the oldest (lowest-id) entry at the front of any delayed queue to
  // the back of its slot's foreground queue, and returns that slot; nullopt
  // when every delayed queue is empty. Does not dispatch.
  std::optional<SlotId> ForceOutOldestDelayed();
  size_t QueueDepth(SlotId slot, Queue queue = Queue::kForeground) const {
    return queue == Queue::kForeground ? fg_[slot.value()].size()
                                       : delayed_[slot.value()].size();
  }
  // Picks and starts the next entry on `slot` if the drive is live and idle.
  // Foreground entries always outrank delayed ones.
  void MaybeDispatch(SlotId slot);
  // Entries in `queue` across all slots.
  size_t TotalQueued(Queue queue) const;
  // Every slot idle with empty queues — the drive half of a backend's
  // Idle(). Failed slots count too unless `skip_failed` (scrub gating).
  bool AllDrivesQuiet(bool skip_failed = false) const;

  // --- Commands ---
  // Queues one single-disk command on `queue` and dispatches if the drive is
  // idle. `done` sees the command's result exactly once, whatever it is: the
  // engine retries nothing. Enqueueing on an already-failed slot completes
  // with a synthetic kDiskFailed through the event queue so callers re-plan
  // from a clean stack. Returns the entry id (0 for that synthetic path).
  [[nodiscard]] uint64_t EnqueueCommand(SlotId slot, Queue queue, DiskOp op,
                                        BlockAddr lba, uint32_t sectors,
                                        CommandDoneFn done);
  // Empties both of `slot`'s queues: each entry is cancelled with the
  // auditor, every command completes with a synthetic kDiskFailed (id 0),
  // delayed queue first, then foreground, each in queue order, and the raw
  // entries come back in that same order for the policy to dispose of.
  [[nodiscard]] std::vector<QueuedRequest> DrainFailedSlot(SlotId slot);
  // Command slab slots ever allocated (live + free-listed). Bounded by the
  // peak number of commands outstanding at once, not by throughput.
  size_t CommandSlotsForTest() const { return commands_.size(); }

  // --- Failure response ---
  // Declares `slot` failed in response to an error verdict: marks it, counts
  // it, makes the injector verdict binding (FailStop), drains its queues and
  // hands the raw entries to the policy (OnSlotFailed), then promotes a hot
  // spare if one is registered and the policy allows it. Idempotent.
  void AutoFail(SlotId slot);
  // Registers a standby drive + predictor (borrowed). Wired to the observers
  // only on promotion. Compatibility with a failed slot is checked at
  // promotion time (the used span differs per slot): a candidate that cannot
  // resolve the slot's used span or whose sector size differs is skipped and
  // counted in fstats().spare_rejected — once per pooled spare, not once per
  // promotion attempt that re-skips it; it stays pooled for slots it fits.
  void AddSpare(SimDisk* disk, AccessPredictor* predictor);
  size_t spares_available() const { return spares_.size(); }

  // --- Recovery timers ---
  // Runs `fn` after the retry backoff for `attempt`; pending_recovery() stays
  // non-zero until every such timer has fired (backends fold it into Idle()).
  void ScheduleRecovery(uint32_t attempt, DeferredFn fn);
  // Runs `fn` at the next event-queue turn (synthetic completions that must
  // not run inside the caller's stack frame), bracketed the same way.
  void CompleteDeferred(DeferredFn fn);
  size_t pending_recovery() const { return pending_recovery_; }

  // Closes an open auditor fault record; a no-op without an auditor and for
  // id 0 (a synthetic completion opens no record).
  void ResolveFault(uint64_t entry_id, FaultResolution resolution,
                    bool target_disk_failed);

  // Arms the periodic scrub timer (no-op when scrub_interval_us == 0). Called
  // by the backend after it finishes its own constructor-time scheduling so
  // timer-creation order — and therefore same-timestamp tie-breaking — is
  // identical to the pre-engine controllers.
  void StartScrub();
  // Cancels the periodic scrub timer (in-flight scrub work drains normally).
  void StopScrub();
  // Sweep coverage for the policy's ScrubStep: each read a fully live array
  // would issue this sweep is tallied with its `sectors`, and `issued` when
  // its target was usable and the read went out. EndScrubSweep, called when
  // the policy's cursor wraps, counts the sweep, records issued / nominal
  // sectors in fstats().scrub_last_sweep_coverage, and starts the next
  // sweep's tallies.
  void TallyScrubRead(uint32_t sectors, bool issued) {
    sweep_sectors_nominal_ += sectors;
    if (issued) {
      sweep_sectors_issued_ += sectors;
    }
  }
  void EndScrubSweep();

 private:
  std::vector<QueuedRequest>& QueueOf(SlotId slot, Queue q) {
    return q == Queue::kForeground ? fg_[slot.value()]
                                   : delayed_[slot.value()];
  }
  void NoteFgDepth(SlotId slot) {
    if (options_.collector != nullptr) {
      options_.collector->OnQueueDepth(slot.value(), sim_->Now(),
                                       fg_[slot.value()].size());
    }
  }
  void HandleCompletion(SlotId slot, const QueuedRequest& entry,
                        BlockAddr chosen_lba, const DiskOpResult& result);
  // Parks `done` in the slab; returns its handle (slot index + 1).
  uint32_t StoreCommand(CommandDoneFn done);
  // Frees the handle's slot, then runs its callback.
  void FinishCommand(uint32_t handle, const DiskOpResult& result, uint64_t id);
  // kDiskFailed at Now(), for commands that never reached the drive.
  DiskOpResult SyntheticFailure() const;
  void CountFault(SlotId slot, IoStatus status);
  void PromoteSpareIfAvailable(SlotId slot);
  void ScheduleScrubTick();
  void ScrubTick();

  Simulator* sim_;
  std::vector<SimDisk*> disks_;
  std::vector<AccessPredictor*> predictors_;
  DriveSetClient* client_;
  DriveSetOptions options_;

  std::vector<std::unique_ptr<Scheduler>> schedulers_;
  std::vector<std::vector<QueuedRequest>> fg_;
  std::vector<std::vector<QueuedRequest>> delayed_;
  uint64_t next_entry_id_ = 1;

  // Command callbacks, indexed by QueuedRequest::command - 1. Freed slots
  // are reused LIFO, so the slab stops growing once it covers the peak
  // number of outstanding commands.
  std::vector<CommandDoneFn> commands_;
  std::vector<uint32_t> free_commands_;

  struct SpareEntry {
    SimDisk* disk = nullptr;
    AccessPredictor* predictor = nullptr;
    // Whether this spare's incompatibility has already landed in
    // fstats().spare_rejected. A pooled spare can be re-examined (and
    // re-skipped) by every later promotion attempt; the counter tracks
    // distinct incompatible spares, not skip events.
    bool rejection_counted = false;
  };

  std::vector<bool> failed_;
  std::vector<uint64_t> error_counts_;
  std::vector<SpareEntry> spares_;
  size_t pending_recovery_ = 0;
  EventId scrub_event_;
  uint64_t sweep_sectors_issued_ = 0;
  uint64_t sweep_sectors_nominal_ = 0;

  FaultRecoveryStats fstats_;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_IO_DRIVE_SET_H_

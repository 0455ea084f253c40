#include "src/array/controller.h"

#include <algorithm>
#include <limits>

#include "src/util/check.h"

namespace mimdraid {

namespace {
// Status severity follows declaration order; an op surfaces the worst
// unabsorbed status of its fragments.
IoStatus Worse(IoStatus a, IoStatus b) {
  return static_cast<uint8_t>(a) >= static_cast<uint8_t>(b) ? a : b;
}

DriveSetOptions EngineOptions(const ArrayControllerOptions& options) {
  DriveSetOptions dso;
  dso.scheduler = options.scheduler;
  dso.max_scan = options.max_scan;
  dso.auditor = options.auditor;
  dso.fault_injector = options.fault_injector;
  dso.collector = options.collector;
  dso.retry = options.retry;
  dso.disk_error_fail_threshold = options.disk_error_fail_threshold;
  dso.scrub_interval_us = options.scrub_interval_us;
  dso.scrub_gating = options.scrub_gating;
  return dso;
}
}  // namespace

ArrayController::ArrayController(Simulator* sim, std::vector<SimDisk*> disks,
                                 std::vector<AccessPredictor*> predictors,
                                 const ArrayLayout* layout,
                                 const ArrayControllerOptions& options)
    : sim_(sim),
      layout_(layout),
      options_(options),
      auditor_(options.auditor),
      collector_(options.collector) {
  MIMDRAID_CHECK(sim != nullptr);
  MIMDRAID_CHECK(layout != nullptr);
  MIMDRAID_CHECK_EQ(disks.size(), layout->num_disks());
  MIMDRAID_CHECK_EQ(predictors.size(), disks.size());
  const size_t n = disks.size();
  recalibration_events_.resize(n);
  drives_ = std::make_unique<DriveSet>(sim, std::move(disks),
                                       std::move(predictors),
                                       static_cast<DriveSetClient*>(this),
                                       EngineOptions(options));
  if (options_.recalibration_interval_us > SimDuration(0)) {
    for (size_t i = 0; i < n; ++i) {
      ScheduleRecalibration(static_cast<uint32_t>(i));
    }
  }
  drives_->StartScrub();
}

ArrayController::~ArrayController() {
  for (EventId id : recalibration_events_) {
    if (id.valid()) {
      // The timer callback re-arms itself before returning, so a valid
      // handle always names a pending event and cancellation cannot miss.
      MIMDRAID_CHECK(sim_->Cancel(id));
    }
  }
  StopScrub();
}

void ArrayController::AuditQuiescent() const {
  if (auditor_ == nullptr) {
    return;
  }
  auditor_->CheckQuiescent(drives_->TotalFgQueued(),
                           drives_->TotalDelayedQueued(), nvram_.size(),
                           stale_sectors_.size(), inflight_writes_.size(),
                           parked_.size(), WaiterEntries());
}

bool ArrayController::Idle() const {
  if (!ops_.empty() || !parked_.empty() || drives_->pending_recovery() > 0) {
    return false;
  }
  return drives_->AllDrivesQuiet();
}

void ArrayController::Submit(DiskOp op, uint64_t lba, uint32_t sectors,
                             DoneFn done) {
  SubmitInternal(op, lba, sectors, std::move(done), sim_->Now());
}

void ArrayController::SubmitInternal(DiskOp op, uint64_t lba, uint32_t sectors,
                                     DoneFn done, SimTime issue_us) {
  MIMDRAID_CHECK_GT(sectors, 0u);
  // Read-after-write ordering: a read of data with an in-flight foreground
  // write waits for the write (all replicas are potentially stale until one
  // lands).
  if (op == DiskOp::kRead) {
    if (const std::optional<uint64_t> blocker =
            FirstInflightSector(lba, sectors)) {
      ++stats_.parked_reads;
      const uint64_t seq = next_park_seq_++;
      parked_.emplace(seq, ParkedRequest{op, lba, sectors, std::move(done),
                                         issue_us});
      waiters_[*blocker].push_back(seq);
      return;
    }
  }

  const uint64_t op_id = next_op_id_++;
  // Parked reads are recorded only on resubmission (the early return above),
  // with their original issue time, so parked waiting shows up in queue_us'
  // complement: the e2e latency counts it, the final leg does not.
  if (collector_ != nullptr) {
    collector_->OnRequestArrival(op_id, op == DiskOp::kWrite, lba, sectors,
                                 issue_us);
  }
  std::vector<ArrayFragment> fragments = layout_->Map(lba, sectors);
  if (auditor_ != nullptr) {
    AuditMappedFragments(lba, sectors, fragments);
  }
  OpState& opstate = ops_[op_id];
  opstate.op = op;
  opstate.fragments_remaining = static_cast<uint32_t>(fragments.size());
  opstate.done = std::move(done);
  opstate.issue_us = issue_us;

  if (op == DiskOp::kWrite) {
    MarkInflightWrite(lba, sectors, +1);
  }

  for (ArrayFragment& f : fragments) {
    const uint64_t frag_key = next_frag_key_++;
    FragState& frag = frags_[frag_key];
    frag.op_id = op_id;
    frag.logical_lba = f.logical_lba;
    frag.sectors = f.sectors;
    frag.op = op;
    frag.replicas = std::move(f.replicas);
    if (op == DiskOp::kRead) {
      SubmitReadFragment(frag, frag_key);
    } else {
      SubmitWriteFragment(frag, frag_key);
    }
  }
}

bool ArrayController::SubmitReadFragment(FragState& frag, uint64_t frag_key) {
  const int dr = layout_->aspect().dr;
  const int dm = layout_->aspect().dm;
  frag.entries_remaining = 1;

  // Overlapping unaligned writes can leave every replica of this range
  // partially stale even though every *sector* has a clean copy somewhere.
  // Shrink the fragment to the longest prefix some replica covers cleanly and
  // resubmit the tail as its own fragment.
  uint32_t best_prefix = 0;
  for (const ReplicaLocation& loc : frag.replicas) {
    uint32_t clean = 0;
    while (clean < frag.sectors &&
           !stale_sectors_.contains(ReplicaKey(loc.disk, loc.lba + clean))) {
      ++clean;
    }
    best_prefix = std::max(best_prefix, clean);
    if (best_prefix == frag.sectors) {
      break;
    }
  }
  // Partially overlapping unaligned writes can (rarely) leave every replica
  // of a sector carrying a stale marker even though the newest data has in
  // fact been written (the marker belongs to an older, superseded
  // propagation). Timing-wise any replica is equivalent; serve from the full
  // set and account for it.
  const bool ignore_stale = best_prefix == 0;
  if (ignore_stale) {
    ++stats_.stale_fallback_reads;
    best_prefix = frag.sectors;
  }
  if (best_prefix < frag.sectors) {
    const uint64_t tail_key = next_frag_key_++;
    FragState& tail = frags_[tail_key];
    tail.op_id = frag.op_id;
    tail.logical_lba = frag.logical_lba + best_prefix;
    tail.sectors = frag.sectors - best_prefix;
    tail.op = frag.op;
    tail.replicas = frag.replicas;
    tail.attempts = frag.attempts;
    tail.bad_replicas = frag.bad_replicas;
    for (ReplicaLocation& loc : tail.replicas) {
      loc.lba += best_prefix;
    }
    for (ReplicaLocation& loc : tail.bad_replicas) {
      loc.lba += best_prefix;
    }
    ++ops_[frag.op_id].fragments_remaining;
    // `frag` may have been invalidated by the map insertion above.
    FragState& head = frags_[frag_key];
    head.sectors = best_prefix;
    const bool head_ok = SubmitReadFragment(head, frag_key);
    const bool tail_ok = SubmitReadFragment(frags_[tail_key], tail_key);
    return head_ok && tail_ok;
  }

  // Per-disk candidate sets, stale replicas excluded.
  struct DiskCandidates {
    uint32_t disk;
    std::vector<BlockAddr> lbas;
  };
  std::vector<DiskCandidates> candidates;
  for (int m = 0; m < dm; ++m) {
    DiskCandidates dc;
    dc.disk = frag.replicas[static_cast<size_t>(m) * dr].disk;
    if (drives_->failed(SlotId(dc.disk))) {
      continue;
    }
    for (int r = 0; r < dr; ++r) {
      const ReplicaLocation& loc = frag.replicas[static_cast<size_t>(m) * dr + r];
      bool known_bad = false;
      for (const ReplicaLocation& bad : frag.bad_replicas) {
        if (bad.disk == loc.disk && bad.lba == loc.lba) {
          known_bad = true;
          break;
        }
      }
      if (known_bad) {
        continue;
      }
      if (ignore_stale || !ReplicaIsStale(loc.disk, loc.lba, frag.sectors)) {
        dc.lbas.push_back(BlockAddr(loc.lba));
      }
    }
    if (!dc.lbas.empty()) {
      candidates.push_back(std::move(dc));
    }
  }
  if (candidates.empty()) {
    // Every replica is on a failed disk or known bad: redundancy exhausted.
    CompleteFragmentUnrecoverable(frag_key, frag);
    return false;
  }

  // Mirror heuristic (Section 3.3): if a holding disk is idle, send the
  // request to the idle head closest to a copy; otherwise duplicate the
  // request into every holder's queue and cancel the losers on dispatch.
  std::vector<const DiskCandidates*> targets;
  if (candidates.size() > 1) {
    const DiskCandidates* best_idle = nullptr;
    double best_cost = std::numeric_limits<double>::infinity();
    for (const DiskCandidates& dc : candidates) {
      if (drives_->disk(SlotId(dc.disk))->busy() || !drives_->fg(SlotId(dc.disk)).empty()) {
        continue;
      }
      for (BlockAddr cand : dc.lbas) {
        const AccessPlan plan = drives_->predictor(SlotId(dc.disk))->Predict(
            sim_->Now(), cand, frag.sectors, /*is_write=*/false);
        const double cost = drives_->predictor(SlotId(dc.disk))->EffectiveServiceUs(plan);
        if (cost < best_cost) {
          best_cost = cost;
          best_idle = &dc;
        }
      }
    }
    if (best_idle != nullptr) {
      targets.push_back(best_idle);
    } else {
      for (const DiskCandidates& dc : candidates) {
        targets.push_back(&dc);
      }
    }
  } else {
    targets.push_back(&candidates.front());
  }

  for (const DiskCandidates* dc : targets) {
    QueuedRequest entry;
    entry.id = drives_->AllocEntryId();
    entry.op = DiskOp::kRead;
    entry.sectors = frag.sectors;
    entry.candidates.assign(dc->lbas.begin(), dc->lbas.end());
    entry.arrival_us = sim_->Now();
    entry.tag = frag_key;
    frag.queued.emplace_back(dc->disk, entry.id);
    drives_->EnqueueFg(SlotId(dc->disk), std::move(entry));
  }
  // Dispatch after all duplicates are queued so cancellation state is
  // complete before the first pick.
  for (const DiskCandidates* dc : targets) {
    drives_->MaybeDispatch(SlotId(dc->disk));
  }
  return true;
}

bool ArrayController::SubmitWriteFragment(FragState& frag, uint64_t frag_key) {
  const int dr = layout_->aspect().dr;
  const int dm = layout_->aspect().dm;

  if (options_.foreground_write_propagation) {
    // Every copy is written synchronously: one single-candidate entry per
    // replica; the fragment completes when all land.
    uint32_t live = 0;
    for (const ReplicaLocation& loc : frag.replicas) {
      if (!drives_->failed(SlotId(loc.disk))) {
        ++live;
      }
    }
    if (live == 0) {
      // Every copy's disk is gone: the write has nowhere durable to land.
      CompleteFragmentUnrecoverable(frag_key, frag);
      return false;
    }
    frag.entries_remaining = live;
    std::vector<uint32_t> touched;
    for (const ReplicaLocation& loc : frag.replicas) {
      if (drives_->failed(SlotId(loc.disk))) {
        continue;
      }
      QueuedRequest entry;
      entry.id = drives_->AllocEntryId();
      entry.op = DiskOp::kWrite;
      entry.sectors = frag.sectors;
      entry.candidates = {BlockAddr(loc.lba)};
      entry.arrival_us = sim_->Now();
      entry.tag = frag_key;
      drives_->EnqueueFg(SlotId(loc.disk), std::move(entry));
      touched.push_back(loc.disk);
    }
    for (uint32_t d : touched) {
      drives_->MaybeDispatch(SlotId(d));
    }
    return true;
  }

  // Background propagation: the first copy is scheduled like a read (any
  // mirror disk, any rotational replica); the rest become delayed writes once
  // the winner is known.
  frag.entries_remaining = 1;
  std::vector<uint32_t> touched;
  for (int m = 0; m < dm; ++m) {
    const uint32_t disk = frag.replicas[static_cast<size_t>(m) * dr].disk;
    if (drives_->failed(SlotId(disk))) {
      continue;
    }
    QueuedRequest entry;
    entry.id = drives_->AllocEntryId();
    entry.op = DiskOp::kWrite;
    entry.sectors = frag.sectors;
    entry.arrival_us = sim_->Now();
    entry.tag = frag_key;
    for (int r = 0; r < dr; ++r) {
      entry.candidates.push_back(
          BlockAddr(frag.replicas[static_cast<size_t>(m) * dr + r].lba));
    }
    frag.queued.emplace_back(disk, entry.id);
    drives_->EnqueueFg(SlotId(disk), std::move(entry));
    touched.push_back(disk);
  }
  if (touched.empty()) {
    CompleteFragmentUnrecoverable(frag_key, frag);
    return false;
  }
  for (uint32_t d : touched) {
    drives_->MaybeDispatch(SlotId(d));
  }
  return true;
}

void ArrayController::AuditMappedFragments(
    uint64_t lba, uint32_t sectors,
    const std::vector<ArrayFragment>& fragments) const {
  std::vector<AuditFragment> audit_frags;
  audit_frags.reserve(fragments.size());
  for (const ArrayFragment& f : fragments) {
    AuditFragment af;
    af.logical_lba = f.logical_lba;
    af.sectors = f.sectors;
    af.replicas.reserve(f.replicas.size());
    for (const ReplicaLocation& loc : f.replicas) {
      af.replicas.push_back(AuditReplicaRef{loc.disk, loc.lba});
    }
    audit_frags.push_back(std::move(af));
  }
  auditor_->OnArrayMap(lba, sectors, layout_->aspect().dm,
                       layout_->aspect().dr, layout_->num_disks(),
                       drives_->num_slots() == 0
                           ? 0
                           : drives_->disk(SlotId(0))->num_sectors(),
                       audit_frags);
}

void ArrayController::OnEntryDispatched(SlotId slot,
                                        const QueuedRequest& entry) {
  const uint32_t disk = slot.value();
  if (!entry.delayed && !entry.maintenance) {
    CancelSiblings(entry.tag, disk, entry.id);
  }
}

void ArrayController::CancelSiblings(uint64_t frag_key, uint32_t winner_disk,
                                     uint64_t winner_entry) {
  auto it = frags_.find(frag_key);
  MIMDRAID_CHECK(it != frags_.end());
  FragState& frag = it->second;
  for (const auto& [disk, entry_id] : frag.queued) {
    if (disk == winner_disk && entry_id == winner_entry) {
      continue;
    }
    auto& q = drives_->fg(SlotId(disk));
    for (size_t i = 0; i < q.size(); ++i) {
      if (q[i].id == entry_id) {
        q.erase(q.begin() + static_cast<ptrdiff_t>(i));
        ++stats_.read_duplicates_cancelled;
        if (auditor_ != nullptr) {
          auditor_->OnEntryCancelled(disk, entry_id);
        }
        if (collector_ != nullptr) {
          collector_->OnQueueDepth(disk, sim_->Now(), q.size());
        }
        break;
      }
    }
  }
  frag.queued.clear();
}

void ArrayController::OnEntryComplete(SlotId slot,
                                      const QueuedRequest& entry,
                                      BlockAddr chosen_addr,
                                      const DiskOpResult& result) {
  const uint32_t disk = slot.value();
  const uint64_t chosen_lba = chosen_addr.value();
  // The engine has already reported the completion to the auditor and, for
  // failures, opened the fault record and run the fault counters (possibly
  // auto-failing the slot). Only the mirror policy's bookkeeping runs here.
  if (!result.ok()) {
    HandleEntryFailure(disk, entry, chosen_lba, result);
    return;
  }
  if (entry.maintenance) {
    if (auto sit = scrub_reads_.find(entry.id); sit != scrub_reads_.end()) {
      fstats().scrub_sectors_read += sit->second.sectors;
      scrub_reads_.erase(sit);
      ++fstats().scrub_reads;
      return;
    }
    if (auto rit = rebuild_read_done_.find(entry.id);
        rit != rebuild_read_done_.end()) {
      auto fn = std::move(rit->second);
      rebuild_read_done_.erase(rit);
      fn(result);
      return;
    }
    if (auto wit = rebuild_write_done_.find(entry.id);
        wit != rebuild_write_done_.end()) {
      auto fn = std::move(wit->second);
      rebuild_write_done_.erase(wit);
      fn(result);
      return;
    }
    ++stats_.maintenance_reads;
    if (auto* hp =
            dynamic_cast<HeadPositionPredictor*>(drives_->predictor(SlotId(disk)))) {
      hp->AddReferenceObservation(result.completion_us);
    }
    return;
  }
  if (entry.delayed) {
    // Background propagation landed: the replica is now clean — unless a
    // newer propagation to the same location was queued while this one was in
    // flight (the index then points at the newer entry).
    if (nvram_.EraseIfOwner(disk, chosen_lba, entry.id)) {
      if (auditor_ != nullptr) {
        auditor_->OnNvramErase(disk, chosen_lba);
      }
      for (uint32_t s = 0; s < entry.sectors; ++s) {
        stale_sectors_.erase(ReplicaKey(disk, chosen_lba + s));
      }
    }
    ++stats_.delayed_writes_completed;
    return;
  }

  auto it = frags_.find(entry.tag);
  MIMDRAID_CHECK(it != frags_.end());
  FragState& frag = it->second;
  MIMDRAID_CHECK_GT(frag.entries_remaining, 0u);
  if (frag.op == DiskOp::kWrite) {
    ++frag.successes;
  }
  if (--frag.entries_remaining == 0) {
    FinalLeg leg;
    leg.entry_arrival_us = entry.arrival_us;
    leg.disk_start_us = result.start_us;
    leg.overhead_us = result.overhead_us;
    leg.seek_us = result.seek_us;
    leg.rotational_us = result.rotational_us;
    leg.transfer_us = result.transfer_us;
    CompleteFragment(entry.tag, frag, disk, chosen_lba, result.completion_us,
                     &leg);
  }
}

void ArrayController::CompleteFragment(uint64_t frag_key, FragState& frag,
                                       uint32_t chosen_disk,
                                       uint64_t chosen_lba,
                                       SimTime completion_us,
                                       const FinalLeg* leg) {
  const uint64_t op_id = frag.op_id;
  const DiskOp op = frag.op;
  const IoStatus frag_status = frag.status;
  if (op == DiskOp::kWrite) {
    if (!options_.foreground_write_propagation &&
        frag_status == IoStatus::kOk) {
      // The winner's copy is fresh; every other replica becomes a pending
      // background propagation. A previously pending propagation to the
      // winner's location is superseded by this write, and any stale markers
      // on the just-written sectors (from older, partially overlapping
      // propagations) are cleared.
      CancelPendingDelayed(chosen_disk, chosen_lba);
      for (uint32_t s = 0; s < frag.sectors; ++s) {
        stale_sectors_.erase(ReplicaKey(chosen_disk, chosen_lba + s));
      }
      for (const ReplicaLocation& loc : frag.replicas) {
        if ((loc.disk == chosen_disk && loc.lba == chosen_lba) ||
            drives_->failed(SlotId(loc.disk))) {
          continue;
        }
        AddDelayedWrite(loc.disk, loc.lba, frag.sectors);
      }
      EnforceDelayedTableLimit();
    }
    MarkInflightWrite(frag.logical_lba, frag.sectors, -1);
  }
  if (op == DiskOp::kRead && frag_status == IoStatus::kOk &&
      !frag.bad_replicas.empty()) {
    // Repair by rewrite: each replica that returned a media error is
    // rewritten with the data just served from a surviving copy; the drive's
    // firmware remaps the latent sector on write, clearing the error.
    for (const ReplicaLocation& bad : frag.bad_replicas) {
      if (drives_->failed(SlotId(bad.disk))) {
        continue;
      }
      ++fstats().repairs_queued;
      AddDelayedWrite(bad.disk, bad.lba, frag.sectors);
    }
    EnforceDelayedTableLimit();
  }

  frags_.erase(frag_key);

  auto oit = ops_.find(op_id);
  MIMDRAID_CHECK(oit != ops_.end());
  OpState& opstate = oit->second;
  opstate.status = Worse(opstate.status, frag_status);
  MIMDRAID_CHECK_GT(opstate.fragments_remaining, 0u);
  if (--opstate.fragments_remaining == 0) {
    if (opstate.status == IoStatus::kOk) {
      if (op == DiskOp::kRead) {
        ++stats_.reads_completed;
      } else {
        ++stats_.writes_completed;
      }
    } else {
      ++fstats().unrecoverable_completions;
    }
    IoResult io;
    io.status = opstate.status;
    io.completion_us = completion_us;
    io.recovery_attempts = opstate.recovery_attempts;
    if (collector_ != nullptr) {
      collector_->OnRequestComplete(op_id, io.status, io.completion_us,
                                    io.recovery_attempts, leg);
    }
    DoneFn done = std::move(opstate.done);
    ops_.erase(oit);
    if (done) {
      done(io);
    }
  }
  if (op == DiskOp::kWrite) {
    WakeParked();
  }
}

void ArrayController::CompleteFragmentUnrecoverable(uint64_t frag_key,
                                                    FragState& frag) {
  frag.status = Worse(frag.status, IoStatus::kUnrecoverable);
  CompleteFragment(frag_key, frag, /*chosen_disk=*/0, /*chosen_lba=*/0,
                   sim_->Now());
}

// --- Fault recovery -------------------------------------------------------

void ArrayController::ResolveFault(uint64_t entry_id,
                                   FaultResolution resolution,
                                   bool target_disk_failed) {
  if (auditor_ != nullptr) {
    auditor_->OnFaultResolved(entry_id, resolution, target_disk_failed);
  }
}

void ArrayController::NoteOpRecoveryAttempt(uint64_t op_id) {
  auto it = ops_.find(op_id);
  if (it != ops_.end()) {
    ++it->second.recovery_attempts;
  }
}

void ArrayController::ScheduleRecovery(uint32_t attempt,
                                       std::function<void()> fn) {
  drives_->ScheduleRecovery(attempt, std::move(fn));
}

void ArrayController::HandleEntryFailure(uint32_t disk,
                                         const QueuedRequest& entry,
                                         uint64_t chosen_lba,
                                         const DiskOpResult& result) {
  if (entry.maintenance) {
    HandleMaintenanceFailure(disk, entry, chosen_lba, result);
  } else if (entry.delayed) {
    HandleDelayedFailure(disk, entry, chosen_lba, result);
  } else if (entry.op == DiskOp::kRead) {
    HandleReadFailure(disk, entry, chosen_lba, result);
  } else {
    HandleWriteFailure(disk, entry, chosen_lba, result);
  }
}

void ArrayController::HandleReadFailure(uint32_t disk,
                                        const QueuedRequest& entry,
                                        uint64_t chosen_lba,
                                        const DiskOpResult& result) {
  auto it = frags_.find(entry.tag);
  MIMDRAID_CHECK(it != frags_.end());
  FragState& frag = it->second;
  NoteOpRecoveryAttempt(frag.op_id);

  // A timeout says nothing about the media; retry in place (bounded, with
  // backoff) before writing the path off.
  if (result.status == IoStatus::kTimeout && !drives_->failed(SlotId(disk)) &&
      frag.attempts + 1 < options_.retry.max_attempts) {
    ++frag.attempts;
    ++fstats().retries_issued;
    ResolveFault(entry.id, FaultResolution::kRetried, false);
    const uint64_t frag_key = entry.tag;
    ScheduleRecovery(frag.attempts, [this, frag_key]() {
      auto fit = frags_.find(frag_key);
      if (fit == frags_.end()) {
        return;
      }
      SubmitReadFragment(fit->second, frag_key);
    });
    return;
  }

  if (result.status == IoStatus::kMediaError) {
    // That specific replica is bad: never read it again for this fragment,
    // and rewrite it once a clean copy has been served (CompleteFragment).
    frag.bad_replicas.push_back(ReplicaLocation{disk, chosen_lba});
  } else if (result.status == IoStatus::kTimeout && !drives_->failed(SlotId(disk))) {
    // Retries exhausted: treat the whole path as suspect for this fragment.
    for (const ReplicaLocation& loc : frag.replicas) {
      if (loc.disk == disk) {
        frag.bad_replicas.push_back(loc);
      }
    }
  }
  // kDiskFailed needs no bookkeeping: the engine's failed flag excludes the
  // disk from candidate sets.

  ++fstats().failovers;
  const bool target_failed = drives_->failed(SlotId(disk));
  if (SubmitReadFragment(frag, entry.tag)) {
    ResolveFault(entry.id, FaultResolution::kFailedOver, target_failed);
  } else {
    // No live replica remained; the fragment completed as kUnrecoverable.
    ResolveFault(entry.id, FaultResolution::kSurfaced, target_failed);
  }
}

void ArrayController::HandleWriteFailure(uint32_t disk,
                                         const QueuedRequest& entry,
                                         uint64_t chosen_lba,
                                         const DiskOpResult& result) {
  (void)result;
  auto it = frags_.find(entry.tag);
  MIMDRAID_CHECK(it != frags_.end());
  FragState& frag = it->second;
  NoteOpRecoveryAttempt(frag.op_id);
  const uint64_t frag_key = entry.tag;

  if (!options_.foreground_write_propagation) {
    // First-copy write: duplicates were cancelled at dispatch, so this entry
    // carried the fragment alone.
    if (drives_->failed(SlotId(disk))) {
      ++fstats().failovers;
      if (SubmitWriteFragment(frag, frag_key)) {
        ResolveFault(entry.id, FaultResolution::kFailedOver, true);
      } else {
        ResolveFault(entry.id, FaultResolution::kSurfaced, true);
      }
      return;
    }
    // Transient failure on a live disk: retry without an attempt bound — the
    // data exists nowhere else yet, so giving up is not an option until the
    // disk itself is declared dead.
    ++frag.attempts;
    ++fstats().retries_issued;
    ResolveFault(entry.id, FaultResolution::kRetried, false);
    ScheduleRecovery(frag.attempts, [this, frag_key]() {
      auto fit = frags_.find(frag_key);
      if (fit == frags_.end()) {
        return;
      }
      SubmitWriteFragment(fit->second, frag_key);
    });
    return;
  }

  // Foreground propagation: each entry is one replica.
  if (drives_->failed(SlotId(disk))) {
    // This copy is lost; surviving copies carry the fragment. If none
    // succeeded by the time all entries account, the write is unrecoverable.
    ResolveFault(entry.id, FaultResolution::kAbandoned, true);
    LoseWriteReplica(frag_key);
    return;
  }
  QueuedRequest retry;
  retry.id = drives_->AllocEntryId();
  retry.op = DiskOp::kWrite;
  retry.sectors = entry.sectors;
  retry.candidates = {BlockAddr(chosen_lba)};
  retry.tag = frag_key;
  retry.attempts = entry.attempts + 1;
  ++fstats().retries_issued;
  ResolveFault(entry.id, FaultResolution::kRetried, false);
  ScheduleRecovery(retry.attempts,
                   [this, disk, retry = std::move(retry)]() mutable {
                     if (drives_->failed(SlotId(disk))) {
                       LoseWriteReplica(retry.tag);
                       return;
                     }
                     retry.arrival_us = sim_->Now();
                     drives_->EnqueueFg(SlotId(disk), std::move(retry));
                     drives_->MaybeDispatch(SlotId(disk));
                   });
}

void ArrayController::LoseWriteReplica(uint64_t frag_key) {
  auto it = frags_.find(frag_key);
  MIMDRAID_CHECK(it != frags_.end());
  FragState& frag = it->second;
  MIMDRAID_CHECK_GT(frag.entries_remaining, 0u);
  if (--frag.entries_remaining == 0) {
    if (frag.successes == 0) {
      frag.status = Worse(frag.status, IoStatus::kUnrecoverable);
    }
    CompleteFragment(frag_key, frag, /*chosen_disk=*/0, /*chosen_lba=*/0,
                     sim_->Now());
  }
}

void ArrayController::HandleDelayedFailure(uint32_t disk,
                                           const QueuedRequest& entry,
                                           uint64_t chosen_lba,
                                           const DiskOpResult& result) {
  (void)result;
  const std::optional<uint64_t> owner = nvram_.OwnerOf(disk, chosen_lba);
  const bool is_owner = owner.has_value() && *owner == entry.id;
  if (drives_->failed(SlotId(disk))) {
    if (is_owner) {
      nvram_.Erase(disk, chosen_lba);
      if (auditor_ != nullptr) {
        auditor_->OnNvramErase(disk, chosen_lba);
      }
      for (uint32_t s = 0; s < entry.sectors; ++s) {
        stale_sectors_.erase(ReplicaKey(disk, chosen_lba + s));
      }
    }
    ++fstats().propagations_abandoned;
    ResolveFault(entry.id, FaultResolution::kAbandoned, true);
    return;
  }
  if (!is_owner) {
    // A newer write superseded this propagation while it was in flight; the
    // live owner entry will rewrite the location with fresher data.
    ResolveFault(entry.id, FaultResolution::kRetried, false);
    return;
  }
  // Move ownership of the pending propagation to a fresh retry entry. The
  // stale markers stay: the replica's content is still old. No attempt
  // bound — the backlog is the only durable record of this data.
  nvram_.Erase(disk, chosen_lba);
  if (auditor_ != nullptr) {
    auditor_->OnNvramErase(disk, chosen_lba);
  }
  ++fstats().retries_issued;
  ResolveFault(entry.id, FaultResolution::kRetried, false);
  const uint32_t attempts = entry.attempts + 1;
  const uint32_t sectors = entry.sectors;
  ScheduleRecovery(attempts, [this, disk, chosen_lba, sectors, attempts]() {
    if (drives_->failed(SlotId(disk))) {
      for (uint32_t s = 0; s < sectors; ++s) {
        stale_sectors_.erase(ReplicaKey(disk, chosen_lba + s));
      }
      ++fstats().propagations_abandoned;
      return;
    }
    AddDelayedWrite(disk, chosen_lba, sectors, attempts);
  });
}

void ArrayController::HandleMaintenanceFailure(uint32_t disk,
                                               const QueuedRequest& entry,
                                               uint64_t chosen_lba,
                                               const DiskOpResult& result) {
  (void)chosen_lba;
  if (auto rit = rebuild_read_done_.find(entry.id);
      rit != rebuild_read_done_.end()) {
    auto fn = std::move(rit->second);
    rebuild_read_done_.erase(rit);
    fn(result);  // restarts the fragment copy with a different source
    ResolveFault(entry.id, FaultResolution::kFailedOver, drives_->failed(SlotId(disk)));
    return;
  }
  if (auto wit = rebuild_write_done_.find(entry.id);
      wit != rebuild_write_done_.end()) {
    auto fn = std::move(wit->second);
    rebuild_write_done_.erase(wit);
    fn(result);  // retries the copy, or records it lost if the target died
    ResolveFault(entry.id,
                 drives_->failed(SlotId(disk)) ? FaultResolution::kAbandoned
                                       : FaultResolution::kRetried,
                 drives_->failed(SlotId(disk)));
    return;
  }
  if (auto sit = scrub_reads_.find(entry.id); sit != scrub_reads_.end()) {
    const ScrubTarget target = sit->second;
    scrub_reads_.erase(sit);
    ++fstats().scrub_reads;
    // The read covered its sectors even when it surfaced a media error: the
    // sweep's job is discovery, and discovery is what happened.
    fstats().scrub_sectors_read += target.sectors;
    if (result.status == IoStatus::kMediaError &&
        !drives_->failed(SlotId(target.disk))) {
      // Latent sector error caught by the sweep: rewrite the replica with
      // the logically equivalent data the scrubber reads from its siblings
      // in the same pass; the drive remaps the sector on write.
      ++fstats().scrub_repairs;
      ++fstats().repairs_queued;
      AddDelayedWrite(target.disk, target.lba, target.sectors);
      ResolveFault(entry.id, FaultResolution::kRepaired, false);
    } else if (drives_->failed(SlotId(target.disk))) {
      ResolveFault(entry.id, FaultResolution::kAbandoned, true);
    } else {
      // Transient noise on a verification read: the next sweep revisits the
      // chunk, so the observation is surfaced (counted) and dropped.
      ResolveFault(entry.id, FaultResolution::kSurfaced, false);
    }
    return;
  }
  // Recalibration reference read: nothing to recover — the observation is
  // simply missed and the next timer issues a fresh one.
  ResolveFault(entry.id, FaultResolution::kSurfaced, drives_->failed(SlotId(disk)));
}

void ArrayController::OnSlotFailed(SlotId slot) {
  const uint32_t disk = slot.value();
  AbandonDelayedQueue(disk);
  RerouteQueuedEntries(disk);
}

void ArrayController::AbandonDelayedQueue(uint32_t disk) {
  std::vector<QueuedRequest> drained = std::move(drives_->delayed(SlotId(disk)));
  drives_->delayed(SlotId(disk)).clear();
  for (QueuedRequest& e : drained) {
    if (auditor_ != nullptr) {
      auditor_->OnEntryCancelled(disk, e.id);
    }
    if (e.maintenance) {
      // Rebuild copy traffic rides the delayed queues; hand the hooks a
      // synthetic disk-failed result so the chains reroute or terminate.
      DiskOpResult dead;
      dead.status = IoStatus::kDiskFailed;
      dead.start_us = sim_->Now();
      dead.completion_us = sim_->Now();
      if (auto rit = rebuild_read_done_.find(e.id);
          rit != rebuild_read_done_.end()) {
        auto fn = std::move(rit->second);
        rebuild_read_done_.erase(rit);
        fn(dead);
      } else if (auto wit = rebuild_write_done_.find(e.id);
                 wit != rebuild_write_done_.end()) {
        auto fn = std::move(wit->second);
        rebuild_write_done_.erase(wit);
        fn(dead);
      } else {
        scrub_reads_.erase(e.id);
      }
      continue;
    }
    // Pending propagation to a dead disk: meaningless now.
    if (nvram_.EraseIfOwner(disk, e.candidates.front().lba.value(), e.id)) {
      if (auditor_ != nullptr) {
        auditor_->OnNvramErase(disk, e.candidates.front().lba.value());
      }
    }
    for (uint32_t s = 0; s < e.sectors; ++s) {
      stale_sectors_.erase(ReplicaKey(disk, e.candidates.front().lba.value() + s));
    }
    ++fstats().propagations_abandoned;
  }
}

void ArrayController::RerouteQueuedEntries(uint32_t disk) {
  std::vector<QueuedRequest> moved = std::move(drives_->fg(SlotId(disk)));
  drives_->fg(SlotId(disk)).clear();
  if (collector_ != nullptr && !moved.empty()) {
    collector_->OnQueueDepth(disk, sim_->Now(), 0);
  }
  for (QueuedRequest& e : moved) {
    if (auditor_ != nullptr) {
      auditor_->OnEntryCancelled(disk, e.id);
    }
    if (e.maintenance) {
      // Recalibration reads are periodic; the next timer re-issues one.
      scrub_reads_.erase(e.id);
      continue;
    }
    if (e.delayed) {
      // Propagation forced into the FG queue by the table limit.
      if (nvram_.EraseIfOwner(disk, e.candidates.front().lba.value(), e.id)) {
        if (auditor_ != nullptr) {
          auditor_->OnNvramErase(disk, e.candidates.front().lba.value());
        }
      }
      for (uint32_t s = 0; s < e.sectors; ++s) {
        stale_sectors_.erase(ReplicaKey(disk, e.candidates.front().lba.value() + s));
      }
      ++fstats().propagations_abandoned;
      continue;
    }
    auto fit = frags_.find(e.tag);
    MIMDRAID_CHECK(fit != frags_.end());
    FragState& frag = fit->second;
    for (size_t i = 0; i < frag.queued.size(); ++i) {
      if (frag.queued[i].first == disk && frag.queued[i].second == e.id) {
        frag.queued.erase(frag.queued.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
    if (e.op == DiskOp::kRead || !options_.foreground_write_propagation) {
      // Duplicate-style entry: a sibling on a live disk still carries the
      // fragment; only a now-orphaned fragment needs resubmission.
      if (!frag.queued.empty()) {
        continue;
      }
      ++fstats().failovers;
      NoteOpRecoveryAttempt(frag.op_id);
      if (e.op == DiskOp::kRead) {
        SubmitReadFragment(frag, e.tag);
      } else {
        SubmitWriteFragment(frag, e.tag);
      }
    } else {
      // Foreground-propagation replica on the dead disk: this copy is lost.
      LoseWriteReplica(e.tag);
    }
  }
}

bool ArrayController::SparePromotionAllowed(SlotId slot) {
  (void)slot;
  // An SR-Array column (Dm == 1) has nothing to rebuild a spare from.
  return layout_->aspect().dm >= 2;
}

uint64_t ArrayController::UsedSpanSectors(SlotId slot) const {
  const uint32_t group =
      slot.value() / static_cast<uint32_t>(layout_->aspect().dm);
  return layout_->placement_for(slot.value())
      .PhysicalSpanSectors(layout_->column_sectors(group));
}

void ArrayController::OnSparePromoted(SlotId slot) {
  RebuildDisk(slot.value(), [this](const IoResult& r) {
    if (r.status == IoStatus::kOk) {
      ++fstats().spare_rebuilds_completed;
    }
  });
}

// --- Background scrubbing -------------------------------------------------

bool ArrayController::ScrubEligible() const {
  // The engine has already checked its own half of the gate (recovery
  // timers, live-drive quiescence).
  return ops_.empty() && parked_.empty() && !RebuildInProgress();
}

void ArrayController::ScrubStep() {
  const uint64_t dataset = layout_->dataset_sectors();
  if (dataset == 0) {
    return;
  }
  if (scrub_cursor_ >= dataset) {
    scrub_cursor_ = 0;
    ++fstats().scrub_sweeps_completed;
    fstats().scrub_last_sweep_coverage =
        sweep_sectors_nominal_ == 0
            ? 0.0
            : static_cast<double>(sweep_sectors_issued_) /
                  static_cast<double>(sweep_sectors_nominal_);
    sweep_sectors_issued_ = 0;
    sweep_sectors_nominal_ = 0;
  }
  const uint32_t span = static_cast<uint32_t>(std::min<uint64_t>(
      layout_->stripe_unit_sectors(), dataset - scrub_cursor_));
  for (const ArrayFragment& f : layout_->Map(scrub_cursor_, span)) {
    for (const ReplicaLocation& loc : f.replicas) {
      sweep_sectors_nominal_ += f.sectors;
      if (drives_->failed(SlotId(loc.disk))) {
        continue;
      }
      sweep_sectors_issued_ += f.sectors;
      QueuedRequest e;
      e.id = drives_->AllocEntryId();
      e.op = DiskOp::kRead;
      e.sectors = f.sectors;
      e.candidates = {BlockAddr(loc.lba)};
      e.arrival_us = sim_->Now();
      e.maintenance = true;
      scrub_reads_[e.id] = ScrubTarget{loc.disk, loc.lba, f.sectors};
      const uint32_t d = loc.disk;
      drives_->EnqueueDelayed(SlotId(d), std::move(e));
      drives_->MaybeDispatch(SlotId(d));
    }
  }
  scrub_cursor_ += span;
}

void ArrayController::AddDelayedWrite(uint32_t disk, uint64_t lba,
                                      uint32_t sectors, uint32_t attempts) {
  const std::optional<uint64_t> existing_owner = nvram_.OwnerOf(disk, lba);
  if (existing_owner.has_value()) {
    ++stats_.delayed_writes_discarded;
    // If the superseded entry is still queued, it simply carries the newer
    // data ("data dies young", Section 3.4) — nothing more to do. If it is
    // already in flight, a fresh propagation must follow it.
    for (const auto* q : {&drives_->delayed(SlotId(disk)), &drives_->fg(SlotId(disk))}) {
      for (const QueuedRequest& e : *q) {
        if (e.id == *existing_owner) {
          return;  // still queued; superseded in place
        }
      }
    }
    nvram_.Erase(disk, lba);  // in flight; fall through to re-queue
    if (auditor_ != nullptr) {
      auditor_->OnNvramErase(disk, lba);
    }
  }
  QueuedRequest entry;
  entry.id = drives_->AllocEntryId();
  entry.op = DiskOp::kWrite;
  entry.sectors = sectors;
  entry.candidates = {BlockAddr(lba)};
  entry.arrival_us = sim_->Now();
  entry.delayed = true;
  entry.attempts = attempts;
  const uint64_t owner_id = entry.id;
  // Queue registration precedes the table insert so the auditor sees the
  // NVRAM entry owned by an already-live delayed entry.
  drives_->EnqueueDelayed(SlotId(disk), std::move(entry));
  nvram_.Put(NvramEntry{disk, lba, sectors}, owner_id);
  if (auditor_ != nullptr) {
    auditor_->OnNvramPut(disk, lba, owner_id);
  }
  for (uint32_t s = 0; s < sectors; ++s) {
    stale_sectors_.insert(ReplicaKey(disk, lba + s));
  }
  drives_->MaybeDispatch(SlotId(disk));
}

void ArrayController::CancelPendingDelayed(uint32_t disk, uint64_t lba) {
  const std::optional<uint64_t> owner = nvram_.OwnerOf(disk, lba);
  if (!owner.has_value()) {
    return;
  }
  const std::optional<NvramEntry> record = nvram_.EntryOf(disk, lba);
  nvram_.Erase(disk, lba);
  if (auditor_ != nullptr) {
    auditor_->OnNvramErase(disk, lba);
  }
  ++stats_.delayed_writes_discarded;
  // The entry may sit in the delayed queue or (if forced out) the FG queue.
  for (auto* q : {&drives_->delayed(SlotId(disk)), &drives_->fg(SlotId(disk))}) {
    for (size_t i = 0; i < q->size(); ++i) {
      if ((*q)[i].id == *owner) {
        for (uint32_t s = 0; s < (*q)[i].sectors; ++s) {
          stale_sectors_.erase(ReplicaKey(disk, lba + s));
        }
        q->erase(q->begin() + static_cast<ptrdiff_t>(i));
        if (auditor_ != nullptr) {
          auditor_->OnEntryCancelled(disk, *owner);
        }
        return;
      }
    }
  }
  // Entry already dispatched: it will complete and clear its own state.
  nvram_.Put(*record, *owner);
  if (auditor_ != nullptr) {
    auditor_->OnNvramPut(disk, lba, *owner);
  }
}

void ArrayController::EnforceDelayedTableLimit() {
  while (nvram_.size() > options_.delayed_table_limit) {
    // Force the oldest still-queued delayed write into its FG queue.
    uint32_t best_disk = 0;
    uint64_t best_id = UINT64_MAX;
    for (uint32_t d = 0; d < drives_->num_slots(); ++d) {
      if (!drives_->delayed(SlotId(d)).empty() &&
          drives_->delayed(SlotId(d)).front().id < best_id) {
        best_id = drives_->delayed(SlotId(d)).front().id;
        best_disk = d;
      }
    }
    if (best_id == UINT64_MAX) {
      return;  // everything pending is already in flight or forced
    }
    QueuedRequest entry = std::move(drives_->delayed(SlotId(best_disk)).front());
    drives_->delayed(SlotId(best_disk)).erase(drives_->delayed(SlotId(best_disk)).begin());
    drives_->fg(SlotId(best_disk)).push_back(std::move(entry));
    ++stats_.delayed_writes_forced;
    drives_->MaybeDispatch(SlotId(best_disk));
  }
}

void ArrayController::RestorePropagations(
    const std::vector<NvramEntry>& entries) {
  for (const NvramEntry& e : entries) {
    MIMDRAID_CHECK_LT(e.disk, drives_->num_slots());
    AddDelayedWrite(e.disk, e.lba, e.sectors);
  }
  EnforceDelayedTableLimit();
}

std::optional<uint64_t> ArrayController::FirstInflightSector(
    uint64_t lba, uint32_t sectors) const {
  if (inflight_writes_.empty()) {
    return std::nullopt;
  }
  for (uint32_t s = 0; s < sectors; ++s) {
    if (inflight_writes_.contains(lba + s)) {
      return lba + s;
    }
  }
  return std::nullopt;
}

void ArrayController::MarkInflightWrite(uint64_t lba, uint32_t sectors,
                                        int delta) {
  for (uint32_t s = 0; s < sectors; ++s) {
    auto [it, inserted] = inflight_writes_.try_emplace(lba + s, 0);
    it->second += delta;
    MIMDRAID_CHECK_GE(it->second, 0);
    if (it->second == 0) {
      inflight_writes_.erase(it);
      if (!waiters_.empty() && waiters_.contains(lba + s)) {
        wake_sectors_.push_back(lba + s);
      }
    }
  }
}

// The wake releases exactly the reads a full rescan of parked_ would: every
// parked read is registered under one blocking sector, and a read can only
// become unblocked when that sector's count drops to zero, which queues the
// sector here. Sectors are visited at wake time, after the completion
// callback, so a write that callback submitted re-blocks its readers just as
// it would have under a rescan.
void ArrayController::WakeParked() {
  if (wake_sectors_.empty()) {
    return;
  }
  std::vector<uint64_t> ready;
  for (uint64_t sector : wake_sectors_) {
    if (inflight_writes_.contains(sector)) {
      continue;  // re-blocked; its waiters stay registered
    }
    auto wit = waiters_.find(sector);
    if (wit == waiters_.end()) {
      continue;
    }
    std::vector<uint64_t> seqs = std::move(wit->second);
    waiters_.erase(wit);
    for (uint64_t seq : seqs) {
      const ParkedRequest& p = parked_.at(seq);
      if (const std::optional<uint64_t> blocker =
              FirstInflightSector(p.lba, p.sectors)) {
        waiters_[*blocker].push_back(seq);
      } else {
        ready.push_back(seq);
      }
    }
  }
  wake_sectors_.clear();
  // Park order; taken out of parked_ before any resubmission so a nested wake
  // (a resubmitted read completing synchronously) sees only the rest.
  std::sort(ready.begin(), ready.end());
  std::vector<ParkedRequest> batch;
  batch.reserve(ready.size());
  for (uint64_t seq : ready) {
    auto it = parked_.find(seq);
    batch.push_back(std::move(it->second));
    parked_.erase(it);
  }
  for (ParkedRequest& p : batch) {
    SubmitInternal(p.op, p.lba, p.sectors, std::move(p.done), p.issue_us);
  }
}

size_t ArrayController::WaiterEntries() const {
  size_t n = 0;
  for (const auto& [sector, seqs] : waiters_) {
    n += seqs.size();
  }
  return n;
}

bool ArrayController::FailDisk(SlotId slot) {
  const uint32_t disk = slot.value();
  MIMDRAID_CHECK_LT(disk, drives_->num_slots());
  MIMDRAID_CHECK(!drives_->failed(SlotId(disk)));
  MIMDRAID_CHECK(!drives_->disk(SlotId(disk))->busy());
  MIMDRAID_CHECK(drives_->fg(SlotId(disk)).empty());
  if (layout_->aspect().dm < 2) {
    // An SR-Array/stripe column has no cross-disk copy: losing the disk
    // loses data (the paper's Section 2.5 reliability tradeoff).
    return false;
  }
  drives_->MarkFailed(SlotId(disk));
  // Pending propagations to the failed disk are meaningless now.
  AbandonDelayedQueue(disk);
  return true;
}

void ArrayController::RebuildDisk(uint32_t disk, DoneFn done) {
  MIMDRAID_CHECK(drives_->failed(SlotId(disk)));
  MIMDRAID_CHECK_GE(layout_->aspect().dm, 2);
  drives_->MarkReplaced(SlotId(disk));  // replacement drive in the slot
  RebuildNextFragment(disk, 0, std::move(done));
}

void ArrayController::RebuildNextFragment(uint32_t disk, uint64_t next_lba,
                                          DoneFn done) {
  // Stream the dataset fragment by fragment; for each fragment with replicas
  // on `disk`, read a surviving copy and rewrite this disk's copies. The copy
  // traffic rides the delayed queues, yielding to foreground work.
  if (drives_->failed(SlotId(disk))) {
    // The replacement itself died mid-rebuild; abort the stream.
    if (done) {
      done(IoResult{IoStatus::kDiskFailed, sim_->Now(), 0});
    }
    return;
  }
  const uint64_t dataset = layout_->dataset_sectors();
  uint64_t lba = next_lba;
  while (lba < dataset) {
    const uint32_t span = static_cast<uint32_t>(
        std::min<uint64_t>(layout_->stripe_unit_sectors(), dataset - lba));
    const std::vector<ArrayFragment> frags = layout_->Map(lba, span);
    for (const ArrayFragment& f : frags) {
      std::vector<ReplicaLocation> targets;
      const ReplicaLocation* source = nullptr;
      for (const ReplicaLocation& loc : f.replicas) {
        if (loc.disk == disk) {
          targets.push_back(loc);
        } else if (source == nullptr && !drives_->failed(SlotId(loc.disk)) &&
                   !bad_sources_.contains(ReplicaKey(loc.disk, loc.lba))) {
          source = &loc;
        }
      }
      if (targets.empty()) {
        continue;
      }
      if (source == nullptr) {
        // Every surviving copy is failed or known bad: this fragment cannot
        // be re-populated. Count it and keep rebuilding the rest.
        ++fstats().rebuild_fragments_lost;
        continue;
      }
      const uint64_t frag_start = f.logical_lba;
      const uint64_t resume = f.logical_lba + f.sectors;
      const uint32_t len = f.sectors;
      const uint32_t source_disk = source->disk;
      const uint64_t source_lba = source->lba;

      QueuedRequest read_entry;
      read_entry.id = drives_->AllocEntryId();
      read_entry.op = DiskOp::kRead;
      read_entry.sectors = len;
      read_entry.candidates = {BlockAddr(source_lba)};
      read_entry.arrival_us = sim_->Now();
      read_entry.maintenance = true;
      rebuild_read_done_[read_entry.id] =
          [this, disk, frag_start, resume, targets, len, source_disk,
           source_lba, done](const DiskOpResult& r) mutable {
            if (r.status != IoStatus::kOk) {
              if (r.status == IoStatus::kMediaError) {
                // The source replica is bad: exclude it from future sourcing
                // and rewrite it from whichever copy the restart picks.
                bad_sources_.insert(ReplicaKey(source_disk, source_lba));
                if (!drives_->failed(SlotId(source_disk))) {
                  ++fstats().repairs_queued;
                  AddDelayedWrite(source_disk, source_lba, len);
                }
              }
              ++fstats().failovers;
              RebuildNextFragment(disk, frag_start, std::move(done));
              return;
            }
            auto writes_left = std::make_shared<size_t>(targets.size());
            for (const ReplicaLocation& loc : targets) {
              EnqueueRebuildWrite(loc, len, writes_left, disk, resume, done);
            }
          };
      drives_->EnqueueDelayed(SlotId(source_disk), std::move(read_entry));
      drives_->MaybeDispatch(SlotId(source_disk));
      return;  // continue from the completion callbacks
    }
    lba += span;
  }
  if (done) {
    done(IoResult{IoStatus::kOk, sim_->Now(), 0});
  }
}

void ArrayController::EnqueueRebuildWrite(ReplicaLocation loc, uint32_t len,
                                          std::shared_ptr<size_t> writes_left,
                                          uint32_t rebuild_disk,
                                          uint64_t resume, DoneFn done) {
  if (drives_->failed(SlotId(loc.disk))) {
    // The target slot died between sourcing the copy and issuing the write;
    // an entry queued to a failed disk would never dispatch. The fragment is
    // lost and the stream advances (RebuildNextFragment aborts the rebuild
    // when the target itself is the failed disk).
    ++fstats().rebuild_fragments_lost;
    if (--*writes_left == 0) {
      RebuildNextFragment(rebuild_disk, resume, std::move(done));
    }
    return;
  }
  QueuedRequest w;
  w.id = drives_->AllocEntryId();
  w.op = DiskOp::kWrite;
  w.sectors = len;
  w.candidates = {BlockAddr(loc.lba)};
  w.arrival_us = sim_->Now();
  w.maintenance = true;
  rebuild_write_done_[w.id] = [this, loc, len, writes_left, rebuild_disk,
                               resume, done](const DiskOpResult& r) mutable {
    if (r.status != IoStatus::kOk && !drives_->failed(SlotId(loc.disk))) {
      // Transient failure of the copy write: retry after backoff. The write
      // itself repairs any latent error at the target (firmware remap).
      ++fstats().retries_issued;
      ScheduleRecovery(1, [this, loc, len, writes_left, rebuild_disk, resume,
                           done]() mutable {
        if (drives_->failed(SlotId(loc.disk))) {
          ++fstats().rebuild_fragments_lost;
          if (--*writes_left == 0) {
            RebuildNextFragment(rebuild_disk, resume, std::move(done));
          }
          return;
        }
        EnqueueRebuildWrite(loc, len, writes_left, rebuild_disk, resume,
                            std::move(done));
      });
      return;
    }
    if (r.status != IoStatus::kOk) {
      ++fstats().rebuild_fragments_lost;  // target slot died mid-copy
    } else {
      ++rebuild_copied_;
    }
    if (--*writes_left == 0) {
      RebuildNextFragment(rebuild_disk, resume, std::move(done));
    }
  };
  drives_->EnqueueDelayed(SlotId(loc.disk), std::move(w));
  drives_->MaybeDispatch(SlotId(loc.disk));
}

void ArrayController::ScheduleRecalibration(uint32_t disk) {
  recalibration_events_[disk] =
      sim_->ScheduleAfter(options_.recalibration_interval_us, [this, disk]() {
    auto* hp = dynamic_cast<HeadPositionPredictor*>(drives_->predictor(SlotId(disk)));
    if (hp != nullptr) {
      QueuedRequest entry;
      entry.id = drives_->AllocEntryId();
      entry.op = DiskOp::kRead;
      entry.sectors = 1;
      entry.candidates = {BlockAddr(hp->reference_lba())};
      entry.arrival_us = sim_->Now();
      entry.maintenance = true;
      drives_->EnqueueFg(SlotId(disk), std::move(entry));
      drives_->MaybeDispatch(SlotId(disk));
    }
    ScheduleRecalibration(disk);
  });
}

bool ArrayController::ReplicaIsStale(uint32_t disk, uint64_t lba,
                                     uint32_t sectors) const {
  if (stale_sectors_.empty()) {
    return false;
  }
  for (uint32_t s = 0; s < sectors; ++s) {
    if (stale_sectors_.contains(ReplicaKey(disk, lba + s))) {
      return true;
    }
  }
  return false;
}

void ArrayController::ExportStats(StatsRegistry* registry) const {
  ExportFaultStats(drives_->fstats(), registry);
  registry->Set("array.reads_completed",
                static_cast<double>(stats_.reads_completed));
  registry->Set("array.writes_completed",
                static_cast<double>(stats_.writes_completed));
  registry->Set("array.delayed_writes_completed",
                static_cast<double>(stats_.delayed_writes_completed));
  registry->Set("array.delayed_writes_forced",
                static_cast<double>(stats_.delayed_writes_forced));
  registry->Set("array.delayed_writes_discarded",
                static_cast<double>(stats_.delayed_writes_discarded));
  registry->Set("array.read_duplicates_cancelled",
                static_cast<double>(stats_.read_duplicates_cancelled));
  registry->Set("array.maintenance_reads",
                static_cast<double>(stats_.maintenance_reads));
  registry->Set("array.parked_reads",
                static_cast<double>(stats_.parked_reads));
  registry->Set("array.stale_fallback_reads",
                static_cast<double>(stats_.stale_fallback_reads));
  registry->Set("array.delayed_backlog", static_cast<double>(nvram_.size()));
  registry->Set("array.rebuild_copied_fragments",
                static_cast<double>(rebuild_copied_));
}

}  // namespace mimdraid

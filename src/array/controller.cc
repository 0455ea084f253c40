#include "src/array/controller.h"

#include <algorithm>
#include <limits>

#include "src/util/check.h"

namespace mimdraid {

ArrayController::ArrayController(Simulator* sim, std::vector<SimDisk*> disks,
                                 std::vector<AccessPredictor*> predictors,
                                 const ArrayLayout* layout,
                                 const ArrayControllerOptions& options)
    : sim_(sim),
      layout_(layout),
      options_(options),
      auditor_(options.engine.auditor),
      drives_(std::make_unique<DriveSet>(sim, std::move(disks),
                                         std::move(predictors),
                                         static_cast<DriveSetClient*>(this),
                                         options.engine)),
      ops_(options.engine.collector,
           OpTally{&stats_.reads_completed, &stats_.writes_completed,
                   &drives_->fstats().unrecoverable_completions}) {
  MIMDRAID_CHECK(layout != nullptr);
  MIMDRAID_CHECK_EQ(drives_->num_slots(), layout->num_disks());
  const size_t n = drives_->num_slots();
  recalibration_events_.resize(n);
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

void ArrayController::FragState::Reset() {
  op_handle = 0;
  logical_lba = 0;
  sectors = 0;
  op = DiskOp::kRead;
  replicas.clear();
  entries_remaining = 0;
  queued.clear();
  attempts = 0;
  bad_replicas.clear();
  successes = 0;
  status = IoStatus::kOk;
  next_inflight = 0;
}

void ArrayController::AuditQuiescent() const {
  if (auditor_ == nullptr) {
    return;
  }
  auditor_->CheckQuiescent(
      drives_->TotalQueued(DriveSet::Queue::kForeground),
      drives_->TotalQueued(DriveSet::Queue::kDelayed), nvram_.size(),
      stale_sectors_.size(), inflight_writes_.size(), parked_.size(),
      WaiterEntries());
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

  // The scratch buffers are taken, not borrowed: a fragment that completes
  // at once (no live disk) runs a callback that may submit again, and that
  // nested call must not write into the buffers this one is reading.
  MappedFragments mapped = std::move(map_scratch_);
  layout_->Map(lba, sectors, &mapped);
  if (auditor_ != nullptr) {
    AuditMappedFragments(lba, sectors, mapped);
  }
  // Parked reads are recorded only on resubmission (the early return above),
  // with their original issue time, so parked waiting shows up in queue_us'
  // complement: the e2e latency counts it, the final leg does not.
  const uint64_t op_handle =
      ops_.Begin(op, lba, sectors, static_cast<uint32_t>(mapped.size()),
                 issue_us, std::move(done));

  // Every fragment is recorded, and a write's whole range barred, before any
  // fragment is submitted: a fragment completing at once runs the caller's
  // callback, which must see the rest of the write still in flight.
  std::vector<uint64_t> frag_keys = std::move(frag_scratch_);
  frag_keys.clear();
  for (size_t i = 0; i < mapped.size(); ++i) {
    const uint64_t frag_key = frags_.Acquire();
    FragState& frag = frags_[frag_key];
    frag.Reset();
    frag.op_handle = op_handle;
    frag.logical_lba = mapped.fragments[i].logical_lba;
    frag.sectors = mapped.fragments[i].sectors;
    frag.op = op;
    const std::span<const ReplicaLocation> copies = mapped.ReplicasOf(i);
    frag.replicas.assign(copies.begin(), copies.end());
    if (op == DiskOp::kWrite) {
      AddInflightWrite(frag_key, frag);
    }
    frag_keys.push_back(frag_key);
  }
  map_scratch_ = std::move(mapped);

  for (const uint64_t frag_key : frag_keys) {
    FragState& frag = frags_[frag_key];
    if (op == DiskOp::kRead) {
      SubmitReadFragment(frag, frag_key);
    } else {
      SubmitWriteFragment(frag, frag_key);
    }
  }
  frag_scratch_ = std::move(frag_keys);
}

bool ArrayController::SubmitReadFragment(FragState& frag, uint64_t frag_key) {
  const int dr = layout_->aspect().dr;
  const int dm = layout_->aspect().dm;
  frag.entries_remaining = 1;

  // Overlapping unaligned writes can leave every replica of this range
  // partially stale even though every *sector* has a clean copy somewhere.
  // Shrink the fragment to the longest prefix some replica covers cleanly and
  // resubmit the tail as its own fragment.
  uint32_t best_prefix = stale_sectors_.empty() ? frag.sectors : 0;
  for (const ReplicaLocation& loc : frag.replicas) {
    if (best_prefix == frag.sectors) {
      break;
    }
    uint32_t clean = 0;
    while (clean < frag.sectors &&
           !stale_sectors_.contains(ReplicaKey(loc.disk, loc.lba + clean))) {
      ++clean;
    }
    best_prefix = std::max(best_prefix, clean);
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
    const uint64_t tail_key = frags_.Acquire();
    FragState& tail = frags_[tail_key];
    tail.Reset();
    tail.op_handle = frag.op_handle;
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
    ops_.AddPart(frag.op_handle);
    frag.sectors = best_prefix;
    const bool head_ok = SubmitReadFragment(frag, frag_key);
    const bool tail_ok = SubmitReadFragment(frags_[tail_key], tail_key);
    return head_ok && tail_ok;
  }

  // Per-disk candidate sets, stale replicas excluded.
  cand_sets_.clear();
  cand_lbas_.clear();
  for (int m = 0; m < dm; ++m) {
    CandidateSet set;
    set.disk = frag.replicas[static_cast<size_t>(m) * dr].disk;
    if (drives_->failed(SlotId(set.disk))) {
      continue;
    }
    set.begin = static_cast<uint32_t>(cand_lbas_.size());
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
        cand_lbas_.push_back(BlockAddr(loc.lba));
      }
    }
    set.end = static_cast<uint32_t>(cand_lbas_.size());
    if (set.end > set.begin) {
      cand_sets_.push_back(set);
    }
  }
  if (cand_sets_.empty()) {
    // Every replica is on a failed disk or known bad: redundancy exhausted.
    CompleteFragmentUnrecoverable(frag_key, frag);
    return false;
  }

  // Mirror heuristic (Section 3.3): if a holding disk is idle, send the
  // request to the idle head closest to a copy; otherwise duplicate the
  // request into every holder's queue and cancel the losers on dispatch.
  // The targets are cand_sets_[first_target, end_target).
  size_t first_target = 0;
  size_t end_target = cand_sets_.size();
  if (cand_sets_.size() > 1) {
    size_t best_idle = cand_sets_.size();
    double best_cost = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < cand_sets_.size(); ++i) {
      const CandidateSet& set = cand_sets_[i];
      if (drives_->disk(SlotId(set.disk))->busy() ||
          drives_->QueueDepth(SlotId(set.disk)) > 0) {
        continue;
      }
      for (uint32_t c = set.begin; c < set.end; ++c) {
        const AccessPlan plan = drives_->predictor(SlotId(set.disk))->Predict(
            sim_->Now(), cand_lbas_[c], frag.sectors, /*is_write=*/false);
        const double cost =
            drives_->predictor(SlotId(set.disk))->EffectiveServiceUs(plan);
        if (cost < best_cost) {
          best_cost = cost;
          best_idle = i;
        }
      }
    }
    if (best_idle < cand_sets_.size()) {
      first_target = best_idle;
      end_target = best_idle + 1;
    }
  }

  for (size_t i = first_target; i < end_target; ++i) {
    const CandidateSet& set = cand_sets_[i];
    QueuedRequest entry;
    entry.id = drives_->AllocEntryId();
    entry.op = DiskOp::kRead;
    entry.sectors = frag.sectors;
    entry.candidates.assign(cand_lbas_.begin() + set.begin,
                            cand_lbas_.begin() + set.end);
    entry.arrival_us = sim_->Now();
    entry.tag = frag_key;
    frag.queued.emplace_back(set.disk, entry.id);
    drives_->Enqueue(SlotId(set.disk), DriveSet::Queue::kForeground,
                     std::move(entry));
  }
  // Dispatch after all duplicates are queued so cancellation state is
  // complete before the first pick. Dispatch only picks and starts accesses
  // (completions arrive as later events), so the scratch sets stay intact.
  for (size_t i = first_target; i < end_target; ++i) {
    drives_->MaybeDispatch(SlotId(cand_sets_[i].disk));
  }
  return true;
}

bool ArrayController::SubmitWriteFragment(FragState& frag, uint64_t frag_key) {
  const int dr = layout_->aspect().dr;
  const int dm = layout_->aspect().dm;

  // Both modes queue every entry before dispatching any, and dispatch walks
  // the same live disks again: dispatch starts accesses but completes none,
  // so no slot can fail in between.
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
      drives_->Enqueue(SlotId(loc.disk), DriveSet::Queue::kForeground,
                       std::move(entry));
    }
    for (const ReplicaLocation& loc : frag.replicas) {
      if (!drives_->failed(SlotId(loc.disk))) {
        drives_->MaybeDispatch(SlotId(loc.disk));
      }
    }
    return true;
  }

  // Background propagation: the first copy is scheduled like a read (any
  // mirror disk, any rotational replica); the rest become delayed writes once
  // the winner is known.
  frag.entries_remaining = 1;
  bool queued = false;
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
    entry.candidates.reserve(static_cast<size_t>(dr));
    for (int r = 0; r < dr; ++r) {
      entry.candidates.push_back(
          BlockAddr(frag.replicas[static_cast<size_t>(m) * dr + r].lba));
    }
    frag.queued.emplace_back(disk, entry.id);
    drives_->Enqueue(SlotId(disk), DriveSet::Queue::kForeground,
                     std::move(entry));
    queued = true;
  }
  if (!queued) {
    CompleteFragmentUnrecoverable(frag_key, frag);
    return false;
  }
  for (int m = 0; m < dm; ++m) {
    const uint32_t disk = frag.replicas[static_cast<size_t>(m) * dr].disk;
    if (!drives_->failed(SlotId(disk))) {
      drives_->MaybeDispatch(SlotId(disk));
    }
  }
  return true;
}

void ArrayController::AuditMappedFragments(
    uint64_t lba, uint32_t sectors, const MappedFragments& fragments) const {
  std::vector<AuditFragment> audit_frags;
  audit_frags.reserve(fragments.size());
  for (size_t i = 0; i < fragments.size(); ++i) {
    AuditFragment af;
    af.logical_lba = fragments.fragments[i].logical_lba;
    af.sectors = fragments.fragments[i].sectors;
    af.replicas.reserve(fragments.copies);
    for (const ReplicaLocation& loc : fragments.ReplicasOf(i)) {
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
  if (!entry.delayed) {
    CancelSiblings(entry.tag, slot.value(), entry.id);
  }
}

void ArrayController::CancelSiblings(uint64_t frag_key, uint32_t winner_disk,
                                     uint64_t winner_entry) {
  FragState& frag = frags_[frag_key];
  for (const auto& [disk, entry_id] : frag.queued) {
    if (disk == winner_disk && entry_id == winner_entry) {
      continue;
    }
    if (drives_->Cancel(SlotId(disk), entry_id)) {
      ++stats_.read_duplicates_cancelled;
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

  FragState& frag = frags_[entry.tag];
  MIMDRAID_CHECK_GT(frag.entries_remaining, 0u);
  if (frag.op == DiskOp::kWrite) {
    ++frag.successes;
  }
  if (--frag.entries_remaining == 0) {
    const FinalLeg leg = LegOf(entry.arrival_us, result);
    CompleteFragment(entry.tag, frag, disk, chosen_lba, result.completion_us,
                     &leg);
  }
}

void ArrayController::CompleteFragment(uint64_t frag_key, FragState& frag,
                                       uint32_t chosen_disk,
                                       uint64_t chosen_lba,
                                       SimTime completion_us,
                                       const FinalLeg* leg) {
  const uint64_t op_handle = frag.op_handle;
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
      for (uint32_t s = 0; s < frag.sectors && !stale_sectors_.empty(); ++s) {
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
    RemoveInflightWrite(frag_key, frag);
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

  frags_.Release(frag_key);
  ops_.PartDone(op_handle, frag_status, completion_us, leg);
  if (op == DiskOp::kWrite) {
    WakeParked();
  }
}

void ArrayController::CompleteFragmentUnrecoverable(uint64_t frag_key,
                                                    FragState& frag) {
  frag.status = IoStatus::kUnrecoverable;
  CompleteFragment(frag_key, frag, /*chosen_disk=*/0, /*chosen_lba=*/0,
                   sim_->Now());
}

// --- Fault recovery -------------------------------------------------------

void ArrayController::HandleEntryFailure(uint32_t disk,
                                         const QueuedRequest& entry,
                                         uint64_t chosen_lba,
                                         const DiskOpResult& result) {
  if (entry.delayed) {
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
  FragState& frag = frags_[entry.tag];
  ops_.NoteRecovery(frag.op_handle);

  // A timeout says nothing about the media; retry in place (bounded, with
  // backoff) before writing the path off.
  if (result.status == IoStatus::kTimeout && !drives_->failed(SlotId(disk)) &&
      frag.attempts + 1 < options_.engine.retry.max_attempts) {
    ++frag.attempts;
    ++fstats().retries_issued;
    drives_->ResolveFault(entry.id, FaultResolution::kRetried, false);
    const uint64_t frag_key = entry.tag;
    drives_->ScheduleRecovery(frag.attempts, [this, frag_key]() {
      // The handle's generation keeps a fragment that has since completed
      // (and whose slot may hold another fragment now) from being resent.
      FragState* retry = frags_.Find(frag_key);
      if (retry == nullptr) {
        return;
      }
      SubmitReadFragment(*retry, frag_key);
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
    drives_->ResolveFault(entry.id, FaultResolution::kFailedOver,
                          target_failed);
  } else {
    // No live replica remained; the fragment completed as kUnrecoverable.
    drives_->ResolveFault(entry.id, FaultResolution::kSurfaced, target_failed);
  }
}

void ArrayController::HandleWriteFailure(uint32_t disk,
                                         const QueuedRequest& entry,
                                         uint64_t chosen_lba,
                                         const DiskOpResult& result) {
  (void)result;
  FragState& frag = frags_[entry.tag];
  ops_.NoteRecovery(frag.op_handle);
  const uint64_t frag_key = entry.tag;

  if (!options_.foreground_write_propagation) {
    // First-copy write: duplicates were cancelled at dispatch, so this entry
    // carried the fragment alone.
    if (drives_->failed(SlotId(disk))) {
      ++fstats().failovers;
      if (SubmitWriteFragment(frag, frag_key)) {
        drives_->ResolveFault(entry.id, FaultResolution::kFailedOver, true);
      } else {
        drives_->ResolveFault(entry.id, FaultResolution::kSurfaced, true);
      }
      return;
    }
    // Transient failure on a live disk: retry without an attempt bound — the
    // data exists nowhere else yet, so giving up is not an option until the
    // disk itself is declared dead.
    ++frag.attempts;
    ++fstats().retries_issued;
    drives_->ResolveFault(entry.id, FaultResolution::kRetried, false);
    drives_->ScheduleRecovery(frag.attempts, [this, frag_key]() {
      FragState* retry = frags_.Find(frag_key);
      if (retry == nullptr) {
        return;
      }
      SubmitWriteFragment(*retry, frag_key);
    });
    return;
  }

  // Foreground propagation: each entry is one replica.
  if (drives_->failed(SlotId(disk))) {
    // This copy is lost; surviving copies carry the fragment. If none
    // succeeded by the time all entries account, the write is unrecoverable.
    drives_->ResolveFault(entry.id, FaultResolution::kAbandoned, true);
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
  drives_->ResolveFault(entry.id, FaultResolution::kRetried, false);
  const uint32_t attempt = retry.attempts;
  drives_->ScheduleRecovery(
      attempt, [this, disk, retry = std::move(retry)]() mutable {
        if (drives_->failed(SlotId(disk))) {
          LoseWriteReplica(retry.tag);
          return;
        }
        retry.arrival_us = sim_->Now();
        drives_->Enqueue(SlotId(disk), DriveSet::Queue::kForeground,
                         std::move(retry));
        drives_->MaybeDispatch(SlotId(disk));
      });
}

void ArrayController::LoseWriteReplica(uint64_t frag_key) {
  FragState& frag = frags_[frag_key];
  MIMDRAID_CHECK_GT(frag.entries_remaining, 0u);
  if (--frag.entries_remaining == 0) {
    if (frag.successes == 0) {
      frag.status = IoStatus::kUnrecoverable;
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
    drives_->ResolveFault(entry.id, FaultResolution::kAbandoned, true);
    return;
  }
  if (!is_owner) {
    // A newer write superseded this propagation while it was in flight; the
    // live owner entry will rewrite the location with fresher data.
    drives_->ResolveFault(entry.id, FaultResolution::kRetried, false);
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
  drives_->ResolveFault(entry.id, FaultResolution::kRetried, false);
  const uint32_t attempts = entry.attempts + 1;
  const uint32_t sectors = entry.sectors;
  drives_->ScheduleRecovery(attempts, [this, disk, chosen_lba, sectors,
                                       attempts]() {
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

void ArrayController::OnSlotFailed(SlotId slot,
                                   std::vector<QueuedRequest> drained) {
  const uint32_t disk = slot.value();
  for (QueuedRequest& e : drained) {
    if (e.delayed) {
      // Pending propagation to a dead disk, queued or forced into the FG
      // queue by the table limit: meaningless now.
      const uint64_t lba = e.candidates.front().lba.value();
      if (nvram_.EraseIfOwner(disk, lba, e.id)) {
        if (auditor_ != nullptr) {
          auditor_->OnNvramErase(disk, lba);
        }
      }
      for (uint32_t s = 0; s < e.sectors; ++s) {
        stale_sectors_.erase(ReplicaKey(disk, lba + s));
      }
      ++fstats().propagations_abandoned;
      continue;
    }
    FragState& frag = frags_[e.tag];
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
      ops_.NoteRecovery(frag.op_handle);
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
    drives_->EndScrubSweep();
  }
  const uint32_t span = static_cast<uint32_t>(std::min<uint64_t>(
      layout_->stripe_unit_sectors(), dataset - scrub_cursor_));
  for (const ArrayFragment& f : layout_->Map(scrub_cursor_, span)) {
    for (const ReplicaLocation& loc : f.replicas) {
      const bool live = !drives_->failed(SlotId(loc.disk));
      drives_->TallyScrubRead(f.sectors, live);
      if (!live) {
        continue;
      }
      // mdl-ok(MDL002): the read is its own record
      (void)drives_->EnqueueCommand(
          SlotId(loc.disk), DriveSet::Queue::kDelayed, DiskOp::kRead,
          BlockAddr(loc.lba), f.sectors,
          [this, loc, sectors = f.sectors](const DiskOpResult& r,
                                           uint64_t id) {
            ScrubReadDone(loc, sectors, r, id);
          });
    }
  }
  scrub_cursor_ += span;
}

void ArrayController::ScrubReadDone(ReplicaLocation loc, uint32_t sectors,
                                    const DiskOpResult& result, uint64_t id) {
  if (id == 0) {
    return;  // drained from a failed slot before it ran: nothing was read
  }
  ++fstats().scrub_reads;
  // The read covered its sectors even when it surfaced a media error: the
  // sweep's job is discovery, and discovery is what happened.
  fstats().scrub_sectors_read += sectors;
  if (result.ok()) {
    return;
  }
  const bool disk_failed = drives_->failed(SlotId(loc.disk));
  if (result.status == IoStatus::kMediaError && !disk_failed) {
    // Latent sector error caught by the sweep: rewrite the replica with the
    // logically equivalent data the scrubber reads from its siblings in the
    // same pass; the drive remaps the sector on write.
    ++fstats().scrub_repairs;
    ++fstats().repairs_queued;
    AddDelayedWrite(loc.disk, loc.lba, sectors);
    drives_->ResolveFault(id, FaultResolution::kRepaired, false);
  } else if (disk_failed) {
    drives_->ResolveFault(id, FaultResolution::kAbandoned, true);
  } else {
    // Transient noise on a verification read: the next sweep revisits the
    // chunk, so the observation is surfaced (counted) and dropped.
    drives_->ResolveFault(id, FaultResolution::kSurfaced, false);
  }
}

void ArrayController::AddDelayedWrite(uint32_t disk, uint64_t lba,
                                      uint32_t sectors, uint32_t attempts) {
  const std::optional<uint64_t> existing_owner = nvram_.OwnerOf(disk, lba);
  if (existing_owner.has_value()) {
    ++stats_.delayed_writes_discarded;
    // If the superseded entry is still queued, it simply carries the newer
    // data ("data dies young", Section 3.4) — nothing more to do. If it is
    // already in flight, a fresh propagation must follow it.
    if (drives_->Queued(SlotId(disk), *existing_owner)) {
      return;  // still queued; superseded in place
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
  drives_->Enqueue(SlotId(disk), DriveSet::Queue::kDelayed, std::move(entry));
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
  if (const std::optional<QueuedRequest> cancelled =
          drives_->Cancel(SlotId(disk), *owner)) {
    for (uint32_t s = 0; s < cancelled->sectors; ++s) {
      stale_sectors_.erase(ReplicaKey(disk, lba + s));
    }
    return;
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
    const std::optional<SlotId> slot = drives_->ForceOutOldestDelayed();
    if (!slot.has_value()) {
      return;  // everything pending is already in flight or forced
    }
    ++stats_.delayed_writes_forced;
    drives_->MaybeDispatch(*slot);
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
  const uint64_t unit = layout_->stripe_unit_sectors();
  const uint64_t end = lba + sectors;
  // Units in ascending order: every sector of a unit precedes the next
  // unit's, so the first unit with an overlap holds the first blocked sector.
  for (uint64_t u = lba / unit; u * unit < end; ++u) {
    const uint64_t* head = inflight_writes_.Find(u);
    if (head == nullptr) {
      continue;
    }
    uint64_t first = UINT64_MAX;
    for (uint64_t key = *head; key != 0;) {
      const FragState& w = *frags_.Find(key);
      const uint64_t lo = std::max(w.logical_lba, lba);
      const uint64_t hi = std::min(w.logical_lba + w.sectors, end);
      if (lo < hi) {
        first = std::min(first, lo);
      }
      key = w.next_inflight;
    }
    if (first != UINT64_MAX) {
      return first;
    }
  }
  return std::nullopt;
}

void ArrayController::AddInflightWrite(uint64_t frag_key, FragState& frag) {
  uint64_t& head =
      inflight_writes_[frag.logical_lba / layout_->stripe_unit_sectors()];
  frag.next_inflight = head;
  head = frag_key;
}

void ArrayController::RemoveInflightWrite(uint64_t frag_key,
                                          FragState& frag) {
  const uint64_t unit = frag.logical_lba / layout_->stripe_unit_sectors();
  uint64_t* head = inflight_writes_.Find(unit);
  MIMDRAID_CHECK(head != nullptr);
  if (*head == frag_key) {
    if (frag.next_inflight == 0) {
      inflight_writes_.Erase(unit);
    } else {
      *head = frag.next_inflight;
    }
  } else {
    FragState* prev = &frags_[*head];
    while (prev->next_inflight != frag_key) {
      prev = &frags_[prev->next_inflight];
    }
    prev->next_inflight = frag.next_inflight;
  }
  frag.next_inflight = 0;
  if (waiters_.empty()) {
    return;
  }
  // Sectors no other in-flight fragment covers have just been released.
  for (uint32_t s = 0; s < frag.sectors; ++s) {
    const uint64_t sector = frag.logical_lba + s;
    if (waiters_.contains(sector) && !FirstInflightSector(sector, 1)) {
      wake_sectors_.push_back(sector);
    }
  }
}

// The wake releases exactly the reads a full rescan of parked_ would: every
// parked read is registered under one blocking sector, and a read can only
// become unblocked when the last write fragment covering that sector leaves
// the index, which queues the sector here. Sectors are visited at wake time, after the completion
// callback, so a write that callback submitted re-blocks its readers just as
// it would have under a rescan.
void ArrayController::WakeParked() {
  if (wake_sectors_.empty()) {
    return;
  }
  std::vector<uint64_t> ready;
  for (uint64_t sector : wake_sectors_) {
    if (FirstInflightSector(sector, 1)) {
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
  MIMDRAID_CHECK_EQ(drives_->QueueDepth(SlotId(disk)), 0u);
  if (layout_->aspect().dm < 2) {
    // An SR-Array/stripe column has no cross-disk copy: losing the disk
    // loses data (the paper's Section 2.5 reliability tradeoff).
    return false;
  }
  drives_->MarkFailed(SlotId(disk));
  // Pending propagations to the failed disk are meaningless now; rebuild and
  // scrub reads queued there complete as failed.
  OnSlotFailed(SlotId(disk), drives_->DrainFailedSlot(SlotId(disk)));
  return true;
}

void ArrayController::RebuildDisk(uint32_t disk, DoneFn done) {
  MIMDRAID_CHECK(drives_->failed(SlotId(disk)));
  MIMDRAID_CHECK_GE(layout_->aspect().dm, 2);
  drives_->MarkReplaced(SlotId(disk));  // replacement drive in the slot
  const uint64_t stream = rebuilds_.Acquire();
  RebuildStream& s = rebuilds_[stream];
  s.disk = disk;
  s.done = std::move(done);
  RebuildNextFragment(stream, 0);
}

void ArrayController::FinishRebuildStream(uint64_t stream, IoStatus status) {
  DoneFn done = std::move(rebuilds_[stream].done);
  rebuilds_.Release(stream);
  if (done) {
    done(IoResult{status, sim_->Now(), 0});
  }
}

void ArrayController::RebuildNextFragment(uint64_t stream, uint64_t next_lba) {
  // Stream the dataset fragment by fragment; for each fragment with replicas
  // on the stream's disk, read a surviving copy and rewrite this disk's
  // copies. The copy traffic rides the delayed queues, yielding to
  // foreground work.
  RebuildStream& s = rebuilds_[stream];
  const uint32_t disk = s.disk;
  if (drives_->failed(SlotId(disk))) {
    // The replacement itself died mid-rebuild; abort the stream.
    FinishRebuildStream(stream, IoStatus::kDiskFailed);
    return;
  }
  const uint64_t dataset = layout_->dataset_sectors();
  uint64_t lba = next_lba;
  while (lba < dataset) {
    const uint32_t span = static_cast<uint32_t>(
        std::min<uint64_t>(layout_->stripe_unit_sectors(), dataset - lba));
    const std::vector<ArrayFragment> frags = layout_->Map(lba, span);
    for (const ArrayFragment& f : frags) {
      s.targets.clear();
      const ReplicaLocation* source = nullptr;
      for (const ReplicaLocation& loc : f.replicas) {
        if (loc.disk == disk) {
          s.targets.push_back(loc);
        } else if (source == nullptr && !drives_->failed(SlotId(loc.disk)) &&
                   !bad_sources_.contains(ReplicaKey(loc.disk, loc.lba))) {
          source = &loc;
        }
      }
      if (s.targets.empty()) {
        continue;
      }
      if (source == nullptr) {
        // Every surviving copy is failed or known bad: this fragment cannot
        // be re-populated. Count it and keep rebuilding the rest.
        ++fstats().rebuild_fragments_lost;
        continue;
      }
      s.resume = f.logical_lba + f.sectors;
      s.len = f.sectors;
      const uint64_t frag_start = f.logical_lba;
      const ReplicaLocation src = *source;

      // mdl-ok(MDL002): the stream tracks itself
      (void)drives_->EnqueueCommand(
          SlotId(src.disk), DriveSet::Queue::kDelayed, DiskOp::kRead,
          BlockAddr(src.lba), s.len,
          [this, stream, frag_start, src](const DiskOpResult& r,
                                          uint64_t id) {
            RebuildStream& copy = rebuilds_[stream];
            if (r.ok()) {
              copy.writes_left = copy.targets.size();
              // By index: the last write may already move the stream on,
              // which refills `targets`.
              for (size_t i = 0, n = copy.targets.size(); i < n; ++i) {
                EnqueueRebuildWrite(stream, rebuilds_[stream].targets[i]);
              }
              return;
            }
            if (r.status == IoStatus::kMediaError) {
              // The source replica is bad: exclude it from future sourcing
              // and rewrite it from whichever copy the restart picks.
              bad_sources_.insert(ReplicaKey(src.disk, src.lba));
              if (!drives_->failed(SlotId(src.disk))) {
                ++fstats().repairs_queued;
                AddDelayedWrite(src.disk, src.lba, copy.len);
              }
            }
            ++fstats().failovers;
            // Restart the fragment copy with a different source.
            RebuildNextFragment(stream, frag_start);
            drives_->ResolveFault(id, FaultResolution::kFailedOver,
                                  drives_->failed(SlotId(src.disk)));
          });
      return;  // continue from the completion callbacks
    }
    lba += span;
  }
  FinishRebuildStream(stream, IoStatus::kOk);
}

void ArrayController::RebuildWriteSettled(uint64_t stream) {
  RebuildStream& s = rebuilds_[stream];
  if (--s.writes_left == 0) {
    RebuildNextFragment(stream, s.resume);
  }
}

void ArrayController::EnqueueRebuildWrite(uint64_t stream,
                                          ReplicaLocation loc) {
  if (drives_->failed(SlotId(loc.disk))) {
    // The target slot died between sourcing the copy and issuing the write;
    // an entry queued to a failed disk would never dispatch. The fragment is
    // lost and the stream advances (RebuildNextFragment aborts the rebuild
    // when the target itself is the failed disk).
    ++fstats().rebuild_fragments_lost;
    RebuildWriteSettled(stream);
    return;
  }
  (void)drives_->EnqueueCommand(  // mdl-ok(MDL002): the stream tracks itself
      SlotId(loc.disk), DriveSet::Queue::kDelayed, DiskOp::kWrite,
      BlockAddr(loc.lba), rebuilds_[stream].len,
      [this, stream, loc](const DiskOpResult& r, uint64_t id) {
        const bool target_failed = drives_->failed(SlotId(loc.disk));
        if (!r.ok() && !target_failed) {
          // Transient failure of the copy write: retry after backoff, without
          // an attempt bound. The write itself repairs any latent error at
          // the target (firmware remap).
          ++fstats().retries_issued;
          drives_->ScheduleRecovery(1, [this, stream, loc]() {
            if (drives_->failed(SlotId(loc.disk))) {
              ++fstats().rebuild_fragments_lost;
              RebuildWriteSettled(stream);
              return;
            }
            EnqueueRebuildWrite(stream, loc);
          });
          drives_->ResolveFault(id, FaultResolution::kRetried, false);
          return;
        }
        if (r.ok()) {
          ++rebuild_copied_;
        } else {
          ++fstats().rebuild_fragments_lost;  // target slot died mid-copy
        }
        RebuildWriteSettled(stream);
        if (!r.ok()) {
          drives_->ResolveFault(id, FaultResolution::kAbandoned, true);
        }
      });
}

void ArrayController::ScheduleRecalibration(uint32_t disk) {
  recalibration_events_[disk] =
      sim_->ScheduleAfter(options_.recalibration_interval_us, [this, disk]() {
    auto* hp = dynamic_cast<HeadPositionPredictor*>(drives_->predictor(SlotId(disk)));
    // A failed slot has no head to recalibrate.
    if (hp != nullptr && !drives_->failed(SlotId(disk))) {
      // mdl-ok(MDL002): the read is its own record
      (void)drives_->EnqueueCommand(
          SlotId(disk), DriveSet::Queue::kForeground, DiskOp::kRead,
          BlockAddr(hp->reference_lba()), 1,
          [this, disk](const DiskOpResult& r, uint64_t id) {
            if (!r.ok()) {
              // Nothing to recover: the observation is simply missed and the
              // next timer issues a fresh one.
              drives_->ResolveFault(id, FaultResolution::kSurfaced,
                                    drives_->failed(SlotId(disk)));
              return;
            }
            ++stats_.recalibration_reads;
            if (auto* current = dynamic_cast<HeadPositionPredictor*>(
                    drives_->predictor(SlotId(disk)))) {
              current->AddReferenceObservation(r.completion_us);
            }
          });
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
  registry->Set("array.recalibration_reads",
                static_cast<double>(stats_.recalibration_reads));
  registry->Set("array.parked_reads",
                static_cast<double>(stats_.parked_reads));
  registry->Set("array.stale_fallback_reads",
                static_cast<double>(stats_.stale_fallback_reads));
  registry->Set("array.delayed_backlog", static_cast<double>(nvram_.size()));
  registry->Set("array.rebuild_copied_fragments",
                static_cast<double>(rebuild_copied_));
}

}  // namespace mimdraid

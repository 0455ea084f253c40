#include "src/raid5/raid5_controller.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/util/check.h"

namespace mimdraid {

namespace {

// Status severity follows enum declaration order.
IoStatus Worse(IoStatus a, IoStatus b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

DriveSetOptions EngineOptions(const Raid5ControllerOptions& options) {
  DriveSetOptions engine;
  engine.scheduler = options.scheduler;
  engine.max_scan = options.max_scan;
  engine.auditor = options.auditor;
  engine.fault_injector = options.fault_injector;
  engine.collector = options.collector;
  engine.retry = options.retry;
  engine.disk_error_fail_threshold = options.disk_error_fail_threshold;
  engine.scrub_interval_us = options.scrub_interval_us;
  engine.scrub_gating = options.scrub_gating;
  return engine;
}

}  // namespace

Raid5Controller::Raid5Controller(Simulator* sim, std::vector<SimDisk*> disks,
                                 std::vector<AccessPredictor*> predictors,
                                 const Raid5Layout* layout,
                                 const Raid5ControllerOptions& options)
    : sim_(sim),
      layout_(layout),
      options_(options),
      auditor_(options.auditor),
      collector_(options.collector) {
  MIMDRAID_CHECK(sim != nullptr);
  MIMDRAID_CHECK(layout != nullptr);
  MIMDRAID_CHECK_EQ(disks.size(), layout->num_disks());
  MIMDRAID_CHECK_EQ(predictors.size(), disks.size());
  drives_ = std::make_unique<DriveSet>(sim, std::move(disks),
                                       std::move(predictors),
                                       static_cast<DriveSetClient*>(this),
                                       EngineOptions(options));
  drives_->StartScrub();
}

Raid5Controller::~Raid5Controller() = default;

bool Raid5Controller::Idle() const {
  if (!ops_.empty() || rebuilding_disk_ >= 0 ||
      drives_->pending_recovery() > 0) {
    return false;
  }
  return drives_->AllDrivesQuiet();
}

void Raid5Controller::AuditQuiescent() const {
  if (auditor_ == nullptr) {
    return;
  }
  auditor_->CheckQuiescent(drives_->TotalFgQueued(),
                           drives_->TotalDelayedQueued(),
                           /*nvram_entries=*/0, /*stale_sectors=*/0,
                           /*inflight_writes=*/0, /*parked_requests=*/0,
                           /*waiter_entries=*/0);
}

void Raid5Controller::ExportStats(StatsRegistry* registry) const {
  MIMDRAID_CHECK(registry != nullptr);
  ExportFaultStats(drives_->fstats(), registry);
  registry->Set("raid5.reads_completed",
                static_cast<double>(stats_.reads_completed));
  registry->Set("raid5.writes_completed",
                static_cast<double>(stats_.writes_completed));
  registry->Set("raid5.rmw_writes", static_cast<double>(stats_.rmw_writes));
  registry->Set("raid5.full_stripe_writes",
                static_cast<double>(stats_.full_stripe_writes));
  registry->Set("raid5.degraded_reads",
                static_cast<double>(stats_.degraded_reads));
  registry->Set("raid5.degraded_writes",
                static_cast<double>(stats_.degraded_writes));
  registry->Set("raid5.rebuilt_rows",
                static_cast<double>(stats_.rebuilt_rows));
}

bool Raid5Controller::FailDisk(SlotId disk) {
  MIMDRAID_CHECK_LT(disk.value(), drives_->num_slots());
  if (drives_->failed(disk)) {
    return true;
  }
  drives_->MarkFailed(disk);
  if (drives_->fault_injector() != nullptr) {
    drives_->fault_injector()->FailStop(disk.value());
  }
  // Outstanding queue entries for the failed disk cannot complete on it; they
  // are re-driven through their failure handlers (degraded service or
  // kUnrecoverable), exactly as on an auto-detected failure.
  drives_->FailQueuedCommands(disk);
  return true;
}

void Raid5Controller::OnEntryComplete(SlotId /*disk*/,
                                      const QueuedRequest& /*entry*/,
                                      BlockAddr /*chosen_lba*/,
                                      const DiskOpResult& /*result*/) {
  // Every RAID-5 sub-op registers a command callback with the engine; a
  // completion falling through to the raw-entry hook means the command table
  // lost an entry.
  MIMDRAID_CHECK(false);
}

void Raid5Controller::OnSlotFailed(SlotId disk) {
  drives_->FailQueuedCommands(disk);
}

bool Raid5Controller::SparePromotionAllowed(SlotId /*disk*/) {
  return rebuilding_disk_ < 0;
}

uint64_t Raid5Controller::UsedSpanSectors(SlotId /*disk*/) const {
  return static_cast<uint64_t>(layout_->num_rows()) *
         layout_->stripe_unit_sectors();
}

void Raid5Controller::OnSparePromoted(SlotId disk) {
  // The spare holds no data yet: rebuild the slot from parity immediately.
  // Fragments planned before promotion keep treating the slot as unusable
  // (DiskUsable is rebuild-cursor aware), so service stays correct while the
  // reconstruction streams.
  Rebuild(disk, [this](const IoResult& r) {
    if (r.status == IoStatus::kOk) {
      ++fstats().spare_rebuilds_completed;
    }
  });
}

bool Raid5Controller::ScrubEligible() const {
  return ops_.empty() && rebuilding_disk_ < 0;
}

void Raid5Controller::ScrubStep() {
  const uint32_t rows = layout_->num_rows();
  if (rows == 0) {
    return;
  }
  if (scrub_cursor_ >= rows) {
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
  const uint32_t row = scrub_cursor_++;
  const uint32_t unit = layout_->stripe_unit_sectors();
  const uint64_t lba = static_cast<uint64_t>(row) * unit;
  for (uint32_t d = 0; d < layout_->num_disks(); ++d) {
    sweep_sectors_nominal_ += unit;
    if (!DiskUsable(d, row)) {
      continue;
    }
    sweep_sectors_issued_ += unit;
    EnqueueDiskOp(
        d, DiskOp::kRead, lba, unit,
        [this, d, lba, unit](const DiskOpResult& r, uint64_t id) {
          ++fstats().scrub_reads;
          fstats().scrub_sectors_read += unit;
          if (r.ok()) {
            return;
          }
          if (r.status == IoStatus::kMediaError &&
              !drives_->failed(SlotId(d))) {
            // Latent sector error caught before a failure could turn it into
            // data loss: rewrite the unit so the drive reallocates the bad
            // sectors. The replacement data is reconstructible from the row
            // peers read by this same sweep.
            ++fstats().scrub_repairs;
            ++fstats().repairs_queued;
            EnqueueDiskOp(d, DiskOp::kWrite, lba, unit,
                          [this](const DiskOpResult& w, uint64_t wid) {
                            if (!w.ok()) {
                              ResolveCommandFault(
                                  wid, FaultResolution::kSurfaced,
                                  w.status == IoStatus::kDiskFailed);
                            }
                          });
            ResolveCommandFault(id, FaultResolution::kRepaired,
                                /*target_disk_failed=*/false);
            return;
          }
          const bool disk_failed = drives_->failed(SlotId(d));
          ResolveCommandFault(id,
                              disk_failed ? FaultResolution::kAbandoned
                                          : FaultResolution::kSurfaced,
                              disk_failed);
        });
  }
}

bool Raid5Controller::DiskUsable(uint32_t disk, uint32_t row) const {
  if (!drives_->failed(SlotId(disk))) {
    if (rebuilding_disk_ == static_cast<int>(disk)) {
      return row < rebuilt_rows_;
    }
    return true;
  }
  return false;
}

void Raid5Controller::Submit(DiskOp op, uint64_t lba, uint32_t sectors,
                             DoneFn done) {
  MIMDRAID_CHECK_GT(sectors, 0u);
  const uint64_t op_id = next_op_id_++;
  if (collector_ != nullptr) {
    collector_->OnRequestArrival(op_id, op == DiskOp::kWrite, lba, sectors,
                                 sim_->Now());
  }
  const std::vector<Raid5Fragment> frags = layout_->Map(lba, sectors);
  PendingOp& pending = ops_[op_id];
  pending.remaining = static_cast<uint32_t>(frags.size());
  pending.done = std::move(done);
  pending.op = op;
  for (const Raid5Fragment& frag : frags) {
    if (op == DiskOp::kRead) {
      SubmitReadFragment(op_id, frag);
    } else {
      SubmitWriteFragment(op_id, frag);
    }
  }
}

void Raid5Controller::SubmitReadFragment(uint64_t op_id,
                                         const Raid5Fragment& frag,
                                         bool force_degraded,
                                         bool repair_on_success) {
  auto work = std::make_shared<FragWork>();
  work->op_id = op_id;
  work->frag = frag;
  work->op = DiskOp::kRead;
  work->force_degraded = force_degraded;
  work->repair_pending = repair_on_success;

  if (!force_degraded && DiskUsable(frag.data_disk, frag.row)) {
    work->phase_remaining = 1;
    EnqueueDiskOp(
        frag.data_disk, DiskOp::kRead, frag.disk_lba, frag.sectors,
        [this, work](const DiskOpResult& r, uint64_t id) {
          if (work->abandoned) {
            if (!r.ok()) {
              ResolveCommandFault(id, FaultResolution::kSurfaced,
                                  r.status == IoStatus::kDiskFailed);
            }
            return;
          }
          if (r.ok()) {
            FragmentPhaseDone(work, r.completion_us, &r);
            return;
          }
          // Direct read failed past the retry budget: fail over to peer
          // reconstruction. A media error additionally queues a repair
          // rewrite once the data is back in hand.
          work->abandoned = true;
          NoteOpRecovery(work->op_id);
          ++fstats().failovers;
          const bool repair =
              r.status == IoStatus::kMediaError &&
              !drives_->failed(SlotId(work->frag.data_disk));
          ResolveCommandFault(id, FaultResolution::kFailedOver,
                              drives_->failed(SlotId(work->frag.data_disk)));
          SubmitReadFragment(work->op_id, work->frag,
                             /*force_degraded=*/true, repair);
        });
    return;
  }

  // Degraded read: reconstruct from every surviving row member (including
  // parity).
  const std::vector<uint32_t> peers =
      layout_->RowPeers(frag.row, frag.data_disk);
  bool peers_usable = !peers.empty();
  for (uint32_t peer : peers) {
    if (!DiskUsable(peer, frag.row)) {
      peers_usable = false;
    }
  }
  if (!peers_usable) {
    // Second failure inside the reconstruction set: the data is gone. Finish
    // the fragment gracefully instead of crashing.
    CompleteFragmentFailed(op_id, IoStatus::kUnrecoverable);
    return;
  }
  work->degraded = true;
  work->phase_remaining = static_cast<int>(peers.size());
  ++stats_.degraded_reads;
  ++fstats().reconstructions;
  for (uint32_t peer : peers) {
    EnqueueDiskOp(peer, DiskOp::kRead, frag.disk_lba, frag.sectors,
                  [this, work](const DiskOpResult& r, uint64_t id) {
                    if (!r.ok()) {
                      // A fault while reconstructing an already-missing
                      // member: the loss is surfaced to the submitter.
                      ResolveCommandFault(id, FaultResolution::kSurfaced,
                                          r.status == IoStatus::kDiskFailed);
                    }
                    if (work->abandoned) {
                      return;
                    }
                    if (!r.ok()) {
                      work->status =
                          Worse(work->status, IoStatus::kUnrecoverable);
                    }
                    FragmentPhaseDone(work, r.completion_us, &r);
                  });
  }
}

void Raid5Controller::SubmitWriteFragment(uint64_t op_id,
                                          const Raid5Fragment& frag,
                                          bool force_degraded) {
  auto work = std::make_shared<FragWork>();
  work->op_id = op_id;
  work->frag = frag;
  work->op = DiskOp::kWrite;
  work->force_degraded = force_degraded;

  const bool data_ok = !force_degraded && DiskUsable(frag.data_disk, frag.row);
  const bool parity_ok = DiskUsable(frag.parity_disk, frag.row);

  // Shared handler for every read-phase sub-op of a write fragment.
  auto read_cb = [this, work](const DiskOpResult& r, uint64_t id) {
    if (work->abandoned) {
      if (!r.ok()) {
        ResolveCommandFault(id, FaultResolution::kSurfaced,
                            r.status == IoStatus::kDiskFailed);
      }
      return;
    }
    if (!r.ok()) {
      if (r.status == IoStatus::kDiskFailed) {
        // Row membership changed under us: re-plan against the survivors.
        work->abandoned = true;
        NoteOpRecovery(work->op_id);
        ResolveCommandFault(id, FaultResolution::kFailedOver,
                            /*target_disk_failed=*/true);
        SubmitWriteFragment(work->op_id, work->frag, work->force_degraded);
        return;
      }
      if (!work->force_degraded) {
        // Old data or old parity is unreadable; a reconstruct-write needs
        // neither.
        work->abandoned = true;
        NoteOpRecovery(work->op_id);
        ++fstats().failovers;
        ResolveCommandFault(id, FaultResolution::kFailedOver,
                            /*target_disk_failed=*/false);
        SubmitWriteFragment(work->op_id, work->frag, /*force_degraded=*/true);
        return;
      }
      // Already reconstructing and a peer unit is unreadable: the new parity
      // cannot be computed.
      work->status = Worse(work->status, IoStatus::kUnrecoverable);
      ResolveCommandFault(id, FaultResolution::kSurfaced,
                          /*target_disk_failed=*/false);
    }
    FragmentPhaseDone(work, r.completion_us, &r);
  };

  if (data_ok && parity_ok) {
    if (frag.sectors == layout_->stripe_unit_sectors() &&
        frag.disk_lba % layout_->stripe_unit_sectors() == 0) {
      // Unit-aligned write: new parity still needs the other units unless the
      // whole row is written; a unit-granular controller cannot see sibling
      // fragments, so treat a full-unit write as reconstruct-write: read the
      // other data units, then write data + parity. Requires every other
      // data unit to be readable; with a dead peer in the row, fall through
      // to RMW instead (old data + old parity need no peers), which also
      // keeps a re-plan after a mid-flight peer failure from re-issuing the
      // identical doomed plan forever.
      const uint32_t n = layout_->num_disks();
      std::vector<uint32_t> other_data;
      bool others_readable = true;
      for (uint32_t i = 0; i < n - 1; ++i) {
        const uint32_t d = layout_->DataDiskOf(frag.row, i);
        if (d != frag.data_disk) {
          other_data.push_back(d);
          if (!DiskUsable(d, frag.row)) {
            others_readable = false;
          }
        }
      }
      if (others_readable) {
        ++stats_.full_stripe_writes;
        work->phase_remaining = static_cast<int>(other_data.size());
        if (work->phase_remaining == 0) {
          work->phase_remaining = 1;
          FragmentPhaseDone(work, sim_->Now());
          return;
        }
        for (uint32_t d : other_data) {
          EnqueueDiskOp(d, DiskOp::kRead, frag.disk_lba, frag.sectors,
                        read_cb);
        }
        return;
      }
    }
    // Small write: read-modify-write of data and parity.
    ++stats_.rmw_writes;
    work->phase_remaining = 2;
    for (uint32_t d : {frag.data_disk, frag.parity_disk}) {
      const uint64_t lba =
          d == frag.data_disk ? frag.disk_lba : frag.parity_lba;
      EnqueueDiskOp(d, DiskOp::kRead, lba, frag.sectors, read_cb);
    }
    return;
  }

  if (drives_->failed(SlotId(frag.data_disk)) &&
      drives_->failed(SlotId(frag.parity_disk))) {
    // Both row members for this fragment are gone: nothing can be written.
    CompleteFragmentFailed(op_id, IoStatus::kUnrecoverable);
    return;
  }

  ++stats_.degraded_writes;
  work->degraded = true;
  if (!parity_ok) {
    // Parity lost: just write the data. The write phase re-checks which
    // targets are usable, so entering it directly writes data alone.
    work->phase_remaining = 1;
    FragmentPhaseDone(work, sim_->Now());
    return;
  }
  // Data copy lost (disk failed or its sectors unreadable): reconstruct-write
  // — read the other data units, then write the new parity (and the data
  // itself when the disk is merely media-degraded, not failed).
  std::vector<uint32_t> others;
  bool others_usable = true;
  for (uint32_t i = 0; i < layout_->num_disks() - 1; ++i) {
    const uint32_t d = layout_->DataDiskOf(frag.row, i);
    if (d != frag.data_disk) {
      others.push_back(d);
      if (!DiskUsable(d, frag.row)) {
        others_usable = false;
      }
    }
  }
  if (!others_usable) {
    // A second missing member: the new parity cannot be computed.
    CompleteFragmentFailed(op_id, IoStatus::kUnrecoverable);
    return;
  }
  work->phase_remaining = static_cast<int>(others.size());
  if (work->phase_remaining == 0) {
    work->phase_remaining = 1;
    FragmentPhaseDone(work, sim_->Now());
    return;
  }
  for (uint32_t d : others) {
    EnqueueDiskOp(d, DiskOp::kRead, frag.disk_lba, frag.sectors, read_cb);
  }
}

void Raid5Controller::FragmentPhaseDone(const std::shared_ptr<FragWork>& work,
                                        SimTime completion,
                                        const DiskOpResult* last) {
  MIMDRAID_CHECK_GT(work->phase_remaining, 0);
  if (--work->phase_remaining > 0) {
    return;
  }
  const Raid5Fragment& frag = work->frag;
  if (work->op == DiskOp::kRead) {
    if (work->status == IoStatus::kOk && work->repair_pending &&
        DiskUsable(frag.data_disk, frag.row)) {
      // Reconstructed data in hand: rewrite the latent-bad sectors so the
      // drive reallocates them. Best-effort — if the rewrite fails the next
      // read simply degrades again.
      ++fstats().repairs_queued;
      EnqueueDiskOp(frag.data_disk, DiskOp::kWrite, frag.disk_lba,
                    frag.sectors,
                    [this](const DiskOpResult& w, uint64_t id) {
                      if (!w.ok()) {
                        ResolveCommandFault(id, FaultResolution::kSurfaced,
                                            w.status == IoStatus::kDiskFailed);
                      }
                    });
    }
    OpPartDone(work->op_id, completion, work->status, last);
    return;
  }

  // Write: the read phase (if any) is done.
  if (work->status != IoStatus::kOk) {
    // A reconstruct-read failed; the new parity cannot be computed.
    OpPartDone(work->op_id, completion, work->status, last);
    return;
  }
  const bool data_ok = DiskUsable(frag.data_disk, frag.row);
  const bool parity_ok = DiskUsable(frag.parity_disk, frag.row);
  auto writes = std::make_shared<int>(0);
  auto on_write = [this, work, writes](const DiskOpResult& r, uint64_t id) {
    if (work->abandoned) {
      if (!r.ok()) {
        ResolveCommandFault(id, FaultResolution::kSurfaced,
                            r.status == IoStatus::kDiskFailed);
      }
      return;
    }
    if (!r.ok()) {
      if (r.status == IoStatus::kDiskFailed) {
        // The target died mid-write: re-plan the fragment; the surviving
        // member is (re)written by the new plan.
        work->abandoned = true;
        NoteOpRecovery(work->op_id);
        ResolveCommandFault(id, FaultResolution::kFailedOver,
                            /*target_disk_failed=*/true);
        SubmitWriteFragment(work->op_id, work->frag, work->force_degraded);
        return;
      }
      work->status = Worse(work->status, IoStatus::kUnrecoverable);
      ResolveCommandFault(id, FaultResolution::kSurfaced,
                          /*target_disk_failed=*/false);
    }
    MIMDRAID_CHECK_GT(*writes, 0);
    if (--*writes == 0) {
      OpPartDone(work->op_id, r.completion_us, work->status, &r);
    }
  };
  if (data_ok) {
    ++*writes;
  }
  if (parity_ok) {
    ++*writes;
  }
  if (*writes == 0) {
    // Both targets died while the reads were in flight.
    CompleteFragmentFailed(work->op_id, IoStatus::kUnrecoverable);
    return;
  }
  if (data_ok) {
    EnqueueDiskOp(frag.data_disk, DiskOp::kWrite, frag.disk_lba, frag.sectors,
                  on_write);
  }
  if (parity_ok) {
    EnqueueDiskOp(frag.parity_disk, DiskOp::kWrite, frag.parity_lba,
                  frag.sectors, on_write);
  }
}

void Raid5Controller::OpPartDone(uint64_t op_id, SimTime completion,
                                 IoStatus status, const DiskOpResult* last) {
  auto it = ops_.find(op_id);
  MIMDRAID_CHECK(it != ops_.end());
  PendingOp& pending = it->second;
  if (collector_ != nullptr && last != nullptr &&
      completion >= pending.last_completion) {
    pending.has_leg = true;
    pending.leg.entry_arrival_us = last->start_us;
    pending.leg.disk_start_us = last->start_us;
    pending.leg.overhead_us = last->overhead_us;
    pending.leg.seek_us = last->seek_us;
    pending.leg.rotational_us = last->rotational_us;
    pending.leg.transfer_us = last->transfer_us;
  }
  pending.last_completion = std::max(pending.last_completion, completion);
  pending.status = Worse(pending.status, status);
  MIMDRAID_CHECK_GT(pending.remaining, 0u);
  if (--pending.remaining == 0) {
    IoResult out;
    out.status = pending.status == IoStatus::kOk ? IoStatus::kOk
                                                 : IoStatus::kUnrecoverable;
    out.completion_us = pending.last_completion;
    out.recovery_attempts = pending.recovery_attempts;
    if (out.status == IoStatus::kOk) {
      if (pending.op == DiskOp::kRead) {
        ++stats_.reads_completed;
      } else {
        ++stats_.writes_completed;
      }
    } else {
      ++fstats().unrecoverable_completions;
    }
    if (collector_ != nullptr) {
      collector_->OnRequestComplete(op_id, out.status, out.completion_us,
                                    out.recovery_attempts,
                                    pending.has_leg ? &pending.leg : nullptr);
    }
    DoneFn done = std::move(pending.done);
    ops_.erase(it);
    if (done) {
      done(out);
    }
  }
}

void Raid5Controller::CompleteFragmentFailed(uint64_t op_id, IoStatus status) {
  drives_->CompleteDeferred(
      [this, op_id, status] { OpPartDone(op_id, sim_->Now(), status); });
}

void Raid5Controller::NoteOpRecovery(uint64_t op_id) {
  auto it = ops_.find(op_id);
  if (it != ops_.end()) {
    ++it->second.recovery_attempts;
  }
}

void Raid5Controller::EnqueueDiskOp(uint32_t disk, DiskOp op, uint64_t lba,
                                    uint32_t sectors,
                                    DriveSet::CommandDoneFn done,
                                    uint32_t attempts) {
  // RAID-5 tracks its stripe ops by its own op ids; the engine entry id is
  // only meaningful to the DriveSet retry machinery.
  (void)drives_->EnqueueCommand(  // mdl-ok(MDL002): engine id unused by policy
      SlotId(disk), op, BlockAddr(lba), sectors, std::move(done), attempts);
}

void Raid5Controller::ResolveCommandFault(uint64_t id,
                                          FaultResolution resolution,
                                          bool target_disk_failed) {
  if (id != 0) {
    drives_->ResolveFault(id, resolution, target_disk_failed);
  }
}

void Raid5Controller::Rebuild(SlotId disk, DoneFn done) {
  MIMDRAID_CHECK(drives_->failed(disk));
  drives_->MarkReplaced(disk);  // the replacement drive is in the slot
  if (drives_->fault_injector() != nullptr) {
    drives_->fault_injector()->ReplaceDisk(disk.value());
  }
  rebuilding_disk_ = static_cast<int>(disk.value());
  rebuilt_rows_ = 0;
  rebuild_rows_lost_ = 0;
  rebuild_done_ = std::move(done);
  RebuildNextRow();
}

void Raid5Controller::AbortRebuild(uint32_t disk) {
  if (rebuilding_disk_ != static_cast<int>(disk)) {
    return;
  }
  rebuilding_disk_ = -1;
  DoneFn done = std::move(rebuild_done_);
  if (done) {
    IoResult out;
    out.status = IoStatus::kDiskFailed;
    out.completion_us = sim_->Now();
    done(out);
  }
}

void Raid5Controller::RebuildNextRow() {
  MIMDRAID_CHECK_GE(rebuilding_disk_, 0);
  const uint32_t disk = static_cast<uint32_t>(rebuilding_disk_);
  if (drives_->failed(SlotId(disk))) {
    // The replacement drive itself died.
    AbortRebuild(disk);
    return;
  }
  while (rebuilt_rows_ < layout_->num_rows()) {
    const uint32_t row = rebuilt_rows_;
    const uint32_t unit = layout_->stripe_unit_sectors();
    const uint64_t lba = static_cast<uint64_t>(row) * unit;
    const std::vector<uint32_t> peers = layout_->RowPeers(row, disk);
    bool peers_ok = !peers.empty();
    for (uint32_t peer : peers) {
      if (drives_->failed(SlotId(peer))) {
        peers_ok = false;
      }
    }
    if (!peers_ok) {
      // Another disk failed: this row cannot be reconstructed. Note the loss
      // and keep going — later faults must not wedge the rebuild.
      ++fstats().rebuild_fragments_lost;
      ++rebuild_rows_lost_;
      ++rebuilt_rows_;
      continue;
    }
    auto remaining = std::make_shared<int>(static_cast<int>(peers.size()));
    auto lost = std::make_shared<bool>(false);
    auto after_reads = [this, disk, lba, unit, remaining,
                        lost](const DiskOpResult& r, uint64_t id) {
      if (!r.ok()) {
        ResolveCommandFault(id, FaultResolution::kSurfaced,
                            r.status == IoStatus::kDiskFailed);
        *lost = true;
      }
      if (--*remaining > 0) {
        return;
      }
      if (drives_->failed(SlotId(disk))) {
        AbortRebuild(disk);
        return;
      }
      if (*lost) {
        ++fstats().rebuild_fragments_lost;
        ++rebuild_rows_lost_;
        ++rebuilt_rows_;
        RebuildNextRow();
        return;
      }
      EnqueueDiskOp(
          disk, DiskOp::kWrite, lba, unit,
          [this, disk](const DiskOpResult& w, uint64_t wid) {
            if (!w.ok()) {
              ResolveCommandFault(wid, FaultResolution::kSurfaced,
                                  w.status == IoStatus::kDiskFailed);
            }
            if (!w.ok() && drives_->failed(SlotId(disk))) {
              AbortRebuild(disk);
              return;
            }
            if (!w.ok()) {
              ++fstats().rebuild_fragments_lost;
              ++rebuild_rows_lost_;
            } else {
              ++stats_.rebuilt_rows;
            }
            ++rebuilt_rows_;
            RebuildNextRow();
          });
    };
    for (uint32_t peer : peers) {
      EnqueueDiskOp(peer, DiskOp::kRead, lba, unit, after_reads);
    }
    return;
  }
  rebuilding_disk_ = -1;
  DoneFn done = std::move(rebuild_done_);
  if (done) {
    IoResult out;
    out.status = rebuild_rows_lost_ > 0 ? IoStatus::kUnrecoverable
                                        : IoStatus::kOk;
    out.completion_us = sim_->Now();
    done(out);
  }
}

}  // namespace mimdraid

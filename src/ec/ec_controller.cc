#include "src/ec/ec_controller.h"

#include <string>
#include <utility>

#include "src/util/check.h"

namespace mimdraid {

template <typename Fn>
void EcController::EnqueueDiskOp(uint32_t disk, DiskOp op, uint64_t lba,
                                 uint32_t sectors, Fn done,
                                 uint32_t attempts) {
  // Command retry is this policy's: a transient error or timeout on a live
  // disk is retried with a fresh command after backoff, up to
  // retry.max_attempts, so `done` sees only kOk, a terminal transient
  // failure, or kDiskFailed.
  auto command = [this, disk, op, lba, sectors, attempts,
                  done = std::move(done)](const DiskOpResult& r,
                                          uint64_t id) mutable {
    if (!r.ok() && r.status != IoStatus::kDiskFailed &&
        attempts + 1 < drives_->options().retry.max_attempts &&
        !drives_->failed(SlotId(disk))) {
      ++fstats().retries_issued;
      drives_->ResolveFault(id, FaultResolution::kRetried, false);
      drives_->ScheduleRecovery(
          attempts, [this, disk, op, lba, sectors, attempts,
                     done = std::move(done)]() mutable {
            EnqueueDiskOp(disk, op, lba, sectors, std::move(done),
                          attempts + 1);
          });
      return;
    }
    done(r, id);
  };
  // One command per sub-op: a wrapper that outgrew the slab's inline buffer
  // would add a heap allocation to every one of them.
  static_assert(DriveSet::CommandDoneFn::FitsInline<decltype(command)>,
                "erasure sub-op closure outgrew DriveSet::CommandDoneFn");
  // The controller tracks its stripe ops by its own op ids.
  (void)drives_->EnqueueCommand(  // mdl-ok(MDL002): engine id unused by policy
      SlotId(disk), DriveSet::Queue::kForeground, op, BlockAddr(lba), sectors,
      std::move(command));
}

EcController::EcController(Simulator* sim, std::vector<SimDisk*> disks,
                           std::vector<AccessPredictor*> predictors,
                           const EcLayout* layout, const EcCodec* codec,
                           const DriveSetOptions& options)
    : sim_(sim),
      layout_(layout),
      codec_(codec),
      auditor_(options.auditor),
      drives_(std::make_unique<DriveSet>(sim, std::move(disks),
                                         std::move(predictors),
                                         static_cast<DriveSetClient*>(this),
                                         options)),
      ops_(options.collector,
           OpTally{&stats_.reads_completed, &stats_.writes_completed,
                   &drives_->fstats().unrecoverable_completions}) {
  MIMDRAID_CHECK(layout != nullptr);
  MIMDRAID_CHECK(codec != nullptr);
  MIMDRAID_CHECK_EQ(drives_->num_slots(), layout->num_disks());
  MIMDRAID_CHECK_EQ(codec->n(), layout->num_disks());
  MIMDRAID_CHECK_EQ(codec->k(), layout->data_shards());
  drives_->StartScrub();
}

EcController::~EcController() = default;

bool EcController::Idle() const {
  if (!ops_.empty() || rebuilding_disk_ >= 0 || !rebuild_queue_.empty() ||
      drives_->pending_recovery() > 0) {
    return false;
  }
  return drives_->AllDrivesQuiet();
}

void EcController::AuditQuiescent() const {
  if (auditor_ == nullptr) {
    return;
  }
  auditor_->CheckQuiescent(
      drives_->TotalQueued(DriveSet::Queue::kForeground),
      drives_->TotalQueued(DriveSet::Queue::kDelayed), /*nvram_entries=*/0,
      /*stale_sectors=*/0, /*inflight_writes=*/0, /*parked_requests=*/0,
      /*waiter_entries=*/0);
}

void EcController::ExportStats(StatsRegistry* registry) const {
  MIMDRAID_CHECK(registry != nullptr);
  ExportFaultStats(drives_->fstats(), registry);
  const std::string prefix =
      layout_->scheme() == EcLayout::Scheme::kRaid5 ? "raid5." : "ec.";
  registry->Set(prefix + "reads_completed",
                static_cast<double>(stats_.reads_completed));
  registry->Set(prefix + "writes_completed",
                static_cast<double>(stats_.writes_completed));
  registry->Set(prefix + "rmw_writes", static_cast<double>(stats_.rmw_writes));
  registry->Set(prefix + "reconstruct_writes",
                static_cast<double>(stats_.reconstruct_writes));
  registry->Set(prefix + "degraded_reads",
                static_cast<double>(stats_.degraded_reads));
  registry->Set(prefix + "degraded_writes",
                static_cast<double>(stats_.degraded_writes));
  registry->Set(prefix + "rebuilt_rows",
                static_cast<double>(stats_.rebuilt_rows));
}

bool EcController::FailDisk(SlotId disk) {
  MIMDRAID_CHECK_LT(disk.value(), drives_->num_slots());
  if (drives_->failed(disk)) {
    return true;
  }
  drives_->MarkFailed(disk);
  if (drives_->fault_injector() != nullptr) {
    drives_->fault_injector()->FailStop(disk.value());
  }
  OnSlotFailed(disk, drives_->DrainFailedSlot(disk));
  return true;
}

void EcController::OnEntryComplete(SlotId /*disk*/,
                                   const QueuedRequest& /*entry*/,
                                   BlockAddr /*chosen_lba*/,
                                   const DiskOpResult& /*result*/) {
  // Every erasure sub-op is an engine command; a completion falling through
  // to the raw-entry hook means an entry lost its command handle.
  MIMDRAID_CHECK(false);
}

void EcController::OnSlotFailed(SlotId /*disk*/,
                                std::vector<QueuedRequest> drained) {
  // The drain already completed every queued sub-op with kDiskFailed; the
  // callbacks re-plan around the dead slot.
  MIMDRAID_CHECK(drained.empty());
}

uint64_t EcController::UsedSpanSectors(SlotId /*disk*/) const {
  return static_cast<uint64_t>(layout_->num_rows()) *
         layout_->stripe_unit_sectors();
}

void EcController::OnSparePromoted(SlotId disk) {
  // The spare holds no data yet: rebuild the slot through a decode set as
  // soon as a rebuild slot frees up (immediately when none is active).
  DoneFn done = [this](const IoResult& r) {
    if (r.status == IoStatus::kOk) {
      ++fstats().spare_rebuilds_completed;
    }
  };
  if (rebuilding_disk_ >= 0) {
    rebuild_queue_.push_back(QueuedRebuild{disk, std::move(done)});
    return;
  }
  StartRebuild(disk, std::move(done));
}

bool EcController::ScrubEligible() const {
  return ops_.empty() && rebuilding_disk_ < 0 && rebuild_queue_.empty();
}

void EcController::ScrubStep() {
  const uint32_t rows = layout_->num_rows();
  if (rows == 0) {
    return;
  }
  if (scrub_cursor_ >= rows) {
    scrub_cursor_ = 0;
    drives_->EndScrubSweep();
  }
  const uint32_t row = scrub_cursor_++;
  const uint32_t unit = layout_->stripe_unit_sectors();
  const uint64_t lba = static_cast<uint64_t>(row) * unit;
  for (uint32_t d = 0; d < layout_->num_disks(); ++d) {
    const bool usable = DiskUsable(d, row);
    drives_->TallyScrubRead(unit, usable);
    if (!usable) {
      continue;
    }
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
            // sectors. The replacement contents are reconstructible from the
            // row peers read by this same sweep.
            ++fstats().scrub_repairs;
            ++fstats().repairs_queued;
            EnqueueDiskOp(d, DiskOp::kWrite, lba, unit,
                          [this](const DiskOpResult& w, uint64_t wid) {
                            if (!w.ok()) {
                              drives_->ResolveFault(
                                  wid, FaultResolution::kSurfaced,
                                  w.status == IoStatus::kDiskFailed);
                            }
                          });
            drives_->ResolveFault(id, FaultResolution::kRepaired,
                                  /*target_disk_failed=*/false);
            return;
          }
          const bool disk_failed = drives_->failed(SlotId(d));
          drives_->ResolveFault(id,
                                disk_failed ? FaultResolution::kAbandoned
                                            : FaultResolution::kSurfaced,
                                disk_failed);
        });
  }
}

bool EcController::DiskUsable(uint32_t disk, uint32_t row) const {
  if (drives_->failed(SlotId(disk))) {
    return false;  // covers slots waiting in the rebuild queue too
  }
  if (rebuilding_disk_ == static_cast<int>(disk)) {
    return row < rebuilt_rows_;
  }
  return true;
}

std::vector<uint32_t> EcController::ReadableColumns(
    uint32_t row, uint32_t excluding_disk, uint32_t unreadable_disk) const {
  std::vector<uint32_t> cols;
  for (uint32_t d = 0; d < layout_->num_disks(); ++d) {
    if (d == excluding_disk || d == unreadable_disk) {
      continue;
    }
    if (DiskUsable(d, row)) {
      cols.push_back(d);
    }
  }
  return cols;
}

void EcController::Submit(DiskOp op, uint64_t lba, uint32_t sectors,
                          DoneFn done) {
  MIMDRAID_CHECK_GT(sectors, 0u);
  const std::vector<EcFragment> frags = layout_->Map(lba, sectors);
  const uint64_t op_handle =
      ops_.Begin(op, lba, sectors, static_cast<uint32_t>(frags.size()),
                 sim_->Now(), std::move(done));
  for (const EcFragment& frag : frags) {
    if (op == DiskOp::kRead) {
      SubmitReadFragment(op_handle, frag);
    } else {
      SubmitWriteFragment(op_handle, frag);
    }
  }
}

uint64_t EcController::NewPlan(uint64_t op_handle, const EcFragment& frag,
                               DiskOp op, bool force_degraded,
                               int phase_remaining) {
  const uint64_t key = frags_.Acquire();
  FragWork& work = frags_[key];
  work = FragWork{};
  work.op_handle = op_handle;
  work.frag = frag;
  work.op = op;
  work.phase_remaining = phase_remaining;
  work.force_degraded = force_degraded;
  return key;
}

void EcController::DropStaleResult(const DiskOpResult& r, uint64_t id) {
  if (!r.ok()) {
    drives_->ResolveFault(id, FaultResolution::kSurfaced,
                          r.status == IoStatus::kDiskFailed);
  }
}

void EcController::Replan(uint64_t key, bool force_degraded,
                          bool repair_on_success) {
  const FragWork& work = frags_[key];
  const uint64_t op_handle = work.op_handle;
  const EcFragment frag = work.frag;
  const DiskOp op = work.op;
  frags_.Release(key);
  ops_.NoteRecovery(op_handle);
  if (op == DiskOp::kRead) {
    SubmitReadFragment(op_handle, frag, force_degraded, repair_on_success);
  } else {
    SubmitWriteFragment(op_handle, frag, force_degraded);
  }
}

void EcController::SubmitReadFragment(uint64_t op_handle,
                                      const EcFragment& frag,
                                      bool force_degraded,
                                      bool repair_on_success) {
  if (!force_degraded && DiskUsable(frag.data_disk, frag.row)) {
    const uint64_t key = NewPlan(op_handle, frag, DiskOp::kRead,
                                 force_degraded, /*phase_remaining=*/1);
    frags_[key].repair_pending = repair_on_success;
    EnqueueDiskOp(
        frag.data_disk, DiskOp::kRead, frag.disk_lba, frag.sectors,
        [this, key](const DiskOpResult& r, uint64_t id) {
          FragWork* work = frags_.Find(key);
          if (work == nullptr) {
            DropStaleResult(r, id);
            return;
          }
          if (r.ok()) {
            FragmentPhaseDone(key, *work, &r);
            return;
          }
          // Direct read failed past the retry budget: fail over to decode
          // reconstruction. A media error additionally queues a repair
          // rewrite once the data is back in hand.
          ++fstats().failovers;
          const bool data_failed =
              drives_->failed(SlotId(work->frag.data_disk));
          const bool repair =
              r.status == IoStatus::kMediaError && !data_failed;
          drives_->ResolveFault(id, FaultResolution::kFailedOver, data_failed);
          Replan(key, /*force_degraded=*/true, repair);
        });
    return;
  }

  // Degraded read: decode the missing data unit through any k readable
  // columns. Columns are taken in ascending disk order — deterministic, and
  // Cauchy generators make every k-subset invertible.
  std::vector<uint32_t> cols =
      ReadableColumns(frag.row, frag.data_disk, layout_->num_disks());
  if (cols.size() < codec_->k()) {
    // More than m row members are gone: the data is lost. Finish the
    // fragment gracefully instead of crashing.
    CompleteFragmentFailed(op_handle);
    return;
  }
  cols.resize(codec_->k());
  std::vector<uint32_t> positions;
  positions.reserve(cols.size());
  for (uint32_t d : cols) {
    positions.push_back(layout_->PositionOfDisk(frag.row, d));
  }
  MIMDRAID_CHECK(codec_->CanDecodeFrom(positions));
  ++stats_.degraded_reads;
  ++fstats().reconstructions;
  const uint64_t key = NewPlan(op_handle, frag, DiskOp::kRead, force_degraded,
                               static_cast<int>(cols.size()));
  frags_[key].repair_pending = repair_on_success;
  for (uint32_t d : cols) {
    EnqueueDiskOp(d, DiskOp::kRead, frag.disk_lba, frag.sectors,
                  [this, key](const DiskOpResult& r, uint64_t id) {
                    if (!r.ok()) {
                      // A fault while decoding an already-missing member:
                      // the loss is surfaced to the submitter.
                      drives_->ResolveFault(id, FaultResolution::kSurfaced,
                                            r.status == IoStatus::kDiskFailed);
                    }
                    FragWork* work = frags_.Find(key);
                    if (work == nullptr) {
                      return;
                    }
                    if (!r.ok()) {
                      work->status = IoStatus::kUnrecoverable;
                    }
                    FragmentPhaseDone(key, *work, &r);
                  });
  }
}

void EcController::SubmitWriteFragment(uint64_t op_handle,
                                       const EcFragment& frag,
                                       bool force_degraded) {
  const uint32_t k = codec_->k();
  const uint32_t m = codec_->m();
  const bool data_writable = DiskUsable(frag.data_disk, frag.row);
  const bool data_readable = data_writable && !force_degraded;
  uint32_t live_parities = 0;
  for (uint32_t j = 0; j < m; ++j) {
    if (DiskUsable(layout_->ParityDiskOf(frag.row, j), frag.row)) {
      ++live_parities;
    }
  }
  if (!data_writable && live_parities == 0) {
    // Neither the data unit nor any parity can record the write: the
    // fragment's contents cannot be persisted anywhere.
    CompleteFragmentFailed(op_handle);
    return;
  }
  if (force_degraded || !data_writable || live_parities < m) {
    ++stats_.degraded_writes;
  }

  if (live_parities == 0) {
    // No parity to maintain: just write the data.
    const uint64_t key = NewPlan(op_handle, frag, DiskOp::kWrite,
                                 force_degraded, /*phase_remaining=*/1);
    FragmentPhaseDone(key, frags_[key]);
    return;
  }

  // Price the two parity-update strategies by read count (the write count —
  // data if writable plus every live parity — is identical under both):
  //   RMW          1 + live_parities  (old data + old parities; needs the
  //                                    old data readable)
  //   RCW direct   k - 1              (every other data column readable)
  //   RCW decode   k                  (any k readable columns reconstruct
  //                                    the other data units first)
  // and take the argmin, tied toward RMW. RCW-direct dominates RCW-decode
  // whenever it is valid, so at most one RCW variant competes.
  const uint32_t rmw_reads = 1 + live_parities;
  std::vector<uint32_t> other_data;
  other_data.reserve(k - 1);
  bool others_readable = true;
  for (uint32_t s = 0; s < k; ++s) {
    if (s == frag.shard_index) {
      continue;
    }
    const uint32_t d = layout_->DataDiskOf(frag.row, s);
    other_data.push_back(d);
    if (!DiskUsable(d, frag.row)) {
      others_readable = false;
    }
  }
  std::vector<uint32_t> rcw_reads;
  bool rcw_valid = false;
  if (others_readable) {
    rcw_reads = std::move(other_data);
    rcw_valid = true;
  } else {
    // A sibling data column is down: reconstruct it (and the rest) through
    // an arbitrary decode set. The target's own old unit is a valid decode
    // column unless its contents are what we failed to read.
    std::vector<uint32_t> cols = ReadableColumns(
        frag.row, layout_->num_disks(),
        force_degraded ? frag.data_disk : layout_->num_disks());
    if (cols.size() >= k) {
      cols.resize(k);
      std::vector<uint32_t> positions;
      positions.reserve(cols.size());
      for (uint32_t d : cols) {
        positions.push_back(layout_->PositionOfDisk(frag.row, d));
      }
      MIMDRAID_CHECK(codec_->CanDecodeFrom(positions));
      rcw_reads = std::move(cols);
      rcw_valid = true;
    }
  }

  const bool rmw_valid = data_readable;
  if (!rmw_valid && !rcw_valid) {
    // Fewer than k readable columns and no old data to delta against: the
    // new parity cannot be computed.
    CompleteFragmentFailed(op_handle);
    return;
  }
  bool use_rmw = false;
  if (layout_->scheme() == EcLayout::Scheme::kRaid5) {
    // RAID-5's rule: a unit-granular controller cannot see sibling fragments,
    // so only a full-unit write whose siblings are all readable recomputes
    // parity from them; everything else deltas against old data + parity.
    use_rmw = rmw_valid && !(others_readable &&
                             frag.sectors == layout_->stripe_unit_sectors());
  } else {
    use_rmw =
        rmw_valid &&
        (!rcw_valid || rmw_reads <= static_cast<uint32_t>(rcw_reads.size()));
  }

  const uint64_t key = NewPlan(op_handle, frag, DiskOp::kWrite, force_degraded,
                               /*phase_remaining=*/0);
  // Shared handler for every read-phase sub-op of a write fragment.
  auto read_cb = [this, key](const DiskOpResult& r, uint64_t id) {
    FragWork* work = frags_.Find(key);
    if (work == nullptr) {
      DropStaleResult(r, id);
      return;
    }
    if (!r.ok()) {
      if (r.status == IoStatus::kDiskFailed) {
        // Row membership changed under us: re-plan against the survivors.
        drives_->ResolveFault(id, FaultResolution::kFailedOver,
                              /*target_disk_failed=*/true);
        Replan(key, work->force_degraded, /*repair_on_success=*/false);
        return;
      }
      if (!work->force_degraded) {
        // A pre-image is unreadable; re-plan once with the old data treated
        // as lost (forcing a reconstruct-write that avoids it).
        ++fstats().failovers;
        drives_->ResolveFault(id, FaultResolution::kFailedOver,
                              /*target_disk_failed=*/false);
        Replan(key, /*force_degraded=*/true, /*repair_on_success=*/false);
        return;
      }
      // Already on the fallback plan and a decode column is unreadable: the
      // new parity cannot be computed.
      work->status = IoStatus::kUnrecoverable;
      drives_->ResolveFault(id, FaultResolution::kSurfaced,
                            /*target_disk_failed=*/false);
    }
    FragmentPhaseDone(key, *work, &r);
  };

  if (use_rmw) {
    ++stats_.rmw_writes;
    frags_[key].phase_remaining = static_cast<int>(rmw_reads);
    EnqueueDiskOp(frag.data_disk, DiskOp::kRead, frag.disk_lba, frag.sectors,
                  read_cb);
    for (uint32_t j = 0; j < m; ++j) {
      const uint32_t p = layout_->ParityDiskOf(frag.row, j);
      if (DiskUsable(p, frag.row)) {
        EnqueueDiskOp(p, DiskOp::kRead, frag.disk_lba, frag.sectors, read_cb);
      }
    }
    return;
  }

  ++stats_.reconstruct_writes;
  if (rcw_reads.empty()) {
    // k == 1: the new data alone determines every parity.
    frags_[key].phase_remaining = 1;
    FragmentPhaseDone(key, frags_[key]);
    return;
  }
  frags_[key].phase_remaining = static_cast<int>(rcw_reads.size());
  for (uint32_t d : rcw_reads) {
    EnqueueDiskOp(d, DiskOp::kRead, frag.disk_lba, frag.sectors, read_cb);
  }
}

void EcController::FragmentPhaseDone(uint64_t key, FragWork& work,
                                     const DiskOpResult* last) {
  MIMDRAID_CHECK_GT(work.phase_remaining, 0);
  if (--work.phase_remaining > 0) {
    return;
  }
  const EcFragment& frag = work.frag;
  if (work.op == DiskOp::kRead) {
    if (work.status == IoStatus::kOk && work.repair_pending &&
        DiskUsable(frag.data_disk, frag.row)) {
      // Reconstructed data in hand: rewrite the latent-bad sectors so the
      // drive reallocates them. Best-effort — if the rewrite fails the next
      // read simply degrades again.
      ++fstats().repairs_queued;
      EnqueueDiskOp(frag.data_disk, DiskOp::kWrite, frag.disk_lba,
                    frag.sectors,
                    [this](const DiskOpResult& w, uint64_t id) {
                      if (!w.ok()) {
                        drives_->ResolveFault(
                            id, FaultResolution::kSurfaced,
                            w.status == IoStatus::kDiskFailed);
                      }
                    });
    }
    FinishFragment(key, last);
    return;
  }

  // Write: the read phase (if any) is done.
  if (work.status != IoStatus::kOk) {
    // A pre-image or decode read failed; the new parity cannot be computed.
    FinishFragment(key, last);
    return;
  }
  const bool data_ok = DiskUsable(frag.data_disk, frag.row);
  std::vector<uint32_t> parity_targets;
  parity_targets.reserve(codec_->m());
  for (uint32_t j = 0; j < codec_->m(); ++j) {
    const uint32_t p = layout_->ParityDiskOf(frag.row, j);
    if (DiskUsable(p, frag.row)) {
      parity_targets.push_back(p);
    }
  }
  work.writes_remaining =
      (data_ok ? 1 : 0) + static_cast<int>(parity_targets.size());
  if (work.writes_remaining == 0) {
    // Every target died while the reads were in flight.
    const uint64_t op_handle = work.op_handle;
    frags_.Release(key);
    CompleteFragmentFailed(op_handle);
    return;
  }
  auto on_write = [this, key](const DiskOpResult& r, uint64_t id) {
    FragWork* plan = frags_.Find(key);
    if (plan == nullptr) {
      DropStaleResult(r, id);
      return;
    }
    if (!r.ok()) {
      if (r.status == IoStatus::kDiskFailed) {
        // The target died mid-write: re-plan the fragment; the surviving
        // members are (re)written by the new plan.
        drives_->ResolveFault(id, FaultResolution::kFailedOver,
                              /*target_disk_failed=*/true);
        Replan(key, plan->force_degraded, /*repair_on_success=*/false);
        return;
      }
      plan->status = IoStatus::kUnrecoverable;
      drives_->ResolveFault(id, FaultResolution::kSurfaced,
                            /*target_disk_failed=*/false);
    }
    MIMDRAID_CHECK_GT(plan->writes_remaining, 0);
    if (--plan->writes_remaining == 0) {
      FinishFragment(key, &r);
    }
  };
  if (data_ok) {
    EnqueueDiskOp(frag.data_disk, DiskOp::kWrite, frag.disk_lba, frag.sectors,
                  on_write);
  }
  for (uint32_t p : parity_targets) {
    EnqueueDiskOp(p, DiskOp::kWrite, frag.disk_lba, frag.sectors, on_write);
  }
}

void EcController::FinishFragment(uint64_t key, const DiskOpResult* last) {
  const FragWork& work = frags_[key];
  const uint64_t op_handle = work.op_handle;
  const IoStatus status = work.status;
  frags_.Release(key);
  if (last == nullptr) {
    ops_.PartDone(op_handle, status, sim_->Now(), nullptr);
    return;
  }
  // Parity sub-ops have no single queue timestamp for the logical request,
  // so the leg's entry arrival is the disk start: queue_us reads 0 and
  // everything before the final leg (RMW read phases, decode reads,
  // queueing) lands in the recovery residual.
  const FinalLeg leg = LegOf(last->start_us, *last);
  ops_.PartDone(op_handle, status, last->completion_us, &leg);
}

void EcController::CompleteFragmentFailed(uint64_t op_handle) {
  drives_->CompleteDeferred([this, op_handle] {
    ops_.PartDone(op_handle, IoStatus::kUnrecoverable, sim_->Now(), nullptr);
  });
}

void EcController::Rebuild(SlotId disk, DoneFn done) {
  MIMDRAID_CHECK(drives_->failed(disk));
  if (rebuilding_disk_ >= 0) {
    rebuild_queue_.push_back(QueuedRebuild{disk, std::move(done)});
    return;
  }
  StartRebuild(disk, std::move(done));
}

void EcController::StartRebuild(SlotId disk, DoneFn done) {
  MIMDRAID_CHECK(drives_->failed(disk));
  MIMDRAID_CHECK_LT(rebuilding_disk_, 0);
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

void EcController::FinishRebuild(IoStatus status) {
  rebuilding_disk_ = -1;
  DoneFn done = std::move(rebuild_done_);
  rebuild_done_ = nullptr;
  if (done) {
    IoResult out;
    out.status = status;
    out.completion_us = sim_->Now();
    done(out);
  }
  if (!rebuild_queue_.empty()) {
    QueuedRebuild next = std::move(rebuild_queue_.front());
    rebuild_queue_.pop_front();
    StartRebuild(next.slot, std::move(next.done));
  }
}

void EcController::AbortRebuild(uint32_t disk) {
  if (rebuilding_disk_ != static_cast<int>(disk)) {
    return;
  }
  // The replacement drive itself died; a queued slot (if any) takes over.
  FinishRebuild(IoStatus::kDiskFailed);
}

void EcController::RebuildNextRow() {
  MIMDRAID_CHECK_GE(rebuilding_disk_, 0);
  const uint32_t disk = static_cast<uint32_t>(rebuilding_disk_);
  if (drives_->failed(SlotId(disk))) {
    AbortRebuild(disk);
    return;
  }
  while (rebuilt_rows_ < layout_->num_rows()) {
    const uint32_t row = rebuilt_rows_;
    const uint32_t unit = layout_->stripe_unit_sectors();
    const uint64_t lba = static_cast<uint64_t>(row) * unit;
    // The target's unit — data or parity alike — is recomputed from any k
    // readable columns of the row.
    std::vector<uint32_t> cols =
        ReadableColumns(row, disk, layout_->num_disks());
    if (cols.size() < codec_->k()) {
      // Too many concurrent losses: this row cannot be reconstructed. Note
      // the loss and keep going — later faults must not wedge the rebuild.
      ++fstats().rebuild_fragments_lost;
      ++rebuild_rows_lost_;
      ++rebuilt_rows_;
      continue;
    }
    cols.resize(codec_->k());
    std::vector<uint32_t> positions;
    positions.reserve(cols.size());
    for (uint32_t d : cols) {
      positions.push_back(layout_->PositionOfDisk(row, d));
    }
    MIMDRAID_CHECK(codec_->CanDecodeFrom(positions));
    // The previous row's reads have all come back before the next starts.
    MIMDRAID_CHECK_EQ(rebuild_row_.reads_remaining, 0);
    rebuild_row_ = RebuildRow{};
    rebuild_row_.reads_remaining = static_cast<int>(cols.size());
    auto after_reads = [this, disk, lba, unit](const DiskOpResult& r,
                                               uint64_t id) {
      if (!r.ok()) {
        drives_->ResolveFault(id, FaultResolution::kSurfaced,
                              r.status == IoStatus::kDiskFailed);
        rebuild_row_.lost = true;
        if (r.status == IoStatus::kDiskFailed) {
          rebuild_row_.column_died = true;
        }
      }
      if (--rebuild_row_.reads_remaining > 0) {
        return;
      }
      if (drives_->failed(SlotId(disk))) {
        AbortRebuild(disk);
        return;
      }
      if (rebuild_row_.column_died) {
        // A decode column fail-stopped mid-row. The engine has already
        // marked it failed, so the readable set shrank: re-plan the same
        // row through the survivors — with m > 1 it may still decode.
        // Terminates because each re-plan consumes a disk failure.
        RebuildNextRow();
        return;
      }
      if (rebuild_row_.lost) {
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
              drives_->ResolveFault(wid, FaultResolution::kSurfaced,
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
    for (uint32_t d : cols) {
      EnqueueDiskOp(d, DiskOp::kRead, lba, unit, after_reads);
    }
    return;
  }
  FinishRebuild(rebuild_rows_lost_ > 0 ? IoStatus::kUnrecoverable
                                       : IoStatus::kOk);
}

}  // namespace mimdraid

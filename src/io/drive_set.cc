#include "src/io/drive_set.h"

#include <utility>

#include "src/util/check.h"

namespace mimdraid {

DriveSet::DriveSet(Simulator* sim, std::vector<SimDisk*> disks,
                   std::vector<AccessPredictor*> predictors,
                   DriveSetClient* client, const DriveSetOptions& options)
    : sim_(sim),
      disks_(std::move(disks)),
      predictors_(std::move(predictors)),
      client_(client),
      options_(options) {
  MIMDRAID_CHECK(sim != nullptr);
  MIMDRAID_CHECK(client != nullptr);
  MIMDRAID_CHECK(!disks_.empty());
  MIMDRAID_CHECK_EQ(predictors_.size(), disks_.size());
  const size_t n = disks_.size();
  schedulers_.reserve(n);
  fg_.resize(n);
  delayed_.resize(n);
  failed_.resize(n, false);
  error_counts_.resize(n, 0);
  if (options_.auditor != nullptr) {
    sim_->set_auditor(options_.auditor);
  }
  for (size_t i = 0; i < n; ++i) {
    auto scheduler = MakeScheduler(options_.scheduler, options_.max_scan);
    if (options_.auditor != nullptr) {
      disks_[i]->SetAuditor(options_.auditor, SlotId(static_cast<uint32_t>(i)));
      scheduler = MakeAuditedScheduler(std::move(scheduler), options_.auditor);
    }
    if (options_.fault_injector != nullptr) {
      disks_[i]->SetFaultInjector(options_.fault_injector,
                                  SlotId(static_cast<uint32_t>(i)));
    }
    if (options_.collector != nullptr) {
      disks_[i]->SetTraceCollector(options_.collector,
                                   SlotId(static_cast<uint32_t>(i)));
    }
    schedulers_.push_back(std::move(scheduler));
  }
}

DriveSet::~DriveSet() { StopScrub(); }

void DriveSet::StartScrub() {
  if (options_.scrub_interval_us > SimDuration(0) && !scrub_event_.valid()) {
    ScheduleScrubTick();
  }
}

void DriveSet::StopScrub() {
  if (scrub_event_.valid()) {
    // The tick body clears the handle before running, so a valid handle
    // always names a pending event and cancellation cannot miss.
    MIMDRAID_CHECK(sim_->Cancel(scrub_event_));
    scrub_event_ = EventId();
  }
}

void DriveSet::EndScrubSweep() {
  ++fstats_.scrub_sweeps_completed;
  fstats_.scrub_last_sweep_coverage =
      sweep_sectors_nominal_ == 0
          ? 0.0
          : static_cast<double>(sweep_sectors_issued_) /
                static_cast<double>(sweep_sectors_nominal_);
  sweep_sectors_issued_ = 0;
  sweep_sectors_nominal_ = 0;
}

void DriveSet::AddSpare(SimDisk* disk, AccessPredictor* predictor) {
  MIMDRAID_CHECK(disk != nullptr);
  MIMDRAID_CHECK(predictor != nullptr);
  spares_.push_back(SpareEntry{disk, predictor, false});
}

size_t DriveSet::TotalQueued(Queue queue) const {
  size_t total = 0;
  for (const auto& q : queue == Queue::kForeground ? fg_ : delayed_) {
    total += q.size();
  }
  return total;
}

bool DriveSet::AllDrivesQuiet(bool skip_failed) const {
  for (size_t i = 0; i < disks_.size(); ++i) {
    if (skip_failed && failed_[i]) {
      continue;
    }
    if (disks_[i]->busy() || !fg_[i].empty() || !delayed_[i].empty()) {
      return false;
    }
  }
  return true;
}

void DriveSet::Enqueue(SlotId slot, Queue queue, QueuedRequest entry) {
  ResolveCandidates(disks_[slot.value()]->layout(), entry);
  if (options_.auditor != nullptr) {
    options_.auditor->OnEntryQueued(slot.value(), entry.id, entry.delayed);
  }
  QueueOf(slot, queue).push_back(std::move(entry));
  if (queue == Queue::kForeground) {
    NoteFgDepth(slot);
  }
}

std::optional<QueuedRequest> DriveSet::Cancel(SlotId slot, uint64_t id) {
  for (const Queue queue : {Queue::kForeground, Queue::kDelayed}) {
    std::vector<QueuedRequest>& entries = QueueOf(slot, queue);
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      if (it->id != id) {
        continue;
      }
      // A command's callback must fire exactly once; only raw entries, whose
      // policy owns the work, can be withdrawn.
      MIMDRAID_CHECK_EQ(it->command, 0u);
      QueuedRequest entry = std::move(*it);
      entries.erase(it);
      if (options_.auditor != nullptr) {
        options_.auditor->OnEntryCancelled(slot.value(), id);
      }
      if (queue == Queue::kForeground) {
        NoteFgDepth(slot);
      }
      return entry;
    }
  }
  return std::nullopt;
}

bool DriveSet::Queued(SlotId slot, uint64_t id) const {
  for (const auto* entries : {&fg_[slot.value()], &delayed_[slot.value()]}) {
    for (const QueuedRequest& e : *entries) {
      if (e.id == id) {
        return true;
      }
    }
  }
  return false;
}

std::optional<SlotId> DriveSet::ForceOutOldestDelayed() {
  size_t oldest = delayed_.size();
  for (size_t i = 0; i < delayed_.size(); ++i) {
    if (!delayed_[i].empty() &&
        (oldest == delayed_.size() ||
         delayed_[i].front().id < delayed_[oldest].front().id)) {
      oldest = i;
    }
  }
  if (oldest == delayed_.size()) {
    return std::nullopt;
  }
  const SlotId slot(static_cast<uint32_t>(oldest));
  std::vector<QueuedRequest>& delayed = delayed_[oldest];
  fg_[oldest].push_back(std::move(delayed.front()));
  delayed.erase(delayed.begin());
  NoteFgDepth(slot);
  return slot;
}

void DriveSet::MaybeDispatch(SlotId slot) {
  if (failed_[slot.value()] || disks_[slot.value()]->busy()) {
    return;
  }
  std::vector<QueuedRequest>& queue =
      !fg_[slot.value()].empty() ? fg_[slot.value()] : delayed_[slot.value()];
  if (queue.empty()) {
    return;
  }
  const bool from_fg = &queue == &fg_[slot.value()];
  ScheduleContext ctx;
  ctx.now = sim_->Now();
  ctx.predictor = predictors_[slot.value()];
  ctx.layout = &disks_[slot.value()]->layout();
  ctx.collector = options_.collector;
  ctx.disk = slot;
  const SchedulerPick pick = schedulers_[slot.value()]->Pick(queue, ctx);
  QueuedRequest entry = std::move(queue[pick.queue_index]);
  queue.erase(queue.begin() + static_cast<ptrdiff_t>(pick.queue_index));
  if (options_.auditor != nullptr) {
    options_.auditor->OnEntryDispatched(slot.value(), entry.id);
  }
  if (from_fg) {
    NoteFgDepth(slot);
  }

  if (entry.command == 0) {
    client_->OnEntryDispatched(slot, entry);
  }

  // Non-positional schedulers (FCFS/LOOK/...) do not produce a prediction;
  // compute one so head tracking and accuracy statistics work under every
  // policy.
  double predicted = pick.predicted_service_us;
  if (predicted <= 0.0) {
    predicted = predictors_[slot.value()]
                    ->Predict(sim_->Now(), pick.lba, entry.sectors,
                              entry.op == DiskOp::kWrite)
                    .total_us;
  }
  predictors_[slot.value()]->OnDispatch(sim_->Now(), pick.lba, entry.sectors,
                                entry.op == DiskOp::kWrite, predicted);
  const BlockAddr chosen_lba = pick.lba;
  const uint32_t sectors = entry.sectors;
  const DiskOp op = entry.op;
  // The picked replica's position, resolved at enqueue, seeds the drive's
  // access plan.
  ResolvedPosition hint;
  for (const AccessCandidate& c : entry.candidates) {
    if (c.lba == chosen_lba) {
      hint = c.pos;
      break;
    }
  }
  auto done = [this, slot, entry = std::move(entry), chosen_lba,
               predicted](const DiskOpResult& result) {
    predictors_[slot.value()]->OnCompletion(result.completion_us, chosen_lba,
                                            entry.sectors);
    if (options_.collector != nullptr && result.ok()) {
      options_.collector->OnPrediction(
          slot.value(), result.completion_us, predicted,
          static_cast<double>(result.ServiceUs().us()));
    }
    HandleCompletion(slot, entry, chosen_lba, result);
    MaybeDispatch(slot);
  };
  // One disk op per dispatch: growing QueuedRequest past the inline buffer
  // would add a heap allocation to every one of them.
  static_assert(DiskCompletionFn::FitsInline<decltype(done)>,
                "dispatch completion closure outgrew DiskCompletionFn");
  disks_[slot.value()]->Start(op, chosen_lba, sectors, std::move(done), hint);
}

void DriveSet::HandleCompletion(SlotId slot, const QueuedRequest& entry,
                                BlockAddr chosen_lba,
                                const DiskOpResult& result) {
  if (options_.auditor != nullptr) {
    options_.auditor->OnEntryCompleted(slot.value(), entry.id);
  }
  if (!result.ok()) {
    // Open a fault record before any recovery: the policy that retires the
    // fault must close it with exactly one resolution.
    if (options_.auditor != nullptr) {
      options_.auditor->OnIoFault(slot.value(), entry.id);
    }
    CountFault(slot, result.status);
  }
  if (entry.command == 0) {
    client_->OnEntryComplete(slot, entry, chosen_lba, result);
    return;
  }
  FinishCommand(entry.command, result, entry.id);
}

uint64_t DriveSet::EnqueueCommand(SlotId slot, Queue queue, DiskOp op,
                                  BlockAddr lba, uint32_t sectors,
                                  CommandDoneFn done) {
  const uint32_t handle = StoreCommand(std::move(done));
  if (failed_[slot.value()]) {
    // The slot died between planning and enqueue: complete with kDiskFailed
    // through the event queue so callers re-plan from a clean stack.
    CompleteDeferred([this, handle] {
      FinishCommand(handle, SyntheticFailure(), 0);
    });
    return 0;
  }
  QueuedRequest entry;
  entry.id = next_entry_id_++;
  entry.op = op;
  entry.sectors = sectors;
  entry.candidates = {lba};
  entry.arrival_us = sim_->Now();
  entry.command = handle;
  const uint64_t id = entry.id;
  Enqueue(slot, queue, std::move(entry));
  MaybeDispatch(slot);
  return id;
}

uint32_t DriveSet::StoreCommand(CommandDoneFn done) {
  if (free_commands_.empty()) {
    commands_.push_back(std::move(done));
    return static_cast<uint32_t>(commands_.size());
  }
  const uint32_t handle = free_commands_.back();
  free_commands_.pop_back();
  commands_[handle - 1] = std::move(done);
  return handle;
}

void DriveSet::FinishCommand(uint32_t handle, const DiskOpResult& result,
                             uint64_t id) {
  // Taken out of the slab before the call: the callback may queue commands
  // of its own, which can reuse this slot or grow the slab.
  CommandDoneFn done = std::move(commands_[handle - 1]);
  free_commands_.push_back(handle);
  done(result, id);
}

DiskOpResult DriveSet::SyntheticFailure() const {
  DiskOpResult failure;
  failure.status = IoStatus::kDiskFailed;
  failure.start_us = sim_->Now();
  failure.completion_us = sim_->Now();
  return failure;
}

std::vector<QueuedRequest> DriveSet::DrainFailedSlot(SlotId slot) {
  std::vector<QueuedRequest> delayed;
  std::vector<QueuedRequest> fg;
  delayed.swap(delayed_[slot.value()]);
  fg.swap(fg_[slot.value()]);
  const DiskOpResult failure = SyntheticFailure();
  std::vector<QueuedRequest> raw;
  auto drain = [&](std::vector<QueuedRequest>& queue) {
    for (QueuedRequest& entry : queue) {
      if (options_.auditor != nullptr) {
        options_.auditor->OnEntryCancelled(slot.value(), entry.id);
      }
      if (entry.command != 0) {
        FinishCommand(entry.command, failure, 0);
      } else {
        raw.push_back(std::move(entry));
      }
    }
  };
  drain(delayed);
  if (!fg.empty()) {
    NoteFgDepth(slot);  // now 0
  }
  drain(fg);
  return raw;
}

void DriveSet::CountFault(SlotId slot, IoStatus status) {
  switch (status) {
    case IoStatus::kMediaError:
      ++fstats_.media_errors_seen;
      break;
    case IoStatus::kTimeout:
      ++fstats_.timeouts_seen;
      break;
    case IoStatus::kDiskFailed:
      ++fstats_.disk_failed_seen;
      break;
    default:
      break;
  }
  if (failed_[slot.value()]) {
    return;  // already declared failed; no further escalation
  }
  if (status == IoStatus::kDiskFailed) {
    AutoFail(slot);
    return;
  }
  ++error_counts_[slot.value()];
  if (options_.disk_error_fail_threshold > 0 &&
      error_counts_[slot.value()] >= options_.disk_error_fail_threshold) {
    AutoFail(slot);
  }
}

void DriveSet::AutoFail(SlotId slot) {
  if (failed_[slot.value()]) {
    return;
  }
  failed_[slot.value()] = true;
  ++fstats_.auto_disk_failures;
  if (options_.fault_injector != nullptr) {
    // Threshold-triggered failures: make the verdict binding so the drive
    // cannot half-work its way back into the array.
    options_.fault_injector->FailStop(slot.value());
  }
  client_->OnSlotFailed(slot, DrainFailedSlot(slot));
  PromoteSpareIfAvailable(slot);
}

void DriveSet::PromoteSpareIfAvailable(SlotId slot) {
  if (spares_.empty() || !client_->SparePromotionAllowed(slot)) {
    return;
  }
  // The slot keeps mapping through the failed drive's layout, so the spare
  // must resolve that drive's used physical span and match its sector size.
  // Incompatible candidates are skipped (counted) but stay pooled: a slot
  // they do fit may fail later.
  const uint64_t needed_span = client_->UsedSpanSectors(slot);
  const uint32_t sector_bytes =
      disks_[slot.value()]->layout().geometry().sector_bytes;
  size_t pick = spares_.size();
  for (size_t i = 0; i < spares_.size(); ++i) {
    const DiskLayout& candidate = spares_[i].disk->layout();
    if (candidate.geometry().sector_bytes == sector_bytes &&
        candidate.num_data_sectors() >= needed_span) {
      pick = i;
      break;
    }
    // Each pooled spare contributes to spare_rejected at most once: later
    // promotion attempts re-skip it without re-counting, so multi-failure
    // runs don't inflate the tally.
    if (!spares_[i].rejection_counted) {
      spares_[i].rejection_counted = true;
      ++fstats_.spare_rejected;
    }
  }
  if (pick == spares_.size()) {
    return;  // no compatible spare; the slot stays failed
  }
  SimDisk* const spare_disk = spares_[pick].disk;
  AccessPredictor* const spare_predictor = spares_[pick].predictor;
  spares_.erase(spares_.begin() + static_cast<ptrdiff_t>(pick));
  disks_[slot.value()] = spare_disk;
  predictors_[slot.value()] = spare_predictor;
  if (options_.auditor != nullptr) {
    options_.auditor->OnDiskReplaced(slot.value());
    spare_disk->SetAuditor(options_.auditor, slot);
  }
  if (options_.fault_injector != nullptr) {
    options_.fault_injector->ReplaceDisk(slot.value());
    spare_disk->SetFaultInjector(options_.fault_injector, slot);
  }
  if (options_.collector != nullptr) {
    spare_disk->SetTraceCollector(options_.collector, slot);
  }
  ++fstats_.spares_promoted;
  client_->OnSparePromoted(slot);
}

void DriveSet::ScheduleRecovery(uint32_t attempt, DeferredFn fn) {
  ++pending_recovery_;
  auto bracketed = [this, fn = std::move(fn)]() {
    --pending_recovery_;
    fn();
  };
  static_assert(Simulator::EventFn::FitsInline<decltype(bracketed)>,
                "recovery closure outgrew Simulator::EventFn");
  sim_->ScheduleAfter(options_.retry.BackoffUs(attempt), std::move(bracketed));
}

void DriveSet::CompleteDeferred(DeferredFn fn) {
  ++pending_recovery_;
  sim_->ScheduleAfter(SimDuration(0), [this, fn = std::move(fn)]() {
    --pending_recovery_;
    fn();
  });
}

void DriveSet::ResolveFault(uint64_t entry_id, FaultResolution resolution,
                            bool target_disk_failed) {
  if (options_.auditor != nullptr && entry_id != 0) {
    options_.auditor->OnFaultResolved(entry_id, resolution,
                                      target_disk_failed);
  }
}

void DriveSet::ScheduleScrubTick() {
  scrub_event_ = sim_->ScheduleAfter(options_.scrub_interval_us, [this]() {
    scrub_event_ = EventId();
    ScrubTick();
    ScheduleScrubTick();
  });
}

void DriveSet::ScrubTick() {
  // The policy gate applies under either gating mode (a backend mid-rebuild
  // or with logical ops outstanding must not sweep).
  if (!client_->ScrubEligible()) {
    return;
  }
  // Idle-gating is the rate limit: a tick that finds any foreground or
  // recovery work simply skips its turn. kAlways (the fixed-period policy)
  // admits the step regardless of drive business.
  if (options_.scrub_gating == ScrubGating::kIdleGated &&
      (pending_recovery_ > 0 || !AllDrivesQuiet(/*skip_failed=*/true))) {
    return;
  }
  client_->ScrubStep();
}

}  // namespace mimdraid

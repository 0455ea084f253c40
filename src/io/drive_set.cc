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

void DriveSet::AddSpare(SimDisk* disk, AccessPredictor* predictor) {
  MIMDRAID_CHECK(disk != nullptr);
  MIMDRAID_CHECK(predictor != nullptr);
  spares_.push_back(SpareEntry{disk, predictor, false});
}

size_t DriveSet::TotalFgQueued() const {
  size_t total = 0;
  for (const auto& q : fg_) {
    total += q.size();
  }
  return total;
}

size_t DriveSet::TotalDelayedQueued() const {
  size_t total = 0;
  for (const auto& q : delayed_) {
    total += q.size();
  }
  return total;
}

bool DriveSet::AllDrivesQuiet() const {
  for (size_t i = 0; i < disks_.size(); ++i) {
    if (disks_[i]->busy() || !fg_[i].empty() || !delayed_[i].empty()) {
      return false;
    }
  }
  return true;
}

bool DriveSet::LiveDrivesQuiet() const {
  for (size_t i = 0; i < disks_.size(); ++i) {
    if (failed_[i]) {
      continue;
    }
    if (disks_[i]->busy() || !fg_[i].empty() || !delayed_[i].empty()) {
      return false;
    }
  }
  return true;
}

void DriveSet::EnqueueFg(SlotId slot, QueuedRequest entry) {
  ResolveCandidates(disks_[slot.value()]->layout(), entry);
  if (options_.auditor != nullptr) {
    options_.auditor->OnEntryQueued(slot.value(), entry.id, entry.delayed);
  }
  fg_[slot.value()].push_back(std::move(entry));
  if (options_.collector != nullptr) {
    options_.collector->OnQueueDepth(slot.value(), sim_->Now(), fg_[slot.value()].size());
  }
}

void DriveSet::EnqueueDelayed(SlotId slot, QueuedRequest entry) {
  ResolveCandidates(disks_[slot.value()]->layout(), entry);
  if (options_.auditor != nullptr) {
    options_.auditor->OnEntryQueued(slot.value(), entry.id, entry.delayed);
  }
  delayed_[slot.value()].push_back(std::move(entry));
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
  if (options_.collector != nullptr && from_fg) {
    options_.collector->OnQueueDepth(slot.value(), sim_->Now(), fg_[slot.value()].size());
  }

  client_->OnEntryDispatched(slot, entry);

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
  disks_[slot.value()]->Start(op, chosen_lba, sectors, std::move(done));
}

void DriveSet::HandleCompletion(SlotId slot, const QueuedRequest& entry,
                                BlockAddr chosen_lba,
                                const DiskOpResult& result) {
  if (options_.auditor != nullptr) {
    options_.auditor->OnEntryCompleted(slot.value(), entry.id);
  }
  if (!result.ok()) {
    // Open a fault record before any recovery: whoever retires the fault
    // (engine-level command retry or the policy) must close it with exactly
    // one resolution.
    if (options_.auditor != nullptr) {
      options_.auditor->OnIoFault(slot.value(), entry.id);
    }
    CountFault(slot, result.status);
  }

  auto cit = command_done_.find(entry.id);
  if (cit == command_done_.end()) {
    client_->OnEntryComplete(slot, entry, chosen_lba, result);
    return;
  }
  CommandDoneFn done = std::move(cit->second);
  command_done_.erase(cit);
  if (!result.ok() && result.status != IoStatus::kDiskFailed &&
      entry.attempts + 1 < options_.retry.max_attempts && !failed_[slot.value()]) {
    // Transient error or timeout: retry the command after backoff with a
    // fresh queue entry.
    ++fstats_.retries_issued;
    ResolveFault(entry.id, FaultResolution::kRetried, false);
    ++pending_recovery_;
    const DiskOp op = entry.op;
    const uint32_t sectors = entry.sectors;
    const uint32_t attempts = entry.attempts;
    sim_->ScheduleAfter(options_.retry.BackoffUs(attempts),
                        [this, slot, op, chosen_lba, sectors, attempts,
                         done = std::move(done)]() mutable {
                          --pending_recovery_;
                          // The retry keeps the original entry's identity in
                          // `done`; the fresh queue id is engine-internal.
                          (void)EnqueueCommand(  // mdl-ok(MDL002): retry id unused
                              slot, op, chosen_lba, sectors, std::move(done),
                              attempts + 1);
                        });
    return;
  }
  done(result, entry.id);
}

uint64_t DriveSet::EnqueueCommand(SlotId slot, DiskOp op, BlockAddr lba,
                                  uint32_t sectors, CommandDoneFn done,
                                  uint32_t attempts) {
  if (failed_[slot.value()]) {
    // The slot died between planning and enqueue: complete with kDiskFailed
    // through the event queue so callers re-plan from a clean stack.
    CompleteDeferred([this, done = std::move(done)] {
      DiskOpResult failure;
      failure.status = IoStatus::kDiskFailed;
      failure.start_us = sim_->Now();
      failure.completion_us = sim_->Now();
      done(failure, 0);
    });
    return 0;
  }
  QueuedRequest entry;
  entry.id = next_entry_id_++;
  entry.op = op;
  entry.sectors = sectors;
  entry.candidates = {lba};
  entry.arrival_us = sim_->Now();
  entry.attempts = attempts;
  const uint64_t id = entry.id;
  command_done_[id] = std::move(done);
  EnqueueFg(slot, std::move(entry));
  MaybeDispatch(slot);
  return id;
}

void DriveSet::FailQueuedCommands(SlotId slot) {
  std::vector<QueuedRequest> drained;
  drained.swap(fg_[slot.value()]);
  if (options_.collector != nullptr && !drained.empty()) {
    options_.collector->OnQueueDepth(slot.value(), sim_->Now(), 0);
  }
  DiskOpResult failure;
  failure.status = IoStatus::kDiskFailed;
  failure.start_us = sim_->Now();
  failure.completion_us = sim_->Now();
  for (QueuedRequest& entry : drained) {
    if (options_.auditor != nullptr) {
      options_.auditor->OnEntryCancelled(slot.value(), entry.id);
    }
    auto it = command_done_.find(entry.id);
    if (it == command_done_.end()) {
      continue;
    }
    auto done = std::move(it->second);
    command_done_.erase(it);
    done(failure, 0);
  }
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
  client_->OnSlotFailed(slot);
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

void DriveSet::ScheduleRecovery(uint32_t attempt, std::function<void()> fn) {
  ++pending_recovery_;
  sim_->ScheduleAfter(options_.retry.BackoffUs(attempt),
                      [this, fn = std::move(fn)]() {
                        --pending_recovery_;
                        fn();
                      });
}

void DriveSet::CompleteDeferred(std::function<void()> fn) {
  ++pending_recovery_;
  sim_->ScheduleAfter(SimDuration(0), [this, fn = std::move(fn)]() {
    --pending_recovery_;
    fn();
  });
}

void DriveSet::ResolveFault(uint64_t entry_id, FaultResolution resolution,
                            bool target_disk_failed) {
  if (options_.auditor != nullptr) {
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
      (pending_recovery_ > 0 || !LiveDrivesQuiet())) {
    return;
  }
  client_->ScrubStep();
}

}  // namespace mimdraid

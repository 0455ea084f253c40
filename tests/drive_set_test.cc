// The DriveSet engine's completion protocol, driven directly through a
// policy that only records what the engine hands it: every command callback
// fires exactly once whatever the outcome, a slot-failure drain completes the
// queued commands of both queues in queue order and hands the raw entries
// back, delayed commands wait for an empty foreground queue, the command
// slab reuses its slots, and the queue operations a policy is given (cancel,
// force-out, depth) keep the auditor's conservation check and the collector's
// depth series exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/calib/predictor.h"
#include "src/disk/sim_disk.h"
#include "src/io/drive_set.h"
#include "src/obs/trace_collector.h"
#include "src/sim/auditor.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulator.h"

namespace mimdraid {
namespace {

class RecordingClient : public DriveSetClient {
 public:
  void OnEntryDispatched(SlotId /*disk*/, const QueuedRequest& entry) override {
    dispatched_raw.push_back(entry.id);
  }
  void OnEntryComplete(SlotId /*disk*/, const QueuedRequest& entry,
                       BlockAddr /*chosen_lba*/,
                       const DiskOpResult& /*result*/) override {
    completed_raw.push_back(entry.id);
  }
  void OnSlotFailed(SlotId disk, std::vector<QueuedRequest> drained) override {
    failed_slots.push_back(disk.value());
    for (const QueuedRequest& e : drained) {
      drained_raw.push_back(e.id);
    }
  }
  void OnSparePromoted(SlotId /*disk*/) override {}

  std::vector<uint64_t> dispatched_raw;
  std::vector<uint64_t> completed_raw;
  std::vector<uint32_t> failed_slots;
  std::vector<uint64_t> drained_raw;
};

struct Completion {
  int tag = 0;
  IoStatus status = IoStatus::kOk;
  uint64_t id = 0;
};

struct EngineRig {
  explicit EngineRig(SchedulerKind scheduler = SchedulerKind::kSatf,
                     size_t slots = 1)
      : injector(FaultInjectorOptions{}) {
    std::vector<SimDisk*> dptr;
    std::vector<AccessPredictor*> pptr;
    for (size_t i = 0; i < slots; ++i) {
      disks.push_back(std::make_unique<SimDisk>(
          &sim, MakeTestGeometry(), MakeTestSeekProfile(),
          DiskNoiseModel::None(), 31 + i, 0.0));
      predictors.push_back(
          std::make_unique<OraclePredictor>(disks.back().get(), 0.0));
      dptr.push_back(disks.back().get());
      pptr.push_back(predictors.back().get());
    }
    DriveSetOptions options;
    options.scheduler = scheduler;
    options.auditor = &auditor;
    options.fault_injector = &injector;
    options.collector = &collector;
    drives = std::make_unique<DriveSet>(&sim, dptr, pptr, &client, options);
  }

  // Queues an 8-sector read command whose callback logs `tag`; a fault is
  // resolved as surfaced, the way a policy that gives up would.
  uint64_t Command(DriveSet::Queue queue, uint64_t lba, int tag,
                   SlotId slot = SlotId(0)) {
    return drives->EnqueueCommand(
        slot, queue, DiskOp::kRead, BlockAddr(lba), 8,
        [this, tag, slot](const DiskOpResult& r, uint64_t id) {
          log.push_back(Completion{tag, r.status, id});
          if (!r.ok()) {
            drives->ResolveFault(id, FaultResolution::kSurfaced,
                                 drives->failed(slot));
          }
        });
  }

  uint64_t Raw(DriveSet::Queue queue, uint64_t lba, SlotId slot = SlotId(0)) {
    QueuedRequest e;
    e.id = drives->AllocEntryId();
    e.op = DiskOp::kWrite;
    e.sectors = 8;
    e.candidates = {BlockAddr(lba)};
    e.arrival_us = sim.Now();
    e.delayed = queue == DriveSet::Queue::kDelayed;
    const uint64_t id = e.id;
    drives->Enqueue(slot, queue, std::move(e));
    drives->MaybeDispatch(slot);
    return id;
  }

  int Count(int tag) const {
    int n = 0;
    for (const Completion& c : log) {
      n += c.tag == tag ? 1 : 0;
    }
    return n;
  }

  size_t Depth(SlotId slot, DriveSet::Queue queue) const {
    return drives->QueueDepth(slot, queue);
  }

  // The collector's most recent foreground-depth sample for `slot`.
  int64_t LastSampledDepth(SlotId slot) const {
    int64_t depth = -1;
    for (const QueueDepthSample& q : collector.queue_depths()) {
      if (q.slot == slot.value()) {
        depth = q.depth;
      }
    }
    return depth;
  }

  // The auditor's terminal conservation check over the engine's queues.
  void CheckConservation() {
    auditor.CheckQuiescent(drives->TotalQueued(DriveSet::Queue::kForeground),
                           drives->TotalQueued(DriveSet::Queue::kDelayed), 0,
                           0, 0, 0, 0);
  }

  Simulator sim;
  InvariantAuditor auditor;
  FaultInjector injector;
  TraceCollector collector;
  std::vector<std::unique_ptr<SimDisk>> disks;
  std::vector<std::unique_ptr<AccessPredictor>> predictors;
  RecordingClient client;
  std::vector<Completion> log;
  std::unique_ptr<DriveSet> drives;
};

TEST(DriveSet, CommandCallbackFiresOnceForEveryOutcome) {
  EngineRig rig;
  const uint64_t ok_id = rig.Command(DriveSet::Queue::kForeground, 0, 1);
  EXPECT_NE(ok_id, 0u);
  rig.sim.Run();
  ASSERT_EQ(rig.log.size(), 1u);
  EXPECT_EQ(rig.log[0].status, IoStatus::kOk);
  EXPECT_EQ(rig.log[0].id, ok_id);

  // A transient media error is delivered as is: the engine retries nothing.
  rig.injector.InjectTransientErrors(0, 1);
  const uint64_t fault_id = rig.Command(DriveSet::Queue::kForeground, 64, 2);
  rig.sim.Run();
  ASSERT_EQ(rig.Count(2), 1);
  EXPECT_EQ(rig.log.back().status, IoStatus::kMediaError);
  EXPECT_EQ(rig.log.back().id, fault_id);
  EXPECT_EQ(rig.drives->fstats().media_errors_seen, 1u);
  EXPECT_EQ(rig.drives->fstats().retries_issued, 0u);

  // Enqueue on a failed slot: a synthetic kDiskFailed, one event-queue turn
  // later, carrying id 0.
  rig.drives->MarkFailed(SlotId(0));
  EXPECT_EQ(rig.Command(DriveSet::Queue::kDelayed, 128, 3), 0u);
  EXPECT_EQ(rig.Count(3), 0);
  EXPECT_EQ(rig.drives->pending_recovery(), 1u);
  rig.sim.Run();
  ASSERT_EQ(rig.Count(3), 1);
  EXPECT_EQ(rig.log.back().status, IoStatus::kDiskFailed);
  EXPECT_EQ(rig.log.back().id, 0u);
  EXPECT_EQ(rig.drives->pending_recovery(), 0u);

  EXPECT_EQ(rig.log.size(), 3u);
  EXPECT_TRUE(rig.client.dispatched_raw.empty());
  EXPECT_TRUE(rig.client.completed_raw.empty());
  EXPECT_EQ(rig.auditor.open_faults(), 0u);
}

TEST(DriveSet, RawEntriesCompleteThroughThePolicy) {
  EngineRig rig;
  const uint64_t raw = rig.Raw(DriveSet::Queue::kForeground, 0);
  rig.Command(DriveSet::Queue::kForeground, 512, 1);
  rig.sim.Run();
  EXPECT_EQ(rig.client.dispatched_raw, std::vector<uint64_t>{raw});
  EXPECT_EQ(rig.client.completed_raw, std::vector<uint64_t>{raw});
  EXPECT_EQ(rig.Count(1), 1);
}

TEST(DriveSet, SlotFailureDrainsBothQueuesInQueueOrder) {
  EngineRig rig;
  rig.Command(DriveSet::Queue::kForeground, 0, 0);  // in flight
  ASSERT_TRUE(rig.disks[0]->busy());
  rig.Command(DriveSet::Queue::kForeground, 100, 1);
  const uint64_t raw_fg = rig.Raw(DriveSet::Queue::kForeground, 200);
  rig.Command(DriveSet::Queue::kForeground, 300, 2);
  rig.Command(DriveSet::Queue::kDelayed, 400, 3);
  const uint64_t raw_delayed = rig.Raw(DriveSet::Queue::kDelayed, 500);
  rig.Command(DriveSet::Queue::kDelayed, 600, 4);

  rig.drives->AutoFail(SlotId(0));
  // Delayed queue first, then foreground, each in queue order; all at once,
  // with id 0 (none of them reached the drive).
  ASSERT_EQ(rig.log.size(), 4u);
  const int order[] = {3, 4, 1, 2};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rig.log[i].tag, order[i]);
    EXPECT_EQ(rig.log[i].status, IoStatus::kDiskFailed);
    EXPECT_EQ(rig.log[i].id, 0u);
  }
  EXPECT_EQ(rig.client.failed_slots, std::vector<uint32_t>{0});
  EXPECT_EQ(rig.client.drained_raw,
            (std::vector<uint64_t>{raw_delayed, raw_fg}));
  EXPECT_EQ(rig.drives->QueueDepth(SlotId(0), DriveSet::Queue::kForeground),
            0u);
  EXPECT_EQ(rig.drives->QueueDepth(SlotId(0), DriveSet::Queue::kDelayed), 0u);

  // The command already on the drive completes normally, exactly once.
  rig.sim.Run();
  ASSERT_EQ(rig.log.size(), 5u);
  EXPECT_EQ(rig.log[4].tag, 0);
  EXPECT_EQ(rig.log[4].status, IoStatus::kOk);
  EXPECT_TRUE(rig.client.completed_raw.empty());
  EXPECT_EQ(rig.auditor.open_faults(), 0u);
}

TEST(DriveSet, DelayedCommandWaitsForEmptyForeground) {
  EngineRig rig;
  rig.Command(DriveSet::Queue::kForeground, 0, 0);  // in flight
  rig.Command(DriveSet::Queue::kDelayed, 50, 1);
  rig.Command(DriveSet::Queue::kForeground, 3000, 2);
  rig.Command(DriveSet::Queue::kForeground, 6000, 3);
  rig.sim.Run();
  ASSERT_EQ(rig.log.size(), 4u);
  EXPECT_EQ(rig.log.front().tag, 0);
  EXPECT_EQ(rig.log.back().tag, 1);
}

TEST(DriveSet, CommandSlabReusesSlots) {
  EngineRig rig(SchedulerKind::kFcfs);
  constexpr int kOutstanding = 8;
  int issued = 0;
  int completed = 0;
  int limit = 400;
  // Each completion issues the next command, so exactly kOutstanding are
  // ever in the slab at once.
  std::function<void()> issue = [&] {
    ++issued;
    (void)rig.drives->EnqueueCommand(  // mdl-ok(MDL002): ids unused here
        SlotId(0), issued % 3 == 0 ? DriveSet::Queue::kDelayed
                                   : DriveSet::Queue::kForeground,
        DiskOp::kRead, BlockAddr(static_cast<uint64_t>(issued) * 97 % 4000),
        8, [&](const DiskOpResult& r, uint64_t /*id*/) {
          EXPECT_EQ(r.status, IoStatus::kOk);
          ++completed;
          if (issued < limit) {
            issue();
          }
        });
  };
  for (int i = 0; i < kOutstanding; ++i) {
    issue();
  }
  rig.sim.Run();
  EXPECT_EQ(completed, limit);
  EXPECT_EQ(rig.drives->CommandSlotsForTest(),
            static_cast<size_t>(kOutstanding));

  // A smaller burst afterwards never grows the slab.
  limit += 100;
  for (int i = 0; i < 3; ++i) {
    issue();
  }
  rig.sim.Run();
  EXPECT_EQ(completed, limit);
  EXPECT_EQ(rig.drives->CommandSlotsForTest(),
            static_cast<size_t>(kOutstanding));
}

TEST(DriveSet, CancelWithdrawsARawEntryFromEitherQueue) {
  EngineRig rig;
  rig.Command(DriveSet::Queue::kForeground, 0, 0);  // in flight
  ASSERT_TRUE(rig.disks[0]->busy());
  const uint64_t fg_a = rig.Raw(DriveSet::Queue::kForeground, 100);
  const uint64_t fg_b = rig.Raw(DriveSet::Queue::kForeground, 200);
  const uint64_t delayed_a = rig.Raw(DriveSet::Queue::kDelayed, 300);
  const uint64_t delayed_b = rig.Raw(DriveSet::Queue::kDelayed, 400);
  EXPECT_EQ(rig.Depth(SlotId(0), DriveSet::Queue::kForeground), 2u);
  EXPECT_EQ(rig.Depth(SlotId(0), DriveSet::Queue::kDelayed), 2u);
  EXPECT_EQ(rig.LastSampledDepth(SlotId(0)), 2);

  const std::optional<QueuedRequest> fg = rig.drives->Cancel(SlotId(0), fg_a);
  ASSERT_TRUE(fg.has_value());
  EXPECT_EQ(fg->id, fg_a);
  EXPECT_EQ(fg->candidates.front().lba, BlockAddr(100));
  EXPECT_FALSE(rig.drives->Queued(SlotId(0), fg_a));
  EXPECT_EQ(rig.Depth(SlotId(0), DriveSet::Queue::kForeground), 1u);
  EXPECT_EQ(rig.LastSampledDepth(SlotId(0)), 1);

  const size_t samples = rig.collector.queue_depths().size();
  const std::optional<QueuedRequest> delayed =
      rig.drives->Cancel(SlotId(0), delayed_b);
  ASSERT_TRUE(delayed.has_value());
  EXPECT_TRUE(delayed->delayed);
  EXPECT_EQ(rig.Depth(SlotId(0), DriveSet::Queue::kDelayed), 1u);
  // The delayed queue is not part of the foreground depth series.
  EXPECT_EQ(rig.collector.queue_depths().size(), samples);

  // Unknown, already-cancelled and other-slot ids change nothing.
  EXPECT_FALSE(rig.drives->Cancel(SlotId(0), fg_a).has_value());
  EXPECT_FALSE(rig.drives->Cancel(SlotId(0), 9999).has_value());
  EXPECT_TRUE(rig.drives->Queued(SlotId(0), fg_b));
  EXPECT_TRUE(rig.drives->Queued(SlotId(0), delayed_a));

  rig.sim.Run();
  EXPECT_EQ(rig.client.completed_raw,
            (std::vector<uint64_t>{fg_b, delayed_a}));
  EXPECT_EQ(rig.LastSampledDepth(SlotId(0)), 0);
  rig.CheckConservation();
  EXPECT_EQ(rig.auditor.violations(), 0u);
}

TEST(DriveSet, ForceOutTakesTheOldestDelayedEntryAcrossSlots) {
  EngineRig rig(SchedulerKind::kFcfs, /*slots=*/3);
  for (uint32_t d = 0; d < 3; ++d) {
    rig.Command(DriveSet::Queue::kForeground, 0, 0, SlotId(d));  // in flight
  }
  // Entry ids grow with age: slot 2 holds the oldest, then slot 0, then a
  // younger one behind slot 2's; slot 1's delayed queue stays empty.
  const uint64_t oldest = rig.Raw(DriveSet::Queue::kDelayed, 100, SlotId(2));
  const uint64_t middle = rig.Raw(DriveSet::Queue::kDelayed, 200, SlotId(0));
  const uint64_t youngest = rig.Raw(DriveSet::Queue::kDelayed, 300, SlotId(2));
  const uint64_t fg = rig.Raw(DriveSet::Queue::kForeground, 400, SlotId(2));

  EXPECT_EQ(rig.drives->ForceOutOldestDelayed(), SlotId(2));
  EXPECT_EQ(rig.Depth(SlotId(2), DriveSet::Queue::kForeground), 2u);
  EXPECT_EQ(rig.Depth(SlotId(2), DriveSet::Queue::kDelayed), 1u);
  EXPECT_EQ(rig.LastSampledDepth(SlotId(2)), 2);
  EXPECT_EQ(rig.drives->ForceOutOldestDelayed(), SlotId(0));
  EXPECT_EQ(rig.LastSampledDepth(SlotId(0)), 1);
  EXPECT_EQ(rig.drives->ForceOutOldestDelayed(), SlotId(2));
  EXPECT_EQ(rig.LastSampledDepth(SlotId(2)), 3);
  EXPECT_EQ(rig.drives->ForceOutOldestDelayed(), std::nullopt);
  EXPECT_EQ(rig.drives->TotalQueued(DriveSet::Queue::kDelayed), 0u);
  EXPECT_EQ(rig.drives->TotalQueued(DriveSet::Queue::kForeground), 4u);
  // A forced-out entry keeps its id, so the policy can still cancel it.
  EXPECT_TRUE(rig.drives->Cancel(SlotId(2), youngest).has_value());
  EXPECT_EQ(rig.LastSampledDepth(SlotId(2)), 2);

  // Slot 2 serves its foreground queue in arrival order (FCFS): the entry
  // that was already there, then the forced-out one.
  rig.sim.Run();
  EXPECT_EQ(rig.client.completed_raw.size(), 3u);
  std::vector<uint64_t> slot2;
  for (uint64_t id : rig.client.dispatched_raw) {
    if (id == fg || id == oldest) {
      slot2.push_back(id);
    }
  }
  EXPECT_EQ(slot2, (std::vector<uint64_t>{fg, oldest}));
  EXPECT_NE(std::find(rig.client.completed_raw.begin(),
                      rig.client.completed_raw.end(), middle),
            rig.client.completed_raw.end());
  for (uint32_t d = 0; d < 3; ++d) {
    EXPECT_EQ(rig.LastSampledDepth(SlotId(d)), 0) << "slot " << d;
  }
  rig.CheckConservation();
  EXPECT_EQ(rig.auditor.violations(), 0u);
}

}  // namespace
}  // namespace mimdraid

// The DriveSet engine's completion protocol, driven directly through a
// policy that only records what the engine hands it: every command callback
// fires exactly once whatever the outcome, a slot-failure drain completes the
// queued commands of both queues in queue order and hands the raw entries
// back, delayed commands wait for an empty foreground queue, and the command
// slab reuses its slots.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "src/calib/predictor.h"
#include "src/disk/sim_disk.h"
#include "src/io/drive_set.h"
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
  explicit EngineRig(SchedulerKind scheduler = SchedulerKind::kSatf)
      : injector(FaultInjectorOptions{}),
        disk(&sim, MakeTestGeometry(), MakeTestSeekProfile(),
             DiskNoiseModel::None(), 31, 0.0),
        predictor(&disk, 0.0) {
    DriveSetOptions options;
    options.scheduler = scheduler;
    options.auditor = &auditor;
    options.fault_injector = &injector;
    drives = std::make_unique<DriveSet>(
        &sim, std::vector<SimDisk*>{&disk},
        std::vector<AccessPredictor*>{&predictor}, &client, options);
  }

  // Queues an 8-sector read command whose callback logs `tag`; a fault is
  // resolved as surfaced, the way a policy that gives up would.
  uint64_t Command(DriveSet::Queue queue, uint64_t lba, int tag) {
    return drives->EnqueueCommand(
        SlotId(0), queue, DiskOp::kRead, BlockAddr(lba), 8,
        [this, tag](const DiskOpResult& r, uint64_t id) {
          log.push_back(Completion{tag, r.status, id});
          if (!r.ok()) {
            drives->ResolveFault(id, FaultResolution::kSurfaced,
                                 drives->failed(SlotId(0)));
          }
        });
  }

  uint64_t Raw(DriveSet::Queue queue, uint64_t lba) {
    QueuedRequest e;
    e.id = drives->AllocEntryId();
    e.op = DiskOp::kWrite;
    e.sectors = 8;
    e.candidates = {BlockAddr(lba)};
    e.arrival_us = sim.Now();
    const uint64_t id = e.id;
    if (queue == DriveSet::Queue::kForeground) {
      drives->EnqueueFg(SlotId(0), std::move(e));
    } else {
      e.delayed = true;
      drives->EnqueueDelayed(SlotId(0), std::move(e));
    }
    drives->MaybeDispatch(SlotId(0));
    return id;
  }

  int Count(int tag) const {
    int n = 0;
    for (const Completion& c : log) {
      n += c.tag == tag ? 1 : 0;
    }
    return n;
  }

  Simulator sim;
  InvariantAuditor auditor;
  FaultInjector injector;
  SimDisk disk;
  OraclePredictor predictor;
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
  ASSERT_TRUE(rig.disk.busy());
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
  EXPECT_TRUE(rig.drives->fg(SlotId(0)).empty());
  EXPECT_TRUE(rig.drives->delayed(SlotId(0)).empty());

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

}  // namespace
}  // namespace mimdraid

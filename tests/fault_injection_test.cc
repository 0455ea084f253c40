// End-to-end fault-injection tests: the injector's determinism, the disk's
// media-error / write-reallocation path (DiskLayout::AddBadSector), and the
// controllers' recovery machinery — retry with backoff, mirror failover,
// RAID-5 degraded reconstruction with repair, error-threshold auto-failure,
// hot-spare promotion, and background scrubbing.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/array/array_layout.h"
#include "src/array/controller.h"
#include "src/calib/predictor.h"
#include "src/core/mimd_raid.h"
#include "src/disk/sim_disk.h"
#include "src/ec/ec_controller.h"
#include "src/ec/ec_layout.h"
#include "src/ec/gf256.h"
#include "src/obs/trace_collector.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector in isolation.
// ---------------------------------------------------------------------------

TEST(FaultInjector, DeterministicForSeed) {
  FaultInjectorOptions opts;
  opts.seed = 77;
  opts.latent_error_prob = 0.01;
  opts.transient_error_prob = 0.02;
  opts.timeout_prob = 0.01;
  FaultInjector a(opts);
  FaultInjector b(opts);
  Rng access_rng(5);
  for (int i = 0; i < 3000; ++i) {
    const uint32_t disk = static_cast<uint32_t>(access_rng.UniformU64(3));
    const bool is_write = access_rng.Bernoulli(0.4);
    const uint64_t lba = access_rng.UniformU64(10'000);
    const FaultOutcome oa = a.OnAccess(disk, is_write, lba, 8);
    const FaultOutcome ob = b.OnAccess(disk, is_write, lba, 8);
    ASSERT_EQ(oa.status, ob.status) << "diverged at access " << i;
    ASSERT_EQ(oa.service_multiplier, ob.service_multiplier);
  }
  EXPECT_EQ(a.counters().transient_errors, b.counters().transient_errors);
  EXPECT_EQ(a.counters().timeouts, b.counters().timeouts);
  EXPECT_EQ(a.counters().latent_errors_planted,
            b.counters().latent_errors_planted);
}

TEST(FaultInjector, DistinctSeedsDiverge) {
  FaultInjectorOptions opts;
  opts.transient_error_prob = 0.05;
  opts.timeout_prob = 0.05;
  opts.seed = 1;
  FaultInjector a(opts);
  opts.seed = 2;
  FaultInjector b(opts);
  bool diverged = false;
  for (int i = 0; i < 5000 && !diverged; ++i) {
    diverged = a.OnAccess(0, false, 0, 1).status !=
               b.OnAccess(0, false, 0, 1).status;
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjector, PerSlotStreamsIndependentOfFirstAccessOrder) {
  FaultInjectorOptions opts;
  opts.seed = 9;
  opts.transient_error_prob = 0.1;
  FaultInjector a(opts);
  FaultInjector b(opts);
  // Touch slots in opposite orders; the per-slot sequences must match anyway.
  (void)a.OnAccess(0, false, 0, 1);
  (void)a.OnAccess(1, false, 0, 1);
  (void)b.OnAccess(1, false, 0, 1);
  (void)b.OnAccess(0, false, 0, 1);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(a.OnAccess(0, false, 0, 1).status,
              b.OnAccess(0, false, 0, 1).status);
    ASSERT_EQ(a.OnAccess(1, false, 0, 1).status,
              b.OnAccess(1, false, 0, 1).status);
  }
}

TEST(FaultInjector, ReplaceDiskClearsSlotFaultState) {
  FaultInjector injector(FaultInjectorOptions{});
  injector.FailStop(2);
  injector.InjectLatentError(2, 100);
  injector.InjectTransientErrors(2, 5);
  injector.SetFailSlow(2, 4.0);
  EXPECT_TRUE(injector.IsFailStopped(2));
  EXPECT_EQ(injector.LatentErrorCount(2), 1u);
  injector.ReplaceDisk(2);
  EXPECT_FALSE(injector.IsFailStopped(2));
  EXPECT_EQ(injector.LatentErrorCount(2), 0u);
  EXPECT_EQ(injector.OnAccess(2, false, 100, 1).status, IoStatus::kOk);
  EXPECT_EQ(injector.OnAccess(2, false, 0, 1).service_multiplier, 1.0);
}

TEST(FaultInjector, ReplaceDiskPreservesSlotStreamPosition) {
  // The contract fault_injector.h documents: replacing the drive in a slot
  // resets fault state but MUST NOT advance, rewind, or reseed the slot's
  // RNG — post-replacement draws match a run with no replacement at all.
  FaultInjectorOptions opts;
  opts.seed = 31;
  opts.transient_error_prob = 0.08;
  opts.lifetime.hazard = LifetimeHazard::kWeibull;
  opts.lifetime.weibull_shape = 1.5;
  opts.lifetime.weibull_scale_hours = 40'000.0;
  opts.lifetime.lse_rate_per_hour = 1.0e-4;
  FaultInjector replaced(opts);
  FaultInjector control(opts);
  // Burn an identical prefix on both: access verdicts and lifetime draws all
  // consume the slot stream.
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(replaced.OnAccess(3, false, i, 4).status,
              control.OnAccess(3, false, i, 4).status);
  }
  ASSERT_DOUBLE_EQ(replaced.DrawLifetimeHours(3), control.DrawLifetimeHours(3));
  // Dirty the slot, then promote a replacement into it on one injector only.
  replaced.InjectLatentError(3, 7);
  replaced.InjectTransientErrors(3, 2);
  replaced.FailStop(3);
  replaced.ReplaceDisk(3);
  // Every subsequent draw — lifetime, LSE gap, access verdict — must be the
  // value the slot would have produced had the promotion never happened.
  for (int i = 0; i < 200; ++i) {
    ASSERT_DOUBLE_EQ(replaced.DrawLifetimeHours(3), control.DrawLifetimeHours(3))
        << "lifetime draw " << i << " diverged after ReplaceDisk";
    ASSERT_DOUBLE_EQ(replaced.DrawLseGapHours(3), control.DrawLseGapHours(3))
        << "LSE gap draw " << i << " diverged after ReplaceDisk";
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(replaced.OnAccess(3, false, 1000 + i, 4).status,
              control.OnAccess(3, false, 1000 + i, 4).status)
        << "access verdict " << i << " diverged after ReplaceDisk";
  }
  // Untouched slots are unaffected either way.
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(replaced.OnAccess(1, false, i, 1).status,
              control.OnAccess(1, false, i, 1).status);
  }
}

// ---------------------------------------------------------------------------
// SimDisk media path: latent errors fail reads until a write reallocates the
// sector to spare space (DiskLayout::AddBadSector) and repairs the media.
// ---------------------------------------------------------------------------

struct DiskRig {
  DiskRig() : disk(&sim, MakeTestGeometry(), MakeTestSeekProfile(),
                   DiskNoiseModel::None(), 11, 0.0) {
    disk.SetFaultInjector(&injector, SlotId(0));
  }

  DiskOpResult Do(DiskOp op, uint64_t lba, uint32_t sectors) {
    DiskOpResult out;
    bool done = false;
    disk.Start(op, BlockAddr(lba), sectors, [&](const DiskOpResult& r) {
      out = r;
      done = true;
    });
    while (!done) {
      EXPECT_TRUE(sim.Step());
    }
    return out;
  }

  Simulator sim;
  FaultInjector injector{FaultInjectorOptions{}};
  SimDisk disk;
};

TEST(SimDiskFaults, LatentErrorPersistsUntilWriteReallocates) {
  DiskRig rig;
  rig.injector.InjectLatentError(0, 5);
  EXPECT_EQ(rig.Do(DiskOp::kRead, 0, 8).status, IoStatus::kMediaError);
  EXPECT_EQ(rig.Do(DiskOp::kRead, 0, 8).status, IoStatus::kMediaError);
  EXPECT_EQ(rig.injector.counters().media_error_reads, 2u);
  EXPECT_EQ(rig.disk.layout().num_remapped_sectors(), 0u);

  // The rewrite triggers firmware reallocation: the LBA moves to spare space
  // and the latent error is cleared.
  EXPECT_EQ(rig.Do(DiskOp::kWrite, 0, 8).status, IoStatus::kOk);
  EXPECT_EQ(rig.disk.layout().num_remapped_sectors(), 1u);
  EXPECT_TRUE(rig.disk.layout().IsRemapped(5));
  EXPECT_FALSE(rig.injector.HasLatentError(0, 5));
  EXPECT_EQ(rig.injector.counters().write_repairs, 1u);
  EXPECT_EQ(rig.Do(DiskOp::kRead, 0, 8).status, IoStatus::kOk);
}

TEST(SimDiskFaults, RemappedSectorStaysAddressableAcrossLayout) {
  DiskRig rig;
  // Remap several sectors scattered through the address space, then verify
  // every LBA still resolves to a unique physical slot and reads fine.
  for (uint64_t lba : {0ull, 7ull, 63ull, 64ull, 200ull}) {
    rig.injector.InjectLatentError(0, lba);
  }
  EXPECT_EQ(rig.Do(DiskOp::kWrite, 0, 256).status, IoStatus::kOk);
  EXPECT_EQ(rig.disk.layout().num_remapped_sectors(), 5u);
  EXPECT_EQ(rig.injector.LatentErrorCount(0), 0u);
  EXPECT_EQ(rig.Do(DiskOp::kRead, 0, 256).status, IoStatus::kOk);
}

TEST(SimDiskFaults, FailStopRejectsWithoutMechanicalWork) {
  DiskRig rig;
  rig.injector.FailStop(0);
  const DiskOpResult r = rig.Do(DiskOp::kRead, 0, 8);
  EXPECT_EQ(r.status, IoStatus::kDiskFailed);
  EXPECT_EQ(r.seek_us, 0.0);
  EXPECT_EQ(rig.injector.counters().failstop_rejections, 1u);
}

TEST(SimDiskFaults, TimeoutCompletesAtWatchdogDeadline) {
  FaultInjectorOptions opts;
  opts.timeout_prob = 1.0;
  opts.watchdog_timeout_us = SimDuration(123'000);
  Simulator sim;
  FaultInjector injector(opts);
  SimDisk disk(&sim, MakeTestGeometry(), MakeTestSeekProfile(),
               DiskNoiseModel::None(), 3, 0.0);
  disk.SetFaultInjector(&injector, SlotId(0));
  DiskOpResult out;
  bool done = false;
  disk.Start(DiskOp::kRead, BlockAddr(0), 8, [&](const DiskOpResult& r) {
    out = r;
    done = true;
  });
  while (!done) {
    ASSERT_TRUE(sim.Step());
  }
  EXPECT_EQ(out.status, IoStatus::kTimeout);
  EXPECT_EQ(out.ServiceUs(), SimDuration(123'000));
}

// ---------------------------------------------------------------------------
// Mirrored-array recovery (ArrayController).
// ---------------------------------------------------------------------------

struct ArrayRig {
  ArrayRig(int ds, int dr, int dm, const FaultInjectorOptions& fopts,
           uint32_t fail_threshold = 0,
           SimDuration scrub_interval_us = SimDuration(0),
           uint32_t spares = 0, uint64_t dataset = 3000)
      : injector(fopts) {
    aspect.ds = ds;
    aspect.dr = dr;
    aspect.dm = dm;
    const int d = aspect.TotalDisks();
    for (int i = 0; i < d + static_cast<int>(spares); ++i) {
      disks.push_back(std::make_unique<SimDisk>(
          &sim, MakeTestGeometry(), MakeTestSeekProfile(),
          DiskNoiseModel::None(), 61 + i, i * 777.0));
      preds.push_back(std::make_unique<OraclePredictor>(disks.back().get(), 0.0));
      if (i < d) {
        dptr.push_back(disks.back().get());
        pptr.push_back(preds.back().get());
      }
    }
    layout = std::make_unique<ArrayLayout>(&disks[0]->layout(), aspect, 16,
                                           dataset);
    ArrayControllerOptions copts;
    copts.engine.fault_injector = &injector;
    copts.engine.disk_error_fail_threshold = fail_threshold;
    copts.engine.scrub_interval_us = scrub_interval_us;
    controller = std::make_unique<ArrayController>(&sim, dptr, pptr,
                                                   layout.get(), copts);
    for (uint32_t s = 0; s < spares; ++s) {
      controller->AddSpare(disks[d + s].get(), preds[d + s].get());
    }
  }

  IoResult Do(DiskOp op, uint64_t lba, uint32_t sectors) {
    IoResult out;
    bool done = false;
    controller->Submit(op, lba, sectors, [&](const IoResult& r) {
      out = r;
      done = true;
    });
    while (!done) {
      EXPECT_TRUE(sim.Step());
    }
    return out;
  }

  void Drain() {
    controller->StopScrub();
    while ((!controller->Idle() || controller->RebuildInProgress()) &&
           sim.Step()) {
    }
  }

  // Plants a latent error at every physical sector disk `target` holds for
  // the logical range [0, span). Returns the number of LBAs planted.
  size_t PlantLatentEverywhere(uint32_t target, uint64_t span) {
    size_t planted = 0;
    for (uint64_t lba = 0; lba < span; lba += 16) {
      const uint32_t sectors =
          static_cast<uint32_t>(std::min<uint64_t>(16, span - lba));
      for (const ArrayFragment& f : layout->Map(lba, sectors)) {
        for (const ReplicaLocation& loc : f.replicas) {
          if (loc.disk != target) {
            continue;
          }
          for (uint32_t s = 0; s < f.sectors; ++s) {
            injector.InjectLatentError(target, loc.lba + s);
            ++planted;
          }
        }
      }
    }
    return planted;
  }

  Simulator sim;
  ArrayAspect aspect;
  FaultInjector injector;
  std::vector<std::unique_ptr<SimDisk>> disks;
  std::vector<std::unique_ptr<AccessPredictor>> preds;
  std::vector<SimDisk*> dptr;
  std::vector<AccessPredictor*> pptr;
  std::unique_ptr<ArrayLayout> layout;
  std::unique_ptr<ArrayController> controller;
};

TEST(ArrayRecovery, TransientWriteErrorsRetryUntilTheyLand) {
  ArrayRig rig(1, 1, 1, FaultInjectorOptions{});
  rig.injector.InjectTransientErrors(0, 2);
  const IoResult r = rig.Do(DiskOp::kWrite, 0, 8);
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.recovery_attempts, 2u);
  const FaultRecoveryStats& fs = rig.controller->fault_stats();
  EXPECT_EQ(fs.media_errors_seen, 2u);
  EXPECT_EQ(fs.retries_issued, 2u);
  EXPECT_EQ(fs.unrecoverable_completions, 0u);
  rig.Drain();
}

TEST(ArrayRecovery, ReadTimeoutsRetryThenSurfaceUnrecoverable) {
  FaultInjectorOptions fopts;
  fopts.timeout_prob = 1.0;  // the drive hangs on every command
  ArrayRig rig(1, 1, 1, fopts);
  const IoResult r = rig.Do(DiskOp::kRead, 0, 8);
  EXPECT_EQ(r.status, IoStatus::kUnrecoverable);
  const FaultRecoveryStats& fs = rig.controller->fault_stats();
  // RetryPolicy{max_attempts = 3}: initial try + 2 in-place retries, then the
  // single-copy failover finds no live replica and surfaces the loss.
  EXPECT_EQ(fs.timeouts_seen, 3u);
  EXPECT_EQ(fs.retries_issued, 2u);
  EXPECT_EQ(fs.failovers, 1u);
  EXPECT_EQ(fs.unrecoverable_completions, 1u);
  rig.Drain();
}

}  // namespace

// Reaches into the controller's fragment slab (a friend of ArrayController).
class ArrayControllerTestPeer {
 public:
  static std::vector<uint64_t> LiveFragments(const ArrayController& c) {
    std::vector<uint64_t> keys;
    c.frags_.ForEachLive([&](uint64_t key) { keys.push_back(key); });
    return keys;
  }
  // Ends a fragment as unrecoverable, as a fragment whose last live replica
  // vanished would end.
  static void FailFragment(ArrayController& c, uint64_t key) {
    c.CompleteFragmentUnrecoverable(key, c.frags_[key]);
  }
};

namespace {

TEST(ArrayRecovery, StaleRetryClosureLeavesReusedFragmentSlotAlone) {
  FaultInjectorOptions fopts;
  fopts.timeout_prob = 1.0;  // every command hangs until the watchdog fires
  ArrayRig rig(1, 1, 1, fopts);
  IoResult first;
  bool first_done = false;
  rig.controller->Submit(DiskOp::kRead, 0, 8, [&](const IoResult& r) {
    first = r;
    first_done = true;
  });
  // The first timeout arms an in-place retry of the fragment.
  while (rig.controller->fault_stats().retries_issued == 0) {
    ASSERT_TRUE(rig.sim.Step());
  }
  const std::vector<uint64_t> retired =
      ArrayControllerTestPeer::LiveFragments(*rig.controller);
  ASSERT_EQ(retired.size(), 1u);
  // The fragment ends while its retry timer is still pending, and the next
  // read's fragment takes over the freed slot.
  ArrayControllerTestPeer::FailFragment(*rig.controller, retired[0]);
  ASSERT_TRUE(first_done);
  EXPECT_EQ(first.status, IoStatus::kUnrecoverable);
  IoResult second;
  bool second_done = false;
  rig.controller->Submit(DiskOp::kRead, 64, 8, [&](const IoResult& r) {
    second = r;
    second_done = true;
  });
  const std::vector<uint64_t> reused =
      ArrayControllerTestPeer::LiveFragments(*rig.controller);
  ASSERT_EQ(reused.size(), 1u);
  EXPECT_EQ(static_cast<uint32_t>(reused[0]), static_cast<uint32_t>(retired[0]))
      << "the new fragment should reuse the retired fragment's slot";
  EXPECT_NE(reused[0], retired[0]);
  while (!second_done) {
    ASSERT_TRUE(rig.sim.Step());
  }
  rig.Drain();
  // The stale retry fired in between and changed nothing: the second read
  // ran exactly its own recovery (three timeouts, two in-place retries, one
  // failover that finds no live copy).
  EXPECT_EQ(second.status, IoStatus::kUnrecoverable);
  EXPECT_EQ(second.recovery_attempts, 3u);
  const FaultRecoveryStats& fs = rig.controller->fault_stats();
  EXPECT_EQ(fs.timeouts_seen, 4u);
  EXPECT_EQ(fs.retries_issued, 3u);
  EXPECT_EQ(fs.failovers, 1u);
  EXPECT_EQ(fs.unrecoverable_completions, 2u);
  EXPECT_EQ(rig.disks[0]->ops_failed(), 4u);
}

TEST(ArrayRecovery, MediaErrorFailsOverToMirrorAndRepairs) {
  ArrayRig rig(1, 1, 2, FaultInjectorOptions{});
  const size_t planted = rig.PlantLatentEverywhere(0, 3000);
  ASSERT_GT(planted, 0u);

  Rng rng(13);
  for (int i = 0; i < 80; ++i) {
    const IoResult r = rig.Do(DiskOp::kRead, rng.UniformU64(3000 - 8), 8);
    EXPECT_EQ(r.status, IoStatus::kOk);  // the mirror always has a clean copy
  }
  rig.Drain();

  const FaultRecoveryStats& fs = rig.controller->fault_stats();
  EXPECT_GT(fs.media_errors_seen, 0u);
  EXPECT_GT(fs.failovers, 0u);
  EXPECT_GT(fs.repairs_queued, 0u);
  // Repair rewrites reached the drive: latent errors cleared and the bad
  // sectors remapped to spare space.
  EXPECT_GT(rig.injector.counters().write_repairs, 0u);
  EXPECT_LT(rig.injector.LatentErrorCount(0), planted);
  EXPECT_GT(rig.disks[0]->layout().num_remapped_sectors(), 0u);
  EXPECT_FALSE(
      rig.controller->IsFailed(SlotId(0)));  // threshold 0: never auto-fail
}

TEST(ArrayRecovery, ConcurrentReadsSurviveInFlightRemap) {
  // Regression for the write-reallocation path: a burst of overlapping reads
  // is outstanding while repair writes remap the sectors under them. Nothing
  // may crash, every read completes, and the bad sectors end up remapped.
  ArrayRig rig(1, 1, 2, FaultInjectorOptions{});
  const size_t planted = rig.PlantLatentEverywhere(0, 64);
  ASSERT_GT(planted, 0u);

  int done = 0;
  constexpr int kOps = 40;
  for (int i = 0; i < kOps; ++i) {
    rig.controller->Submit(DiskOp::kRead, (i * 8) % 56, 8,
                           [&](const IoResult& r) {
                             EXPECT_EQ(r.status, IoStatus::kOk);
                             ++done;
                           });
  }
  while (done < kOps) {
    ASSERT_TRUE(rig.sim.Step());
  }
  rig.Drain();
  EXPECT_EQ(done, kOps);
  EXPECT_TRUE(rig.controller->Idle());
  if (rig.controller->fault_stats().media_errors_seen > 0) {
    EXPECT_GT(rig.disks[0]->layout().num_remapped_sectors(), 0u);
    EXPECT_GT(rig.injector.counters().write_repairs, 0u);
  }
}

TEST(ArrayRecovery, ErrorThresholdAutoFailsAndPromotesHotSpare) {
  ArrayRig rig(1, 1, 2, FaultInjectorOptions{}, /*fail_threshold=*/3,
               /*scrub_interval_us=*/SimDuration(0), /*spares=*/1,
               /*dataset=*/800);
  rig.PlantLatentEverywhere(0, 800);

  Rng rng(17);
  for (int i = 0; i < 120; ++i) {
    const IoResult r = rig.Do(DiskOp::kRead, rng.UniformU64(800 - 8), 8);
    EXPECT_EQ(r.status, IoStatus::kOk);
  }
  rig.Drain();

  const FaultRecoveryStats& fs = rig.controller->fault_stats();
  EXPECT_EQ(fs.auto_disk_failures, 1u);
  EXPECT_EQ(fs.spares_promoted, 1u);
  EXPECT_EQ(fs.spare_rebuilds_completed, 1u);
  EXPECT_EQ(rig.controller->spares_available(), 0u);
  // The promoted spare was rebuilt and put back in service.
  EXPECT_FALSE(rig.controller->IsFailed(SlotId(0)));
  EXPECT_TRUE(rig.injector.IsFailStopped(0) == false);
  // Post-rebuild reads still all succeed.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(rig.Do(DiskOp::kRead, rng.UniformU64(800 - 8), 8).status,
              IoStatus::kOk);
  }
  rig.Drain();
}

TEST(ArrayRecovery, PromotionSurvivesRemapAtTheEndOfTheUsedSpan) {
  // The slot's used span ends at the last sector of its last group track.
  // A write reallocation of exactly that sector turns its slot into a hole
  // in the drive's layout; the spare-compatibility check at promotion must
  // still measure the span, not abort on the hole.
  ArrayRig rig(1, 1, 2, FaultInjectorOptions{}, /*fail_threshold=*/0,
               /*scrub_interval_us=*/SimDuration(0), /*spares=*/1,
               /*dataset=*/800);
  const SrDiskPlacement& placement = rig.layout->placement_for(0);
  const uint64_t span =
      placement.PhysicalSpanSectors(rig.layout->column_sectors(0));
  const uint64_t last = span - 1;
  rig.injector.InjectLatentError(0, last);
  bool written = false;
  rig.disks[0]->Start(DiskOp::kWrite, BlockAddr(last), 1,
                      [&](const DiskOpResult& r) {
                        EXPECT_TRUE(r.ok());
                        written = true;
                      });
  while (!written) {
    ASSERT_TRUE(rig.sim.Step());
  }
  ASSERT_TRUE(rig.disks[0]->layout().IsRemapped(last));

  rig.injector.FailStop(0);
  Rng rng(23);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(rig.Do(DiskOp::kRead, rng.UniformU64(800 - 8), 8).status,
              IoStatus::kOk);
  }
  rig.Drain();
  const FaultRecoveryStats& fs = rig.controller->fault_stats();
  EXPECT_EQ(fs.auto_disk_failures, 1u);
  EXPECT_EQ(fs.spares_promoted, 1u);
  EXPECT_EQ(fs.spare_rebuilds_completed, 1u);
  EXPECT_FALSE(rig.controller->IsFailed(SlotId(0)));
  // The failed drive's span still ends where it did before the remap.
  EXPECT_EQ(placement.PhysicalSpanSectors(rig.layout->column_sectors(0)),
            span);
}

TEST(ArrayRecovery, FailStopDiskIsDetectedAndReplaced) {
  ArrayRig rig(2, 1, 2, FaultInjectorOptions{}, /*fail_threshold=*/0,
               /*scrub_interval_us=*/SimDuration(0), /*spares=*/1,
               /*dataset=*/1600);
  rig.injector.FailStop(1);

  Rng rng(19);
  for (int i = 0; i < 60; ++i) {
    const IoResult r = rig.Do(DiskOp::kRead, rng.UniformU64(1600 - 8), 8);
    EXPECT_EQ(r.status, IoStatus::kOk);
  }
  rig.Drain();

  const FaultRecoveryStats& fs = rig.controller->fault_stats();
  EXPECT_GT(fs.disk_failed_seen, 0u);
  EXPECT_EQ(fs.auto_disk_failures, 1u);
  EXPECT_EQ(fs.spares_promoted, 1u);
  EXPECT_EQ(fs.spare_rebuilds_completed, 1u);
  EXPECT_FALSE(rig.controller->IsFailed(SlotId(1)));
}

TEST(ArrayRecovery, ScrubberFindsAndRepairsLatentErrors) {
  ArrayRig rig(1, 1, 2, FaultInjectorOptions{}, /*fail_threshold=*/0,
               /*scrub_interval_us=*/SimDuration(20'000), /*spares=*/0,
               /*dataset=*/640);
  for (uint64_t lba : {3ull, 100ull, 401ull}) {
    for (const ArrayFragment& f : rig.layout->Map(lba, 1)) {
      rig.injector.InjectLatentError(f.replicas[0].disk, f.replicas[0].lba);
    }
  }
  ASSERT_EQ(rig.injector.TotalLatentErrors(), 3u);

  // No foreground traffic: the idle-gated scrubber owns the array. Give it
  // time for at least one full sweep plus the repair rewrites.
  rig.sim.RunUntil(SimTime(5'000'000));
  rig.Drain();

  const FaultRecoveryStats& fs = rig.controller->fault_stats();
  EXPECT_GT(fs.scrub_reads, 0u);
  EXPECT_GE(fs.scrub_repairs, 3u);
  EXPECT_GE(fs.scrub_sweeps_completed, 1u);
  EXPECT_EQ(rig.injector.TotalLatentErrors(), 0u);
  EXPECT_EQ(rig.injector.counters().write_repairs, 3u);
  rig.controller->AuditQuiescent();
}

TEST(ArrayRecovery, ScrubberYieldsToForegroundTraffic) {
  ArrayRig rig(1, 1, 2, FaultInjectorOptions{}, /*fail_threshold=*/0,
               /*scrub_interval_us=*/SimDuration(10'000), /*spares=*/0,
               /*dataset=*/640);
  // Keep the array busy: back-to-back foreground reads for 2 simulated
  // seconds. The idle-gated scrubber must stand aside the whole time.
  Rng rng(23);
  while (rig.sim.Now() < SimTime(2'000'000)) {
    rig.Do(DiskOp::kRead, rng.UniformU64(640 - 8), 8);
  }
  EXPECT_EQ(rig.controller->fault_stats().scrub_reads, 0u);
  rig.Drain();
}

TEST(ArrayRecovery, RebuildInProgressHoldsThroughWriteRetryBackoff) {
  // A rebuild copy-write that fails transiently waits out a retry backoff
  // with nothing queued for the stream; the rebuild is still in progress.
  ArrayRig rig(1, 1, 2, FaultInjectorOptions{});
  ASSERT_TRUE(rig.controller->FailDisk(SlotId(1)));
  bool rebuilt = false;
  rig.controller->Rebuild(SlotId(1), [&](const IoResult& r) {
    EXPECT_EQ(r.status, IoStatus::kOk);
    EXPECT_FALSE(rig.controller->RebuildInProgress());
    rebuilt = true;
  });
  rig.injector.InjectTransientErrors(1, 1);
  uint64_t gaps = 0;
  while (!rebuilt) {
    ASSERT_TRUE(rig.sim.Step());
    if (!rebuilt && !rig.controller->RebuildInProgress()) {
      ++gaps;
    }
  }
  EXPECT_EQ(gaps, 0u);
  EXPECT_EQ(rig.controller->fault_stats().retries_issued, 1u);
  rig.Drain();
  EXPECT_FALSE(rig.controller->IsFailed(SlotId(1)));
}

TEST(ArrayRecovery, ConcurrentRebuildsHoldInProgressUntilBothFinish) {
  ArrayRig rig(1, 1, 3, FaultInjectorOptions{});
  ASSERT_TRUE(rig.controller->FailDisk(SlotId(1)));
  ASSERT_TRUE(rig.controller->FailDisk(SlotId(2)));
  int rebuilt = 0;
  auto done = [&](const IoResult& r) {
    EXPECT_EQ(r.status, IoStatus::kOk);
    ++rebuilt;
  };
  rig.controller->Rebuild(SlotId(1), done);
  rig.controller->Rebuild(SlotId(2), done);
  while (rebuilt < 2) {
    ASSERT_TRUE(rig.sim.Step());
    EXPECT_EQ(rig.controller->RebuildInProgress(), rebuilt < 2);
  }
  rig.Drain();
}

// ---------------------------------------------------------------------------
// Mirror op-stream digests: what every drive of a mirrored array is asked to
// do during its maintenance work (rebuild, scrub, recalibration, fail-stop
// drain), pinned exactly. Each slot's (start, op, lba, sectors) command
// stream is hashed, plus the fault-recovery and array counters, so any
// change in issue order, recovery choice or accounting shows up here. The
// constants were recorded while rebuild, scrub and recalibration I/O still
// ran through the controller's own id-keyed completion hooks, before they
// became DriveSet commands.
// ---------------------------------------------------------------------------

MimdRaidOptions MirrorOptions(TraceCollector* collector, int dm,
                              uint32_t hot_spares,
                              SimDuration scrub_interval_us) {
  MimdRaidOptions options;
  options.backend = ArrayBackendKind::kMirror;
  options.aspect.ds = 1;
  options.aspect.dr = 2;
  options.aspect.dm = dm;
  options.scheduler = SchedulerKind::kRsatf;
  options.dataset_sectors = 4000;
  options.stripe_unit_sectors = 16;
  options.geometry = MakeTestGeometry();
  options.profile = MakeTestSeekProfile();
  options.seed = 11;
  options.enable_fault_injection = true;
  options.fault.seed = 11;
  options.hot_spares = hot_spares;
  options.scrub_interval_us = scrub_interval_us;
  options.collector = collector;
  return options;
}

std::unique_ptr<MimdRaid> MakeMirrorArray(TraceCollector* collector, int dm,
                                          uint32_t hot_spares,
                                          SimDuration scrub_interval_us) {
  return std::make_unique<MimdRaid>(
      MirrorOptions(collector, dm, hot_spares, scrub_interval_us));
}

void PumpArray(MimdRaid* array, const std::function<bool()>& finished) {
  uint64_t steps = 0;
  while (!finished()) {
    ASSERT_TRUE(array->sim().Step()) << "simulator ran dry";
    ASSERT_LT(++steps, 30'000'000u) << "run wedged";
  }
}

void DrainMirror(MimdRaid* array) {
  array->backend().StopScrub();
  PumpArray(array, [array] {
    return array->backend().Idle() && !array->backend().RebuildInProgress();
  });
}

// Reads and writes of 1-24 sectors at random offsets, with an idle gap after
// a `gap_prob` share of the submissions.
void SubmitMirrorMix(MimdRaid* array, int ops, uint64_t seed, double gap_prob,
                     int* done) {
  Rng rng(seed);
  const uint64_t capacity = array->backend().dataset_sectors();
  for (int i = 0; i < ops; ++i) {
    const DiskOp op = rng.Bernoulli(0.4) ? DiskOp::kWrite : DiskOp::kRead;
    const uint32_t sectors = 1 + static_cast<uint32_t>(rng.UniformU64(24));
    const uint64_t lba = rng.UniformU64(capacity - sectors);
    array->backend().Submit(op, lba, sectors, [done](const IoResult& r) {
      EXPECT_EQ(r.status, IoStatus::kOk);
      ++*done;
    });
    if (rng.Bernoulli(gap_prob)) {
      array->sim().RunUntil(
          array->sim().Now() +
          SimDuration(static_cast<int64_t>(rng.UniformU64(6'000))));
    }
  }
}

void MixDigest(uint64_t* h, uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    *h ^= (value >> (8 * b)) & 0xffu;
    *h *= 1099511628211ull;
  }
}

// FNV-1a over each slot's command stream in issue order, then one more
// digest over the fault-recovery summary and the array counters.
std::vector<uint64_t> MirrorDigests(MimdRaid* array,
                                    const TraceCollector& collector) {
  const size_t slots = array->num_disks();
  std::vector<uint64_t> digests(slots + 1, 14695981039346656037ull);
  for (const DiskOpRecord& rec : collector.disk_ops()) {
    EXPECT_LT(rec.slot, slots);
    if (rec.slot >= slots) {
      continue;
    }
    uint64_t* h = &digests[rec.slot];
    MixDigest(h, static_cast<uint64_t>(rec.start_us.us()));
    MixDigest(h, rec.is_write ? 1u : 0u);
    MixDigest(h, rec.lba);
    MixDigest(h, rec.sectors);
  }
  uint64_t* h = &digests[slots];
  for (const char c : array->backend().fault_stats().Summary()) {
    MixDigest(h, static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  const ArrayStats& s = array->controller().stats();
  for (const uint64_t v :
       {s.reads_completed, s.writes_completed, s.delayed_writes_completed,
        s.delayed_writes_forced, s.delayed_writes_discarded,
        s.read_duplicates_cancelled, s.recalibration_reads, s.parked_reads,
        s.stale_fallback_reads,
        array->controller().rebuild_copied_fragments()}) {
    MixDigest(h, v);
  }
  return digests;
}

std::string FormatMirrorDigests(const std::vector<uint64_t>& digests) {
  std::string out;
  for (const uint64_t d : digests) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llxull, ",
                  static_cast<unsigned long long>(d));
    out += buf;
  }
  return out;
}

// The live replica the rebuild of `target` sources its first fragment from:
// the first replica off `target` of the first fragment `target` holds.
uint32_t FirstRebuildSource(MimdRaid* array, uint32_t target) {
  const ArrayLayout& layout = array->layout();
  for (uint64_t lba = 0; lba < layout.dataset_sectors();
       lba += layout.stripe_unit_sectors()) {
    for (const ArrayFragment& f :
         layout.Map(lba, layout.stripe_unit_sectors())) {
      bool holds = false;
      for (const ReplicaLocation& loc : f.replicas) {
        holds = holds || loc.disk == target;
      }
      if (!holds) {
        continue;
      }
      for (const ReplicaLocation& loc : f.replicas) {
        if (loc.disk != target) {
          return loc.disk;
        }
      }
    }
  }
  ADD_FAILURE() << "no rebuild source";
  return 0;
}

TEST(MirrorOpStream, DigestsMatchRecordedStreams) {
  std::vector<std::vector<uint64_t>> got;

  {  // (a) Rebuild under traffic with transient and latent faults on both
     // its source and its target.
    TraceCollector collector;
    auto array = MakeMirrorArray(&collector, 2, 0, SimDuration(0));
    FaultInjector& injector = *array->fault_injector();
    ASSERT_TRUE(array->backend().FailDisk(SlotId(1)));
    int done = 0;
    SubmitMirrorMix(array.get(), 120, 301, 0.2, &done);
    PumpArray(array.get(), [&] { return done == 120; });
    const uint32_t source = FirstRebuildSource(array.get(), 1);
    for (const uint64_t lba : {0ull, 40ull, 700ull, 1500ull, 3000ull}) {
      for (const ArrayFragment& f : array->layout().Map(lba, 1)) {
        for (const ReplicaLocation& loc : f.replicas) {
          if (loc.disk == source || loc.disk == 1) {
            injector.InjectLatentError(loc.disk, loc.lba);
          }
        }
      }
    }
    injector.InjectTransientErrors(source, 2);
    injector.InjectTransientErrors(1, 3);
    bool rebuilt = false;
    array->backend().Rebuild(SlotId(1), [&](const IoResult& r) {
      EXPECT_EQ(r.status, IoStatus::kOk);
      rebuilt = true;
    });
    SubmitMirrorMix(array.get(), 80, 302, 0.2, &done);
    PumpArray(array.get(), [&] { return done == 200 && rebuilt; });
    DrainMirror(array.get());
    EXPECT_FALSE(array->backend().IsFailed(SlotId(1)));
    EXPECT_GT(array->backend().fault_stats().retries_issued, 0u);
    EXPECT_GT(array->backend().fault_stats().failovers, 0u);
    got.push_back(MirrorDigests(array.get(), collector));
  }
  {  // (b) Idle scrub over planted latent errors, repaired by rewrite.
    TraceCollector collector;
    auto array = MakeMirrorArray(&collector, 2, 0, SimDuration(5'000));
    for (const uint64_t lba : {5ull, 333ull, 1200ull, 2600ull}) {
      const ArrayFragment f = array->layout().Map(lba, 1).front();
      array->fault_injector()->InjectLatentError(f.replicas.back().disk,
                                                 f.replicas.back().lba);
    }
    int done = 0;
    SubmitMirrorMix(array.get(), 40, 303, 0.2, &done);
    PumpArray(array.get(), [&] { return done == 40; });
    array->sim().RunUntil(array->sim().Now() + SimDuration(6'000'000));
    DrainMirror(array.get());
    EXPECT_GE(array->backend().fault_stats().scrub_sweeps_completed, 1u);
    EXPECT_GT(array->backend().fault_stats().scrub_repairs, 0u);
    got.push_back(MirrorDigests(array.get(), collector));
  }
  {  // (c) Recalibration reference reads under traffic.
    TraceCollector collector;
    MimdRaidOptions options;
    options.backend = ArrayBackendKind::kMirror;
    options.aspect.ds = 1;
    options.aspect.dr = 2;
    options.aspect.dm = 2;
    options.dataset_sectors = 4000;
    options.stripe_unit_sectors = 16;
    options.geometry = MakeTestGeometry();
    options.profile = MakeTestSeekProfile();
    options.seed = 13;
    options.use_oracle_predictor = false;
    options.calibration.seek.num_distances = 10;
    options.recalibration_interval_us = SimDuration(40'000);
    options.collector = &collector;
    MimdRaid array(options);
    int done = 0;
    SubmitMirrorMix(&array, 200, 304, 0.2, &done);
    PumpArray(&array, [&] { return done == 200; });
    array.sim().RunUntil(array.sim().Now() + SimDuration(200'000));
    EXPECT_GT(array.controller().stats().recalibration_reads, 0u);
    got.push_back(MirrorDigests(&array, collector));
  }
  {  // (d) A fail-stop detected while a rebuild read and scrub reads sit in
     // the failed slot's delayed queue, then spare promotion and a second
     // rebuild running beside the first.
    TraceCollector collector;
    auto array = MakeMirrorArray(&collector, 3, 1, SimDuration(20'000));
    ASSERT_TRUE(array->backend().FailDisk(SlotId(2)));
    const uint32_t source = FirstRebuildSource(array.get(), 2);
    array->sim().RunUntil(SimTime(20'000));  // the first scrub tick fires
    bool rebuilt = false;
    array->backend().Rebuild(SlotId(2), [&](const IoResult& r) {
      EXPECT_EQ(r.status, IoStatus::kOk);
      rebuilt = true;
    });
    int done = 0;
    SubmitMirrorMix(array.get(), 30, 305, 0.0, &done);
    array->fault_injector()->FailStop(source);
    SubmitMirrorMix(array.get(), 150, 306, 0.2, &done);
    PumpArray(array.get(), [&] { return done == 180 && rebuilt; });
    DrainMirror(array.get());
    EXPECT_EQ(array->backend().fault_stats().auto_disk_failures, 1u);
    EXPECT_EQ(array->backend().fault_stats().spares_promoted, 1u);
    EXPECT_EQ(array->backend().fault_stats().spare_rebuilds_completed, 1u);
    EXPECT_FALSE(array->backend().IsFailed(SlotId(source)));
    EXPECT_FALSE(array->backend().IsFailed(SlotId(2)));
    got.push_back(MirrorDigests(array.get(), collector));
  }

  const std::vector<std::vector<uint64_t>> want = {
      {0x436ddcecf8892320ull, 0xc359db9a9731744full, 0x6c9f21a12b67416eull,
       0x53e7528b1c7879ebull, 0x1c5b122d459b54d4ull},
      {0x4f3d8d9c6ef016c1ull, 0xedc079d97fcca66full, 0x8e6ef33b1f4fe1beull,
       0x25dd264b0a34e411ull, 0x5652c09ef6411f13ull},
      {0xc34f9c0d92448304ull, 0x4100e659a2310fdcull, 0x238cbb52d36e674dull,
       0x1c370bf48eb43a5aull, 0x7ea529afa79b0442ull},
      {0x0069057a19f06a32ull, 0x2b24fdf0b86002d5ull, 0xc3b2381b9085e247ull,
       0xb5ded72858d5e650ull, 0x7cd29de59b5fdfb9ull, 0x5b4766b3b23383ecull,
       0x023503e1926e4ee4ull},
  };
  ASSERT_EQ(got.size(), want.size());
  const char* const names[] = {"faulted rebuild", "idle scrub",
                               "recalibration", "fail-stop drain"};
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << names[i] << " got {"
                               << FormatMirrorDigests(got[i]) << "}";
  }
}

TEST(ArrayRecovery, RecalibrationSkipsFailedSlot) {
  // A failed slot has no head to recalibrate: its reference reads must not
  // pile up in its queue (where they would keep the array from ever going
  // idle) while the live slots keep recalibrating.
  MimdRaidOptions options = MirrorOptions(nullptr, 2, 0, SimDuration(0));
  options.use_oracle_predictor = false;
  options.calibration.seek.num_distances = 10;
  options.recalibration_interval_us = SimDuration(40'000);
  MimdRaid array(options);
  ASSERT_TRUE(array.backend().FailDisk(SlotId(1)));
  array.sim().RunUntil(array.sim().Now() + SimDuration(400'000));
  EXPECT_EQ(array.controller().QueueDepth(1), 0u);
  EXPECT_GT(array.controller().stats().recalibration_reads, 0u);
}

TEST(ArrayRecovery, ForcedOutRebuildCopySurvivesSourceFailure) {
  // With a zero-entry NVRAM table every write completion forces all delayed
  // work into the foreground queues, the rebuild's source read included.
  // When that source then fail-stops, the drained read must restart the
  // copy from another replica rather than vanish with the queue.
  MimdRaidOptions options = MirrorOptions(nullptr, 3, 0, SimDuration(0));
  options.delayed_table_limit = 0;
  MimdRaid array(options);
  ASSERT_TRUE(array.backend().FailDisk(SlotId(2)));
  const uint32_t source = FirstRebuildSource(&array, 2);
  int done = 0;
  SubmitMirrorMix(&array, 40, 307, 0.0, &done);
  bool rebuilt = false;
  array.backend().Rebuild(SlotId(2), [&](const IoResult& r) {
    EXPECT_EQ(r.status, IoStatus::kOk);
    rebuilt = true;
  });
  SubmitMirrorMix(&array, 40, 308, 0.0, &done);
  array.fault_injector()->FailStop(source);
  SubmitMirrorMix(&array, 60, 309, 0.2, &done);
  PumpArray(&array, [&] { return done == 140; });
  DrainMirror(&array);
  EXPECT_TRUE(rebuilt);
  EXPECT_FALSE(array.backend().RebuildInProgress());
  EXPECT_TRUE(array.backend().IsFailed(SlotId(source)));
  EXPECT_GT(array.controller().stats().delayed_writes_forced, 0u);
}

// ---------------------------------------------------------------------------
// RAID-5 recovery (EcController over a k+1 left-symmetric EcLayout).
// ---------------------------------------------------------------------------

struct Raid5Rig {
  explicit Raid5Rig(uint32_t disks_n = 4,
                    const FaultInjectorOptions& fopts = FaultInjectorOptions{})
      : injector(fopts),
        layout(disks_n, disks_n - 1, 16, 2000, EcLayout::Scheme::kRaid5),
        codec(disks_n - 1, 1) {
    for (uint32_t i = 0; i < disks_n; ++i) {
      sim_disks.push_back(std::make_unique<SimDisk>(
          &sim, MakeTestGeometry(), MakeTestSeekProfile(),
          DiskNoiseModel::None(), 17 + i, i * 500.0));
      preds.push_back(
          std::make_unique<OraclePredictor>(sim_disks.back().get(), 0.0));
      dptr.push_back(sim_disks.back().get());
      pptr.push_back(preds.back().get());
    }
    DriveSetOptions copts;
    copts.fault_injector = &injector;
    controller = std::make_unique<EcController>(&sim, dptr, pptr, &layout,
                                                &codec, copts);
  }

  IoResult Do(DiskOp op, uint64_t lba, uint32_t sectors) {
    IoResult out;
    bool done = false;
    controller->Submit(op, lba, sectors, [&](const IoResult& r) {
      out = r;
      done = true;
    });
    while (!done) {
      EXPECT_TRUE(sim.Step());
    }
    return out;
  }

  void Drain() {
    while (!controller->Idle() && sim.Step()) {
    }
  }

  Simulator sim;
  FaultInjector injector;
  EcLayout layout;
  EcCodec codec;
  std::vector<std::unique_ptr<SimDisk>> sim_disks;
  std::vector<std::unique_ptr<AccessPredictor>> preds;
  std::vector<SimDisk*> dptr;
  std::vector<AccessPredictor*> pptr;
  std::unique_ptr<EcController> controller;
};

}  // namespace

// Reaches into the erasure controller's plan slab (a friend of
// EcController).
class EcControllerTestPeer {
 public:
  static std::vector<uint64_t> LivePlans(const EcController& c) {
    std::vector<uint64_t> keys;
    c.frags_.ForEachLive([&](uint64_t key) { keys.push_back(key); });
    return keys;
  }
};

namespace {

TEST(Raid5Recovery, StaleSubOpLeavesReplannedFragmentAlone) {
  Raid5Rig rig;
  const EcFragment frag = rig.layout.Map(0, 8)[0];
  const uint32_t parity = rig.layout.ParityDiskOf(frag.row, 0);
  // A read-modify-write whose data pre-image is unreadable for good, and
  // whose old-parity read sits on a fail-slow drive: the fragment re-plans
  // as a reconstruct-write while the parity read is still out.
  rig.injector.InjectLatentError(frag.data_disk, frag.disk_lba);
  rig.injector.SetFailSlow(parity, 50.0);
  IoResult out;
  bool done = false;
  rig.controller->Submit(DiskOp::kWrite, 0, 8, [&](const IoResult& r) {
    out = r;
    done = true;
  });
  const std::vector<uint64_t> first =
      EcControllerTestPeer::LivePlans(*rig.controller);
  ASSERT_EQ(first.size(), 1u);
  while (rig.controller->fault_stats().failovers == 0) {
    ASSERT_TRUE(rig.sim.Step());
  }
  const std::vector<uint64_t> replanned =
      EcControllerTestPeer::LivePlans(*rig.controller);
  ASSERT_EQ(replanned.size(), 1u);
  EXPECT_EQ(static_cast<uint32_t>(replanned[0]),
            static_cast<uint32_t>(first[0]))
      << "the new plan should reuse the abandoned plan's slot";
  EXPECT_NE(replanned[0], first[0]);
  EXPECT_TRUE(rig.sim_disks[parity]->busy())
      << "the old plan's parity read should still be out";
  while (!done) {
    ASSERT_TRUE(rig.sim.Step());
  }
  rig.Drain();
  // The stale parity read completed into the reused slot and changed
  // nothing: the write finished once, on its reconstruct-write plan.
  EXPECT_EQ(out.status, IoStatus::kOk);
  EXPECT_EQ(out.recovery_attempts, 1u);
  EXPECT_EQ(rig.controller->stats().rmw_writes, 1u);
  EXPECT_EQ(rig.controller->stats().reconstruct_writes, 1u);
  EXPECT_EQ(rig.controller->stats().writes_completed, 1u);
  // Old parity read + new parity write; one read on each sibling data unit.
  EXPECT_EQ(rig.sim_disks[parity]->ops_completed(), 2u);
  EXPECT_TRUE(rig.controller->Idle());
}

TEST(Raid5Recovery, TransientReadErrorRetriesInPlace) {
  Raid5Rig rig;
  const auto frag = rig.layout.Map(0, 8)[0];
  rig.injector.InjectTransientErrors(frag.data_disk, 1);
  const IoResult r = rig.Do(DiskOp::kRead, 0, 8);
  EXPECT_EQ(r.status, IoStatus::kOk);
  const FaultRecoveryStats& fs = rig.controller->fault_stats();
  EXPECT_EQ(fs.media_errors_seen, 1u);
  EXPECT_EQ(fs.retries_issued, 1u);
  EXPECT_EQ(rig.controller->stats().degraded_reads, 0u);
  rig.Drain();
}

TEST(Raid5Recovery, PersistentMediaErrorReconstructsAndRepairs) {
  Raid5Rig rig;
  const auto frag = rig.layout.Map(0, 8)[0];
  for (uint32_t s = 0; s < frag.sectors; ++s) {
    rig.injector.InjectLatentError(frag.data_disk, frag.disk_lba + s);
  }
  const IoResult r = rig.Do(DiskOp::kRead, 0, 8);
  EXPECT_EQ(r.status, IoStatus::kOk);  // served via peer reconstruction
  const FaultRecoveryStats& fs = rig.controller->fault_stats();
  EXPECT_GT(fs.media_errors_seen, 0u);
  EXPECT_GT(fs.failovers, 0u);
  EXPECT_EQ(fs.repairs_queued, 1u);
  rig.Drain();
  // The repair rewrite reallocated the bad sectors on the data disk.
  EXPECT_EQ(rig.injector.LatentErrorCount(frag.data_disk), 0u);
  EXPECT_GT(rig.injector.counters().write_repairs, 0u);
  EXPECT_GT(rig.sim_disks[frag.data_disk]->layout().num_remapped_sectors(), 0u);
  // The repaired copy serves direct reads again.
  const uint64_t before = rig.controller->stats().degraded_reads;
  EXPECT_EQ(rig.Do(DiskOp::kRead, 0, 8).status, IoStatus::kOk);
  EXPECT_EQ(rig.controller->stats().degraded_reads, before);
}

TEST(Raid5Recovery, DoubleFailureReadsSurfaceUnrecoverable) {
  // Satellite regression: the second FailDisk used to be a hard CHECK; both
  // orders must now be survived, with per-fragment graceful degradation.
  for (const bool reverse : {false, true}) {
    Raid5Rig rig;
    const auto frag = rig.layout.Map(0, 8)[0];
    const uint32_t parity_disk = rig.layout.ParityDiskOf(frag.row, 0);
    const uint32_t first = reverse ? parity_disk : frag.data_disk;
    const uint32_t second = reverse ? frag.data_disk : parity_disk;
    rig.controller->FailDisk(SlotId(first));
    rig.controller->FailDisk(SlotId(second));
    EXPECT_TRUE(rig.controller->IsFailed(SlotId(frag.data_disk)));
    EXPECT_TRUE(rig.controller->IsFailed(SlotId(parity_disk)));

    // This fragment needs its dead data disk plus a full reconstruction set
    // that includes the other dead disk: unrecoverable, not a crash.
    const IoResult lost = rig.Do(DiskOp::kRead, 0, 8);
    EXPECT_EQ(lost.status, IoStatus::kUnrecoverable);

    // A fragment whose data disk survived both failures still reads fine.
    uint64_t healthy_lba = 0;
    bool found = false;
    for (uint64_t lba = 0; lba < rig.layout.data_capacity_sectors() && !found;
         lba += 16) {
      const auto f = rig.layout.Map(lba, 8)[0];
      if (!rig.controller->IsFailed(SlotId(f.data_disk))) {
        healthy_lba = lba;
        found = true;
      }
    }
    ASSERT_TRUE(found);
    EXPECT_EQ(rig.Do(DiskOp::kRead, healthy_lba, 8).status, IoStatus::kOk);
    rig.Drain();
    EXPECT_GT(rig.controller->fault_stats().unrecoverable_completions, 0u);
  }
}

TEST(Raid5Recovery, DoubleFailureMixedTrafficNeverCrashes) {
  for (const uint64_t seed : {29ull, 31ull}) {
    Raid5Rig rig(5);
    rig.controller->FailDisk(SlotId(1));
    rig.controller->FailDisk(SlotId(3));
    Rng rng(seed);
    int done = 0;
    constexpr int kOps = 150;
    for (int i = 0; i < kOps; ++i) {
      const uint32_t sectors = 1 + static_cast<uint32_t>(rng.UniformU64(24));
      const uint64_t lba =
          rng.UniformU64(rig.layout.data_capacity_sectors() - sectors);
      rig.controller->Submit(
          rng.Bernoulli(0.6) ? DiskOp::kRead : DiskOp::kWrite, lba, sectors,
          [&](const IoResult& r) {
            EXPECT_TRUE(r.status == IoStatus::kOk ||
                        r.status == IoStatus::kUnrecoverable);
            ++done;
          });
    }
    while (done < kOps) {
      ASSERT_TRUE(rig.sim.Step());
    }
    rig.Drain();
    EXPECT_TRUE(rig.controller->Idle());
  }
}

TEST(Raid5Recovery, FailStopVerdictAutoFailsTheSlot) {
  Raid5Rig rig;
  const auto frag = rig.layout.Map(0, 8)[0];
  rig.injector.FailStop(frag.data_disk);
  const IoResult r = rig.Do(DiskOp::kRead, 0, 8);
  EXPECT_EQ(r.status, IoStatus::kOk);  // degraded reconstruction
  const FaultRecoveryStats& fs = rig.controller->fault_stats();
  EXPECT_GT(fs.disk_failed_seen, 0u);
  EXPECT_EQ(fs.auto_disk_failures, 1u);
  EXPECT_TRUE(rig.controller->IsFailed(SlotId(frag.data_disk)));
  EXPECT_EQ(rig.controller->stats().degraded_reads, 1u);
  rig.Drain();
}

TEST(Raid5Recovery, RebuildSurvivesSecondFailureMidway) {
  // Fail disk 0, start its rebuild, then kill another disk mid-rebuild: the
  // rebuild must terminate (some rows lost, counted), never wedge.
  Raid5Rig rig;
  rig.controller->FailDisk(SlotId(0));
  IoResult rebuild_result;
  bool rebuilt = false;
  rig.controller->Rebuild(SlotId(0), [&](const IoResult& r) {
    rebuild_result = r;
    rebuilt = true;
  });
  // Let a few rows rebuild, then fail a survivor.
  rig.sim.RunUntil(rig.sim.Now() + SimDuration(40'000));
  rig.controller->FailDisk(SlotId(2));
  while (!rebuilt) {
    ASSERT_TRUE(rig.sim.Step());
  }
  rig.Drain();
  EXPECT_NE(rebuild_result.status, IoStatus::kOk);
  EXPECT_GT(rig.controller->fault_stats().rebuild_fragments_lost, 0u);
  EXPECT_TRUE(rig.controller->Idle());
}

}  // namespace
}  // namespace mimdraid

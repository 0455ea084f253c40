#include <gtest/gtest.h>

#include "src/disk/sim_disk.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

class SimDiskTest : public ::testing::Test {
 protected:
  SimDiskTest()
      : disk_(&sim_, MakeTestGeometry(), MakeTestSeekProfile(),
              DiskNoiseModel::None(), /*seed=*/1, /*spindle_phase_us=*/0.0) {}

  DiskOpResult Access(DiskOp op, uint64_t lba, uint32_t sectors) {
    DiskOpResult result;
    bool done = false;
    disk_.Start(op, BlockAddr(lba), sectors, [&](const DiskOpResult& r) {
      result = r;
      done = true;
    });
    while (!done) {
      EXPECT_TRUE(sim_.Step());
    }
    return result;
  }

  Simulator sim_;
  SimDisk disk_;
};

TEST_F(SimDiskTest, BusyDuringServiceIdleAfter) {
  bool done = false;
  disk_.Start(DiskOp::kRead, BlockAddr(0), 1, [&](const DiskOpResult&) {
    done = true;
    EXPECT_FALSE(disk_.busy());  // callback runs after the disk frees
  });
  EXPECT_TRUE(disk_.busy());
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(disk_.busy());
}

TEST_F(SimDiskTest, CompletionDecompositionSums) {
  const DiskOpResult r = Access(DiskOp::kRead, 100, 4);
  EXPECT_NEAR(static_cast<double>(r.ServiceUs().us()),
              r.overhead_us + r.seek_us + r.rotational_us + r.transfer_us, 1.0);
}

TEST_F(SimDiskTest, NoiseFreeOverheadIsExactlyConfigured) {
  const DiskNoiseModel noise = DiskNoiseModel::None();
  const DiskOpResult r = Access(DiskOp::kRead, 10, 1);
  EXPECT_DOUBLE_EQ(r.overhead_us,
                   noise.overhead_mean_us + noise.post_overhead_mean_us);
}

TEST_F(SimDiskTest, BackToBackSameSectorCostsFullRotation) {
  // The second read of the same sector must wait ~a full rotation (the
  // overhead means the slot has just passed).
  Access(DiskOp::kRead, 50, 1);
  const SimTime t0 = sim_.Now();
  const DiskOpResult r2 = Access(DiskOp::kRead, 50, 1);
  const SimDuration gap = r2.completion_us - t0;
  EXPECT_GT(gap, SimDuration(5000));
  EXPECT_LT(gap, SimDuration(7000));
}

TEST_F(SimDiskTest, HeadStateTracksLastAccess) {
  Access(DiskOp::kRead, 2000, 1);
  const Chs chs = disk_.layout().ToChs(2000);
  EXPECT_EQ(disk_.DebugHeadState().cylinder, chs.cylinder);
  EXPECT_EQ(disk_.DebugHeadState().head, chs.head);
}

TEST_F(SimDiskTest, DeterministicAcrossInstances) {
  Simulator sim2;
  SimDisk disk2(&sim2, MakeTestGeometry(), MakeTestSeekProfile(),
                DiskNoiseModel::None(), /*seed=*/1, /*spindle_phase_us=*/0.0);
  DiskOpResult a;
  DiskOpResult b;
  bool done_a = false;
  bool done_b = false;
  disk_.Start(DiskOp::kRead, BlockAddr(123), 8, [&](const DiskOpResult& r) {
    a = r;
    done_a = true;
  });
  disk2.Start(DiskOp::kRead, BlockAddr(123), 8, [&](const DiskOpResult& r) {
    b = r;
    done_b = true;
  });
  sim_.Run();
  sim2.Run();
  ASSERT_TRUE(done_a && done_b);
  EXPECT_EQ(a.completion_us, b.completion_us);
}

TEST_F(SimDiskTest, SpindlePhaseOffsetsCompletionTimes) {
  Simulator sim2;
  SimDisk shifted(&sim2, MakeTestGeometry(), MakeTestSeekProfile(),
                  DiskNoiseModel::None(), /*seed=*/1,
                  /*spindle_phase_us=*/1500.0);
  DiskOpResult a = Access(DiskOp::kRead, 400, 1);
  DiskOpResult b;
  bool done = false;
  shifted.Start(DiskOp::kRead, BlockAddr(400), 1, [&](const DiskOpResult& r) {
    b = r;
    done = true;
  });
  sim2.Run();
  ASSERT_TRUE(done);
  EXPECT_NE(a.completion_us, b.completion_us);
}

TEST_F(SimDiskTest, WritesSlowerThanReadsAcrossSeeks) {
  // Position at cylinder 0, then access a far sector as read vs write.
  Access(DiskOp::kRead, 0, 1);
  Simulator sim2;
  SimDisk disk2(&sim2, MakeTestGeometry(), MakeTestSeekProfile(),
                DiskNoiseModel::None(), /*seed=*/1, /*spindle_phase_us=*/0.0);
  // Mirror the same starting state on disk2.
  bool unused = false;
  disk2.Start(DiskOp::kRead, BlockAddr(0), 1,
              [&](const DiskOpResult&) { unused = true; });
  sim2.Run();
  const DiskOpResult r = Access(DiskOp::kRead, 5000, 1);
  DiskOpResult w;
  bool done = false;
  disk2.Start(DiskOp::kWrite, BlockAddr(5000), 1, [&](const DiskOpResult& res) {
    w = res;
    done = true;
  });
  sim2.Run();
  ASSERT_TRUE(done);
  EXPECT_GT(w.seek_us, r.seek_us);
}

TEST(SimDiskNoise, JitterVariesCompletions) {
  Simulator sim;
  DiskNoiseModel noise = DiskNoiseModel::Prototype();
  SimDisk disk(&sim, MakeTestGeometry(), MakeTestSeekProfile(), noise,
               /*seed=*/3, /*spindle_phase_us=*/0.0);
  // Repeated single-sector reads of the same LBA: overhead jitter shifts
  // completions off the exact lattice by the post-overhead jitter.
  double prev_overhead = -1.0;
  bool varied = false;
  for (int i = 0; i < 10; ++i) {
    bool done = false;
    DiskOpResult r;
    disk.Start(DiskOp::kRead, BlockAddr(5), 1, [&](const DiskOpResult& res) {
      r = res;
      done = true;
    });
    sim.Run();
    ASSERT_TRUE(done);
    if (prev_overhead >= 0.0 && r.overhead_us != prev_overhead) {
      varied = true;
    }
    prev_overhead = r.overhead_us;
  }
  EXPECT_TRUE(varied);
}

TEST(SimDiskRotation, OverrideAffectsBackToBackGap) {
  Simulator sim;
  SimDisk disk(&sim, MakeTestGeometry(), MakeTestSeekProfile(),
               DiskNoiseModel::None(), /*seed=*/1, /*spindle_phase_us=*/0.0,
               /*rotation_us_override=*/6006.0);
  auto access = [&](uint64_t lba) {
    bool done = false;
    DiskOpResult r;
    disk.Start(DiskOp::kRead, BlockAddr(lba), 1, [&](const DiskOpResult& res) {
      r = res;
      done = true;
    });
    sim.Run();
    EXPECT_TRUE(done);
    return r;
  };
  const DiskOpResult r1 = access(7);
  const DiskOpResult r2 = access(7);
  const SimDuration gap = r2.completion_us - r1.completion_us;
  // One full (slow) rotation, not the nominal 6000.
  EXPECT_NEAR(static_cast<double>(gap.us()), 6006.0, 2.0);
}

}  // namespace
}  // namespace mimdraid

namespace mimdraid {
namespace {

// Zoned bit recording: outer tracks hold more sectors, so sequential
// bandwidth is higher at the outer edge than at the inner edge.
TEST(SimDiskZbr, OuterZoneFasterThanInner) {
  Simulator sim;
  const DiskGeometry geo = MakeSt39133Geometry();
  SimDisk disk(&sim, geo, MakeSt39133SeekProfile(), DiskNoiseModel::None(),
               1, 0.0);
  auto stream_mb_per_s = [&](uint64_t start_lba) {
    const SimTime t0 = sim.Now();
    uint64_t lba = start_lba;
    // Large requests so media rate dominates per-command overhead (each
    // command boundary costs most of a rotation).
    constexpr int kOps = 8;
    constexpr uint32_t kReq = 1024;
    for (int i = 0; i < kOps; ++i) {
      bool done = false;
      disk.Start(DiskOp::kRead, BlockAddr(lba), kReq,
                 [&](const DiskOpResult&) { done = true; });
      while (!done) {
        sim.Step();
      }
      lba += kReq;
    }
    return kOps * kReq * 512.0 / 1e6 / SecondsFromUs(sim.Now() - t0);
  };
  const double outer = stream_mb_per_s(0);
  const double inner =
      stream_mb_per_s(disk.num_sectors() - 8 * 1024 - 2048);
  EXPECT_GT(outer, inner * 1.3);  // SPT 264 vs 165 -> ~1.6x media rate
}

// Two identical drives, one planning from the caller's resolved position and
// one resolving the LBA itself, must produce identical results: before any
// remap, after one (the layout then refuses every hint, including hints
// resolved before it), and on the write-reallocation path, which remaps
// while planning.
class HintedStartTest : public ::testing::Test {
 protected:
  // Each drive runs on its own simulator, so both see the same clock.
  HintedStartTest()
      : plain_(&plain_sim_, MakeTestGeometry(), MakeTestSeekProfile(),
               DiskNoiseModel::Prototype(), /*seed=*/7,
               /*spindle_phase_us=*/123.0),
        hinted_(&hinted_sim_, MakeTestGeometry(), MakeTestSeekProfile(),
                DiskNoiseModel::Prototype(), /*seed=*/7,
                /*spindle_phase_us=*/123.0) {}

  static DiskOpResult Run(Simulator& sim, SimDisk& disk, DiskOp op,
                          uint64_t lba, uint32_t sectors,
                          const ResolvedPosition& hint) {
    DiskOpResult result;
    bool done = false;
    disk.Start(
        op, BlockAddr(lba), sectors,
        [&](const DiskOpResult& r) {
          result = r;
          done = true;
        },
        hint);
    while (!done) {
      EXPECT_TRUE(sim.Step());
    }
    return result;
  }

  // One access on each drive; `hint` goes to the hinted drive only.
  void ExpectSame(DiskOp op, uint64_t lba, uint32_t sectors,
                  const ResolvedPosition& hint) {
    const DiskOpResult a = Run(plain_sim_, plain_, op, lba, sectors, {});
    const DiskOpResult b = Run(hinted_sim_, hinted_, op, lba, sectors, hint);
    EXPECT_EQ(a.status, b.status) << "lba=" << lba;
    EXPECT_EQ(a.start_us, b.start_us) << "lba=" << lba;
    EXPECT_EQ(a.completion_us, b.completion_us) << "lba=" << lba;
    EXPECT_EQ(a.overhead_us, b.overhead_us) << "lba=" << lba;
    EXPECT_EQ(a.seek_us, b.seek_us) << "lba=" << lba;
    EXPECT_EQ(a.rotational_us, b.rotational_us) << "lba=" << lba;
    EXPECT_EQ(a.transfer_us, b.transfer_us) << "lba=" << lba;
  }

  Simulator plain_sim_;
  Simulator hinted_sim_;
  SimDisk plain_;
  SimDisk hinted_;
};

TEST_F(HintedStartTest, HintedAndUnhintedResultsMatch) {
  Rng rng(11);
  const uint64_t n = plain_.num_sectors() - 16;
  std::vector<uint64_t> lbas;
  std::vector<ResolvedPosition> early_hints;
  for (int i = 0; i < 50; ++i) {
    lbas.push_back(rng.UniformU64(n));
    early_hints.push_back(hinted_.layout().Resolve(lbas.back()));
    ExpectSame(i % 3 == 0 ? DiskOp::kWrite : DiskOp::kRead, lbas.back(), 8,
               early_hints.back());
  }
  // Remap the first LBA on both drives: its early hint now names the wrong
  // place, and the layout must refuse every hint from here on.
  ASSERT_TRUE(plain_.mutable_layout().AddBadSector(lbas[0]));
  ASSERT_TRUE(hinted_.mutable_layout().AddBadSector(lbas[0]));
  ASSERT_NE(hinted_.layout().Resolve(lbas[0]).chs, early_hints[0].chs);
  for (size_t i = 0; i < lbas.size(); ++i) {
    ExpectSame(DiskOp::kRead, lbas[i], 8, early_hints[i]);
    ExpectSame(DiskOp::kRead, lbas[i], 8, hinted_.layout().Resolve(lbas[i]));
  }
}

TEST(HintedStart, WriteReallocationReplansFromTheRemap) {
  // A write over a latent-bad sector remaps it before planning; a hint taken
  // before the write names the sector's old home and must be refused.
  FaultInjector plain_faults{FaultInjectorOptions{}};
  FaultInjector hinted_faults{FaultInjectorOptions{}};
  Simulator sim;
  SimDisk plain(&sim, MakeTestGeometry(), MakeTestSeekProfile(),
                DiskNoiseModel::None(), 3, 0.0);
  SimDisk hinted(&sim, MakeTestGeometry(), MakeTestSeekProfile(),
                 DiskNoiseModel::None(), 3, 0.0);
  plain.SetFaultInjector(&plain_faults, SlotId(0));
  hinted.SetFaultInjector(&hinted_faults, SlotId(0));
  plain_faults.InjectLatentError(0, 500);
  hinted_faults.InjectLatentError(0, 500);
  const ResolvedPosition hint = hinted.layout().Resolve(500);
  DiskOpResult a;
  DiskOpResult b;
  plain.Start(DiskOp::kWrite, BlockAddr(500), 1,
              [&](const DiskOpResult& r) { a = r; });
  hinted.Start(
      DiskOp::kWrite, BlockAddr(500), 1, [&](const DiskOpResult& r) { b = r; },
      hint);
  sim.Run();
  ASSERT_TRUE(hinted.layout().IsRemapped(500));
  EXPECT_NE(hinted.layout().Resolve(500).chs, hint.chs);
  EXPECT_EQ(a.status, IoStatus::kOk);
  EXPECT_EQ(a.completion_us, b.completion_us);
  EXPECT_EQ(a.seek_us, b.seek_us);
  EXPECT_EQ(a.rotational_us, b.rotational_us);
  EXPECT_EQ(a.transfer_us, b.transfer_us);
}

}  // namespace
}  // namespace mimdraid

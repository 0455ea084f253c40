// RAID-5 as the k+1 case of the erasure backend: the left-symmetric layout
// (EcLayout under the kRaid5 scheme), RMW accounting, degraded service,
// rebuild, and the per-disk command streams the kRaid5 backend issues.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/calib/predictor.h"
#include "src/core/mimd_raid.h"
#include "src/disk/sim_disk.h"
#include "src/ec/ec_controller.h"
#include "src/ec/ec_layout.h"
#include "src/ec/gf256.h"
#include "src/obs/trace_collector.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

// An N-disk RAID-5 group: N-1 data shards, one left-symmetric parity column.
EcLayout LeftSymmetricLayout(uint32_t disks, uint64_t per_disk_sectors) {
  return EcLayout(disks, disks - 1, 16, per_disk_sectors,
                  EcLayout::Scheme::kRaid5);
}

TEST(Raid5Layout, CapacityIsNMinusOneDisks) {
  const EcLayout layout = LeftSymmetricLayout(5, 1600);  // 100 rows
  EXPECT_EQ(layout.num_rows(), 100u);
  EXPECT_EQ(layout.data_capacity_sectors(), 100ull * 4 * 16);
}

TEST(Raid5Layout, ParityRotatesLeftSymmetric) {
  const EcLayout layout = LeftSymmetricLayout(4, 160);
  std::set<uint32_t> seen;
  for (uint32_t row = 0; row < 4; ++row) {
    seen.insert(layout.ParityDiskOf(row, 0));
  }
  EXPECT_EQ(seen.size(), 4u);  // parity visits every disk
  EXPECT_EQ(layout.ParityDiskOf(0, 0), 3u);
  EXPECT_EQ(layout.ParityDiskOf(1, 0), 2u);
  for (uint32_t row = 0; row < 8; ++row) {
    // Data starts just after the parity disk, and the inverse map agrees.
    EXPECT_EQ(layout.DataDiskOf(row, 0), (layout.ParityDiskOf(row, 0) + 1) % 4);
    for (uint32_t disk = 0; disk < 4; ++disk) {
      EXPECT_EQ(layout.DiskOfPosition(row, layout.PositionOfDisk(row, disk)),
                disk);
    }
  }
}

TEST(Raid5Layout, DataDisksSkipParity) {
  const EcLayout layout = LeftSymmetricLayout(4, 160);
  for (uint32_t row = 0; row < 8; ++row) {
    const uint32_t parity = layout.ParityDiskOf(row, 0);
    std::set<uint32_t> data;
    for (uint32_t i = 0; i < 3; ++i) {
      const uint32_t d = layout.DataDiskOf(row, i);
      EXPECT_NE(d, parity);
      data.insert(d);
    }
    EXPECT_EQ(data.size(), 3u);
  }
}

TEST(Raid5Layout, MapPartitionsRequests) {
  const EcLayout layout = LeftSymmetricLayout(4, 160);
  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    const uint32_t sectors = 1 + static_cast<uint32_t>(rng.UniformU64(60));
    const uint64_t lba =
        rng.UniformU64(layout.data_capacity_sectors() - sectors);
    uint64_t cur = lba;
    for (const EcFragment& f : layout.Map(lba, sectors)) {
      EXPECT_EQ(f.logical_lba, cur);
      EXPECT_NE(f.data_disk, layout.ParityDiskOf(f.row, 0));
      EXPECT_EQ(f.data_disk, layout.DataDiskOf(f.row, f.shard_index));
      EXPECT_LE(f.sectors, 16u);
      cur += f.sectors;
    }
    EXPECT_EQ(cur, lba + sectors);
  }
}

TEST(Raid5Layout, DistinctLogicalSectorsDistinctPhysical) {
  const EcLayout layout = LeftSymmetricLayout(4, 160);
  std::set<std::pair<uint32_t, uint64_t>> owned;
  for (uint64_t lba = 0; lba < layout.data_capacity_sectors(); ++lba) {
    const auto frags = layout.Map(lba, 1);
    ASSERT_EQ(frags.size(), 1u);
    EXPECT_TRUE(
        owned.insert({frags[0].data_disk, frags[0].disk_lba}).second);
  }
}

struct Rig {
  explicit Rig(uint32_t disks = 4)
      : layout(LeftSymmetricLayout(disks, 2000)), codec(disks - 1, 1) {
    for (uint32_t i = 0; i < disks; ++i) {
      sim_disks.push_back(std::make_unique<SimDisk>(
          &sim, MakeTestGeometry(), MakeTestSeekProfile(),
          DiskNoiseModel::None(), 17 + i, i * 500.0));
      preds.push_back(
          std::make_unique<OraclePredictor>(sim_disks.back().get(), 0.0));
      dptr.push_back(sim_disks.back().get());
      pptr.push_back(preds.back().get());
    }
    controller = std::make_unique<EcController>(
        &sim, dptr, pptr, &layout, &codec, DriveSetOptions{});
  }

  SimTime Do(DiskOp op, uint64_t lba, uint32_t sectors) {
    SimTime completion(-1);
    controller->Submit(op, lba, sectors, [&](const IoResult& r) { completion = r.completion_us; });
    while (completion < SimTime(0)) {
      EXPECT_TRUE(sim.Step());
    }
    return completion;
  }

  void Drain() {
    while (!controller->Idle() && sim.Step()) {
    }
  }

  uint64_t TotalOps() const {
    uint64_t total = 0;
    for (const auto& d : sim_disks) {
      total += d->ops_completed();
    }
    return total;
  }

  Simulator sim;
  EcLayout layout;
  EcCodec codec;
  std::vector<std::unique_ptr<SimDisk>> sim_disks;
  std::vector<std::unique_ptr<AccessPredictor>> preds;
  std::vector<SimDisk*> dptr;
  std::vector<AccessPredictor*> pptr;
  std::unique_ptr<EcController> controller;
};

TEST(Raid5Controller, ReadTouchesOnlyDataDisk) {
  Rig rig;
  rig.Do(DiskOp::kRead, 0, 8);
  EXPECT_EQ(rig.TotalOps(), 1u);
  EXPECT_EQ(rig.controller->stats().reads_completed, 1u);
}

TEST(Raid5Controller, SmallWriteIsFourAccesses) {
  Rig rig;
  rig.Do(DiskOp::kWrite, 0, 8);
  rig.Drain();
  // Read old data + read old parity + write data + write parity.
  EXPECT_EQ(rig.TotalOps(), 4u);
  EXPECT_EQ(rig.controller->stats().rmw_writes, 1u);
}

TEST(Raid5Controller, SmallWriteSlowerThanStripeWrite) {
  Rig rig;
  const SimTime write_done = rig.Do(DiskOp::kWrite, 160, 8);
  Rig rig2;
  const SimTime read_done = rig2.Do(DiskOp::kRead, 160, 8);
  // The RMW write costs roughly a full extra rotation beyond a read.
  EXPECT_GT(write_done - SimTime(0), (read_done + SimDuration(3000)).SinceStart());
}

TEST(Raid5Controller, DegradedReadFansOutToPeers) {
  Rig rig;
  const auto frag = rig.layout.Map(0, 8)[0];
  rig.controller->FailDisk(SlotId(frag.data_disk));
  rig.Do(DiskOp::kRead, 0, 8);
  EXPECT_EQ(rig.controller->stats().degraded_reads, 1u);
  EXPECT_EQ(rig.TotalOps(), 3u);  // N-1 surviving members
}

TEST(Raid5Controller, DegradedWriteToLostParityJustWritesData) {
  Rig rig;
  const auto frag = rig.layout.Map(0, 8)[0];
  rig.controller->FailDisk(SlotId(rig.layout.ParityDiskOf(frag.row, 0)));
  rig.Do(DiskOp::kWrite, 0, 8);
  rig.Drain();
  EXPECT_EQ(rig.controller->stats().degraded_writes, 1u);
  EXPECT_EQ(rig.TotalOps(), 1u);
}

TEST(Raid5Controller, DegradedWriteToLostDataReconstructs) {
  Rig rig;
  const auto frag = rig.layout.Map(0, 8)[0];
  rig.controller->FailDisk(SlotId(frag.data_disk));
  rig.Do(DiskOp::kWrite, 0, 8);
  rig.Drain();
  EXPECT_EQ(rig.controller->stats().degraded_writes, 1u);
  EXPECT_EQ(rig.controller->stats().reconstruct_writes, 1u);
  // Reads the other 2 data units, writes parity.
  EXPECT_EQ(rig.TotalOps(), 3u);
}

TEST(Raid5Controller, RebuildRestoresRedundancy) {
  Rig rig;
  rig.controller->FailDisk(SlotId(2));
  SimTime rebuilt_at(-1);
  rig.controller->Rebuild(SlotId(2), [&](const IoResult& r) { rebuilt_at = r.completion_us; });
  while (rebuilt_at < SimTime(0)) {
    ASSERT_TRUE(rig.sim.Step());
  }
  EXPECT_EQ(rig.controller->stats().rebuilt_rows, rig.layout.num_rows());
  EXPECT_FALSE(rig.controller->IsFailed(SlotId(2)));
  // Reads are normal again.
  rig.Do(DiskOp::kRead, 0, 8);
  EXPECT_EQ(rig.controller->stats().degraded_reads, 0u);
}

TEST(Raid5Controller, TrafficDuringRebuildStaysCorrect) {
  Rig rig;
  rig.controller->FailDisk(SlotId(1));
  SimTime rebuilt_at(-1);
  rig.controller->Rebuild(SlotId(1), [&](const IoResult& r) { rebuilt_at = r.completion_us; });
  // Issue reads across the array while the rebuild streams.
  Rng rng(9);
  int done = 0;
  constexpr int kOps = 60;
  for (int i = 0; i < kOps; ++i) {
    const uint64_t lba =
        rng.UniformU64(rig.layout.data_capacity_sectors() - 8);
    rig.controller->Submit(DiskOp::kRead, lba, 8, [&](const IoResult&) { ++done; });
  }
  while (done < kOps || rebuilt_at < SimTime(0)) {
    ASSERT_TRUE(rig.sim.Step());
  }
  rig.Drain();
  EXPECT_EQ(rig.controller->stats().reads_completed,
            static_cast<uint64_t>(kOps));
}

TEST(Raid5Controller, RandomMixAllCompletes) {
  Rig rig(5);
  Rng rng(21);
  int done = 0;
  constexpr int kOps = 250;
  for (int i = 0; i < kOps; ++i) {
    const uint32_t sectors = 1 + static_cast<uint32_t>(rng.UniformU64(24));
    const uint64_t lba =
        rng.UniformU64(rig.layout.data_capacity_sectors() - sectors);
    rig.controller->Submit(rng.Bernoulli(0.6) ? DiskOp::kRead : DiskOp::kWrite,
                           lba, sectors, [&](const IoResult&) { ++done; });
  }
  while (done < kOps) {
    ASSERT_TRUE(rig.sim.Step());
  }
  rig.Drain();
  EXPECT_TRUE(rig.controller->Idle());
  EXPECT_EQ(rig.controller->stats().reads_completed +
                rig.controller->stats().writes_completed,
            static_cast<uint64_t>(kOps));
}

TEST(Raid5Controller, FullUnitWriteReconstructsFromSiblings) {
  // RAID-5's write rule, not the read-count argmin: a full-unit write reads
  // the N-2 sibling data units (3 here) even though RMW would read only 2.
  Rig rig(5);
  rig.Do(DiskOp::kWrite, 0, 16);
  rig.Drain();
  EXPECT_EQ(rig.controller->stats().reconstruct_writes, 1u);
  EXPECT_EQ(rig.controller->stats().rmw_writes, 0u);
  EXPECT_EQ(rig.TotalOps(), 3u + 2u);
}

// ---------------------------------------------------------------------------
// Assembled kRaid5 arrays (the MimdRaid backend-selection path).
// ---------------------------------------------------------------------------

constexpr uint32_t kArrayDisks = 5;
constexpr uint32_t kArrayUnit = 16;

std::unique_ptr<MimdRaid> MakeRaid5Array(TraceCollector* collector,
                                         bool faults, uint32_t hot_spares) {
  MimdRaidOptions options;
  options.backend = ArrayBackendKind::kRaid5;
  options.aspect.ds = kArrayDisks;
  options.aspect.dr = 1;
  options.aspect.dm = 1;
  options.scheduler = SchedulerKind::kSatf;
  options.dataset_sectors = 8000;
  options.stripe_unit_sectors = kArrayUnit;
  options.geometry = MakeTestGeometry();
  options.profile = MakeTestSeekProfile();
  options.seed = 7;
  options.enable_fault_injection = faults;
  options.fault.seed = 7;
  options.hot_spares = hot_spares;
  options.collector = collector;
  return std::make_unique<MimdRaid>(options);
}

void PumpUntil(MimdRaid* array, const std::function<bool()>& finished) {
  uint64_t steps = 0;
  while (!finished()) {
    ASSERT_TRUE(array->sim().Step()) << "simulator ran dry";
    ASSERT_LT(++steps, 30'000'000u) << "run wedged";
  }
}

void DrainArray(MimdRaid* array) {
  array->backend().StopScrub();
  PumpUntil(array, [array] {
    return array->backend().Idle() && !array->backend().RebuildInProgress();
  });
}

TEST(Raid5Controller, SecondFailureDuringRebuildPromotesQueuedSpare) {
  // A fail-stop detected while another slot rebuilds still promotes a spare:
  // the slot queues behind the active rebuild and is rebuilt afterwards
  // instead of staying failed with its spare left pooled.
  auto array = MakeRaid5Array(nullptr, /*faults=*/true, /*hot_spares=*/2);
  FaultInjector& injector = *array->fault_injector();
  injector.FailStop(0);
  bool read_done = false;
  array->backend().Submit(DiskOp::kRead, 0, 8,  // data unit on disk 0
                          [&](const IoResult&) { read_done = true; });
  PumpUntil(array.get(), [&] { return array->backend().RebuildInProgress(); });
  injector.FailStop(3);  // detected by the rebuild's next peer read
  PumpUntil(array.get(), [&] { return read_done; });
  DrainArray(array.get());

  EXPECT_EQ(array->backend().fault_stats().spares_promoted, 2u);
  EXPECT_EQ(array->backend().spares_available(), 0u);
  EXPECT_FALSE(array->backend().IsFailed(SlotId(0)));
  EXPECT_FALSE(array->backend().IsFailed(SlotId(3)));
  // Slot 0's pass lost the rows past its cursor to the second failure; slot
  // 3's queued pass then rebuilds completely.
  EXPECT_GT(array->backend().fault_stats().rebuild_fragments_lost, 0u);
  EXPECT_EQ(array->backend().fault_stats().spare_rebuilds_completed, 1u);
}

// ---------------------------------------------------------------------------
// Op-stream digests: what every member drive of a kRaid5 array is asked to
// do, pinned exactly. Each disk's (start, op, lba, sectors) command stream is
// hashed over four scenarios. The constants were recorded from the dedicated
// RAID-5 controller the erasure backend replaced, so any change in issue
// order, plan choice, or placement shows up here first.
// ---------------------------------------------------------------------------

// Left-symmetric placement of logical `lba`'s data unit, computed from the
// definition rather than through a layout class.
std::pair<uint32_t, uint64_t> DataUnitOf(uint64_t lba) {
  const uint64_t unit_index = lba / kArrayUnit;
  const uint32_t row = static_cast<uint32_t>(unit_index / (kArrayDisks - 1));
  const uint32_t position =
      static_cast<uint32_t>(unit_index % (kArrayDisks - 1));
  return {(position + kArrayDisks - row % kArrayDisks) % kArrayDisks,
          static_cast<uint64_t>(row) * kArrayUnit + lba % kArrayUnit};
}

// Submits `ops` operations: reads, unaligned small writes, and unit-aligned
// one- and two-unit writes, with idle gaps between some submissions.
void SubmitDigestMix(MimdRaid* array, int ops, uint64_t seed, int* done) {
  Rng rng(seed);
  const uint64_t capacity = array->backend().dataset_sectors();
  for (int i = 0; i < ops; ++i) {
    DiskOp op = DiskOp::kRead;
    uint64_t lba = 0;
    uint32_t sectors = 0;
    if (rng.Bernoulli(0.4)) {
      sectors = 1 + static_cast<uint32_t>(rng.UniformU64(24));
      lba = rng.UniformU64(capacity - sectors);
    } else if (rng.Bernoulli(0.5)) {
      op = DiskOp::kWrite;
      sectors = 1 + static_cast<uint32_t>(rng.UniformU64(24));
      lba = rng.UniformU64(capacity - sectors);
    } else {
      op = DiskOp::kWrite;
      sectors = kArrayUnit * (1 + static_cast<uint32_t>(rng.UniformU64(2)));
      lba = rng.UniformU64(capacity / kArrayUnit - 2) * kArrayUnit;
    }
    array->backend().Submit(op, lba, sectors, [done](const IoResult& r) {
      EXPECT_EQ(r.status, IoStatus::kOk);
      ++*done;
    });
    if (rng.Bernoulli(0.3)) {
      array->sim().RunUntil(
          array->sim().Now() +
          SimDuration(static_cast<int64_t>(rng.UniformU64(8'000))));
    }
  }
}

// FNV-1a over each slot's command stream, in issue order per slot.
std::vector<uint64_t> StreamDigests(const TraceCollector& collector) {
  std::vector<uint64_t> digests(kArrayDisks, 14695981039346656037ull);
  auto mix = [](uint64_t* h, uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      *h ^= (value >> (8 * b)) & 0xffu;
      *h *= 1099511628211ull;
    }
  };
  for (const DiskOpRecord& rec : collector.disk_ops()) {
    EXPECT_LT(rec.slot, kArrayDisks);
    if (rec.slot >= kArrayDisks) {
      continue;
    }
    uint64_t* h = &digests[rec.slot];
    mix(h, static_cast<uint64_t>(rec.start_us.us()));
    mix(h, rec.is_write ? 1u : 0u);
    mix(h, rec.lba);
    mix(h, rec.sectors);
  }
  return digests;
}

std::string FormatDigests(const std::vector<uint64_t>& digests) {
  std::string out;
  for (const uint64_t d : digests) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llxull, ",
                  static_cast<unsigned long long>(d));
    out += buf;
  }
  return out;
}

TEST(Raid5OpStream, DigestsMatchRecordedStreams) {
  std::vector<std::vector<uint64_t>> got;

  {  // Healthy mixed workload.
    TraceCollector collector;
    auto array = MakeRaid5Array(&collector, false, 0);
    int done = 0;
    SubmitDigestMix(array.get(), 300, 101, &done);
    PumpUntil(array.get(), [&] { return done == 300; });
    DrainArray(array.get());
    got.push_back(StreamDigests(collector));
  }
  {  // Fail a disk, serve degraded traffic, then rebuild under load.
    TraceCollector collector;
    auto array = MakeRaid5Array(&collector, false, 0);
    ASSERT_TRUE(array->backend().FailDisk(SlotId(1)));
    int done = 0;
    SubmitDigestMix(array.get(), 150, 202, &done);
    PumpUntil(array.get(), [&] { return done == 150; });
    bool rebuilt = false;
    array->backend().Rebuild(SlotId(1), [&](const IoResult& r) {
      EXPECT_EQ(r.status, IoStatus::kOk);
      rebuilt = true;
    });
    SubmitDigestMix(array.get(), 100, 203, &done);
    PumpUntil(array.get(), [&] { return done == 250 && rebuilt; });
    DrainArray(array.get());
    EXPECT_FALSE(array->backend().IsFailed(SlotId(1)));
    got.push_back(StreamDigests(collector));
  }
  {  // Latent errors under reads and writes, repaired in passing.
    TraceCollector collector;
    auto array = MakeRaid5Array(&collector, true, 0);
    const uint64_t lbas[] = {40, 333, 1024, 2051, 4100, 6007};
    for (const uint64_t lba : lbas) {
      const auto [disk, disk_lba] = DataUnitOf(lba);
      array->fault_injector()->InjectLatentError(disk, disk_lba);
    }
    int done = 0;
    auto count = [&done](const IoResult& r) {
      EXPECT_EQ(r.status, IoStatus::kOk);
      ++done;
    };
    array->backend().Submit(DiskOp::kRead, 40, 4, count);
    array->backend().Submit(DiskOp::kRead, 330, 8, count);
    array->backend().Submit(DiskOp::kRead, 2048, 16, count);
    array->backend().Submit(DiskOp::kWrite, 1024, 16, count);
    array->backend().Submit(DiskOp::kWrite, 4098, 5, count);
    array->backend().Submit(DiskOp::kWrite, 6000, 16, count);
    PumpUntil(array.get(), [&] { return done == 6; });
    DrainArray(array.get());
    for (const uint64_t lba : lbas) {
      array->backend().Submit(DiskOp::kRead, lba, 1, count);
    }
    PumpUntil(array.get(), [&] { return done == 12; });
    DrainArray(array.get());
    EXPECT_GT(array->backend().fault_stats().repairs_queued, 0u);
    got.push_back(StreamDigests(collector));
  }
  {  // A detected fail-stop promotes the hot spare and rebuilds onto it.
    TraceCollector collector;
    auto array = MakeRaid5Array(&collector, true, 1);
    array->fault_injector()->FailStop(2);
    int done = 0;
    SubmitDigestMix(array.get(), 200, 404, &done);
    PumpUntil(array.get(), [&] { return done == 200; });
    DrainArray(array.get());
    EXPECT_EQ(array->backend().fault_stats().spares_promoted, 1u);
    EXPECT_EQ(array->backend().fault_stats().spare_rebuilds_completed, 1u);
    SubmitDigestMix(array.get(), 50, 405, &done);
    PumpUntil(array.get(), [&] { return done == 250; });
    DrainArray(array.get());
    got.push_back(StreamDigests(collector));
  }

  const std::vector<std::vector<uint64_t>> want = {
      {0xd84164402a0f2341ull, 0x7020a38ceb55c640ull, 0x1cfd0b4cef29599aull,
       0x1ace84bc69a1ab5dull, 0x1fe76c0ed2eeae2aull},
      {0xf66d89ab38ffff1bull, 0xb73d16a30374b4b5ull, 0xf6b4be4385bbfcbeull,
       0x1eff9adc46e34a7full, 0xbd1a988ac44c3abcull},
      {0xac08b6984346ab6bull, 0xffbf876c278d87a6ull, 0xc7dad1143f93b237ull,
       0xedf6e17e518003b1ull, 0x67872130249cdbf4ull},
      {0x47cb4b346525f109ull, 0xe4c8cbefcb6d3076ull, 0xb34e5063272e34c9ull,
       0x8f3da43db33fe5caull, 0x057830a241b4bd77ull},
  };
  ASSERT_EQ(got.size(), want.size());
  const char* const names[] = {"mixed", "fail+rebuild", "latent repair",
                               "spare promotion"};
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << names[i] << " got {" << FormatDigests(got[i])
                               << "}";
  }
}

}  // namespace
}  // namespace mimdraid

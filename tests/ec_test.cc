// The general (k+m) erasure backend, bottom up: GF(2^8) field algebra and
// matrix inversion, the Cauchy codec's round-trip and any-k-subset
// decodability (the property the controller's availability-driven decode
// sets rely on), the rotated layout's geometry, and the controller's
// distinctive behaviors over the DriveSet engine — degraded reads under any
// m concurrent failures, multi-slot rebuild through queued spare promotions,
// and the per-request RMW-vs-reconstruct write-plan argmin. The byte-level
// codec tests are the data-correctness anchor for the simulator paths (the
// sim moves no user bytes; it moves the codec's plans).
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/mimd_raid.h"
#include "src/obs/stats_registry.h"
#include "src/obs/trace_collector.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

constexpr uint64_t kStepBudget = 30'000'000;

// ---------------------------------------------------------------------------
// GF(2^8) algebra.
// ---------------------------------------------------------------------------

TEST(Gf256Test, FieldAlgebraHolds) {
  // Multiplicative identities and inverses over the whole field.
  for (uint32_t a = 1; a < 256; ++a) {
    const uint8_t x = static_cast<uint8_t>(a);
    EXPECT_EQ(gf256::Mul(x, 1), x);
    EXPECT_EQ(gf256::Mul(x, gf256::Inv(x)), 1) << "a=" << a;
    EXPECT_EQ(gf256::Div(x, x), 1);
    EXPECT_EQ(gf256::Mul(x, 0), 0);
  }
  // Commutativity, associativity, and distributivity on a pseudorandom
  // sample (exhaustive over triples would be 2^24 checks).
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const uint8_t a = static_cast<uint8_t>(rng.UniformU64(256));
    const uint8_t b = static_cast<uint8_t>(rng.UniformU64(256));
    const uint8_t c = static_cast<uint8_t>(rng.UniformU64(256));
    EXPECT_EQ(gf256::Mul(a, b), gf256::Mul(b, a));
    EXPECT_EQ(gf256::Mul(a, gf256::Mul(b, c)),
              gf256::Mul(gf256::Mul(a, b), c));
    EXPECT_EQ(gf256::Mul(a, gf256::Add(b, c)),
              gf256::Add(gf256::Mul(a, b), gf256::Mul(a, c)));
    if (b != 0) {
      EXPECT_EQ(gf256::Mul(gf256::Div(a, b), b), a);
    }
  }
}

TEST(Gf256Test, MatrixInvertRoundTripAndSingularDetection) {
  // A Cauchy-derived square matrix inverts, and M * M^-1 == I.
  const EcCodec codec(4, 3);
  GfMatrix square(4, 4);
  const uint32_t picked[] = {0, 2, 4, 6};  // mixed data/parity rows
  for (uint32_t r = 0; r < 4; ++r) {
    for (uint32_t c = 0; c < 4; ++c) {
      square.set(r, c, codec.encode_matrix().at(picked[r], c));
    }
  }
  GfMatrix inverse(4, 4);
  ASSERT_TRUE(square.Invert(&inverse));
  const GfMatrix product = square.Mul(inverse);
  const GfMatrix identity = GfMatrix::Identity(4);
  for (uint32_t r = 0; r < 4; ++r) {
    for (uint32_t c = 0; c < 4; ++c) {
      EXPECT_EQ(product.at(r, c), identity.at(r, c)) << r << "," << c;
    }
  }
  // Duplicated rows are singular and must be reported, not mis-solved.
  GfMatrix singular = square;
  for (uint32_t c = 0; c < 4; ++c) {
    singular.set(3, c, singular.at(0, c));
  }
  GfMatrix unused(4, 4);
  EXPECT_FALSE(singular.Invert(&unused));
}

// ---------------------------------------------------------------------------
// Codec round-trip.
// ---------------------------------------------------------------------------

std::vector<std::vector<uint8_t>> RandomShards(uint32_t count, size_t len,
                                               Rng* rng) {
  std::vector<std::vector<uint8_t>> shards(count);
  for (auto& s : shards) {
    s.resize(len);
    for (auto& b : s) {
      b = static_cast<uint8_t>(rng->UniformU64(256));
    }
  }
  return shards;
}

TEST(EcCodecTest, EncodeReconstructRoundTripsEveryErasurePatternUpToM) {
  constexpr size_t kShardLen = 64;
  const std::pair<uint32_t, uint32_t> widths[] = {{2, 2}, {4, 2}, {3, 3},
                                                  {5, 1}};
  Rng rng(11);
  for (const auto& [k, m] : widths) {
    SCOPED_TRACE("k=" + std::to_string(k) + " m=" + std::to_string(m));
    const EcCodec codec(k, m);
    const uint32_t n = k + m;
    const std::vector<std::vector<uint8_t>> data =
        RandomShards(k, kShardLen, &rng);
    std::vector<std::vector<uint8_t>> parity;
    codec.Encode(data, &parity);
    ASSERT_EQ(parity.size(), m);

    std::vector<std::vector<uint8_t>> whole = data;
    whole.insert(whole.end(), parity.begin(), parity.end());

    // Every erasure pattern of 1..m shards, data and parity in any mix,
    // must reconstruct the stripe exactly.
    for (uint32_t mask = 1; mask < (1u << n); ++mask) {
      const int erased = __builtin_popcount(mask);
      if (erased == 0 || erased > static_cast<int>(m)) {
        continue;
      }
      std::vector<std::vector<uint8_t>> shards = whole;
      std::vector<bool> present(n, true);
      for (uint32_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) {
          shards[i].clear();
          present[i] = false;
        }
      }
      ASSERT_TRUE(codec.Reconstruct(&shards, present)) << "mask=" << mask;
      for (uint32_t i = 0; i < n; ++i) {
        EXPECT_EQ(shards[i], whole[i]) << "mask=" << mask << " shard=" << i;
      }
    }
  }
}

TEST(EcCodecTest, EveryKSubsetOfColumnsDecodes) {
  // The Cauchy guarantee the controller's decode-set selection leans on:
  // *any* k columns suffice, so availability alone picks them.
  const std::pair<uint32_t, uint32_t> widths[] = {{4, 2}, {3, 3}, {2, 2}};
  for (const auto& [k, m] : widths) {
    const EcCodec codec(k, m);
    const uint32_t n = k + m;
    for (uint32_t mask = 0; mask < (1u << n); ++mask) {
      if (__builtin_popcount(mask) != static_cast<int>(k)) {
        continue;
      }
      std::vector<uint32_t> cols;
      for (uint32_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) {
          cols.push_back(i);
        }
      }
      EXPECT_TRUE(codec.CanDecodeFrom(cols))
          << "k=" << k << " m=" << m << " mask=" << mask;
    }
  }
}

TEST(EcCodecTest, ReconstructRefusesBeyondMErasures) {
  const EcCodec codec(4, 2);
  Rng rng(13);
  std::vector<std::vector<uint8_t>> data = RandomShards(4, 32, &rng);
  std::vector<std::vector<uint8_t>> parity;
  codec.Encode(data, &parity);
  std::vector<std::vector<uint8_t>> shards = data;
  shards.insert(shards.end(), parity.begin(), parity.end());
  std::vector<bool> present(6, true);
  for (uint32_t i = 0; i < 3; ++i) {  // m+1 = 3 losses: the stripe is gone
    shards[i].clear();
    present[i] = false;
  }
  EXPECT_FALSE(codec.Reconstruct(&shards, present));
}

// ---------------------------------------------------------------------------
// Rotated layout geometry.
// ---------------------------------------------------------------------------

TEST(EcLayoutTest, RotationInverseAndMapGeometry) {
  const EcLayout layout(/*num_disks=*/6, /*data_shards=*/4,
                        /*stripe_unit_sectors=*/16, /*per_disk_sectors=*/320);
  EXPECT_EQ(layout.parity_shards(), 2u);
  EXPECT_EQ(layout.num_rows(), 20u);
  EXPECT_EQ(layout.data_capacity_sectors(), 20u * 4u * 16u);

  for (uint32_t row = 0; row < layout.num_rows(); ++row) {
    // Every disk plays exactly one position per row, and the inverse map
    // agrees.
    std::vector<bool> seen(6, false);
    for (uint32_t pos = 0; pos < 6; ++pos) {
      const uint32_t disk = layout.DiskOfPosition(row, pos);
      EXPECT_FALSE(seen[disk]);
      seen[disk] = true;
      EXPECT_EQ(layout.PositionOfDisk(row, disk), pos);
    }
    // The pattern rotates one disk per row.
    EXPECT_EQ(layout.DataDiskOf(row, 0), row % 6);
  }

  // Map splits on unit boundaries, lands each unit on its shard's disk at
  // the row's offset, and covers the request exactly.
  const std::vector<EcFragment> frags = layout.Map(60, 16);
  ASSERT_EQ(frags.size(), 2u);
  uint64_t covered = 0;
  for (const EcFragment& f : frags) {
    covered += f.sectors;
    EXPECT_EQ(f.data_disk, layout.DataDiskOf(f.row, f.shard_index));
    const uint64_t unit_index = f.logical_lba / 16;
    EXPECT_EQ(f.row, unit_index / 4);
    EXPECT_EQ(f.shard_index, unit_index % 4);
    EXPECT_EQ(f.disk_lba,
              static_cast<uint64_t>(f.row) * 16 + f.logical_lba % 16);
  }
  EXPECT_EQ(covered, 16u);
}

// ---------------------------------------------------------------------------
// Controller behaviors over the engine.
// ---------------------------------------------------------------------------

struct EcRig {
  uint32_t disks = 6;
  uint32_t parity_shards = 2;
  uint64_t dataset = 2400;
  bool faults = false;
  uint32_t hot_spares = 0;
  InvariantAuditor* auditor = nullptr;
  uint64_t seed = 5;
};

std::unique_ptr<MimdRaid> MakeEc(const EcRig& rig) {
  MimdRaidOptions options;
  options.backend = ArrayBackendKind::kErasure;
  options.aspect.ds = static_cast<int>(rig.disks);
  options.aspect.dr = 1;
  options.aspect.dm = 1;
  options.parity_shards = rig.parity_shards;
  options.scheduler = SchedulerKind::kSatf;
  options.dataset_sectors = rig.dataset;
  options.stripe_unit_sectors = 16;
  options.geometry = MakeTestGeometry();
  options.profile = MakeTestSeekProfile();
  options.seed = rig.seed;
  options.enable_fault_injection = rig.faults;
  options.fault.seed = rig.seed;
  options.hot_spares = rig.hot_spares;
  options.auditor = rig.auditor;
  return std::make_unique<MimdRaid>(options);
}

// Submits `ops` fixed-stride reads across the dataset and requires every one
// to complete with `expected`.
void RunReadsExpecting(MimdRaid* array, int ops, IoStatus expected) {
  int done = 0;
  const uint64_t dataset = array->backend().dataset_sectors();
  for (int i = 0; i < ops; ++i) {
    const uint64_t lba = (static_cast<uint64_t>(i) * 37) % (dataset - 8);
    array->backend().Submit(DiskOp::kRead, lba, 8,
                            [&done, expected, i](const IoResult& r) {
                              ++done;
                              EXPECT_EQ(r.status, expected) << "read " << i;
                            });
  }
  uint64_t steps = 0;
  while (done < ops) {
    ASSERT_TRUE(array->sim().Step()) << "simulator ran dry";
    ASSERT_LT(++steps, kStepBudget) << "reads wedged";
  }
}

void Drain(MimdRaid* array) {
  array->backend().StopScrub();
  uint64_t steps = 0;
  while ((!array->backend().Idle() || array->backend().RebuildInProgress()) &&
         array->sim().Step()) {
    ASSERT_LT(++steps, kStepBudget) << "drain wedged";
  }
  EXPECT_TRUE(array->backend().Idle());
}

TEST(EcControllerTest, AnyTwoConcurrentFailuresServeDegradedReads) {
  // The acceptance shape: a 4+2 array, every one of the C(6,2) failure
  // pairs, reads stay kOk throughout (decoded through the surviving k
  // columns) and the auditor's fault conservation holds.
  for (uint32_t a = 0; a < 6; ++a) {
    for (uint32_t b = a + 1; b < 6; ++b) {
      SCOPED_TRACE("failed pair " + std::to_string(a) + "," +
                   std::to_string(b));
      InvariantAuditor auditor;
      EcRig rig;
      rig.auditor = &auditor;
      auto array = MakeEc(rig);
      ASSERT_TRUE(array->backend().FailDisk(SlotId(a)));
      ASSERT_TRUE(array->backend().FailDisk(SlotId(b)));
      RunReadsExpecting(array.get(), 60, IoStatus::kOk);
      Drain(array.get());
      EXPECT_GT(array->ec().stats().degraded_reads, 0u);
      array->backend().AuditQuiescent();
      EXPECT_EQ(auditor.violations(), 0u);
    }
  }
}

TEST(EcControllerTest, BeyondMConcurrentFailuresSurfaceUnrecoverable) {
  // m+1 = 3 of 6 columns gone: fewer than k survivors, so any read needing
  // a failed column must surface kUnrecoverable — terminally, without
  // wedging the engine. Reads whose data units sit entirely on live columns
  // still succeed as direct reads.
  InvariantAuditor auditor;
  EcRig rig;
  rig.auditor = &auditor;
  auto array = MakeEc(rig);
  for (uint32_t d = 0; d < 3; ++d) {
    ASSERT_TRUE(array->backend().FailDisk(SlotId(d)));
  }
  constexpr int kOps = 60;
  int done = 0;
  int unrecoverable = 0;
  const uint64_t dataset = array->backend().dataset_sectors();
  for (int i = 0; i < kOps; ++i) {
    const uint64_t lba = (static_cast<uint64_t>(i) * 37) % (dataset - 8);
    IoStatus expected = IoStatus::kOk;
    for (const EcFragment& f : array->ec_layout().Map(lba, 8)) {
      if (f.data_disk < 3) {
        expected = IoStatus::kUnrecoverable;
      }
    }
    unrecoverable += expected == IoStatus::kUnrecoverable ? 1 : 0;
    array->backend().Submit(DiskOp::kRead, lba, 8,
                            [&done, expected, i](const IoResult& r) {
                              ++done;
                              EXPECT_EQ(r.status, expected) << "read " << i;
                            });
  }
  ASSERT_GT(unrecoverable, 0) << "stride never crossed a failed column";
  uint64_t steps = 0;
  while (done < kOps) {
    ASSERT_TRUE(array->sim().Step()) << "simulator ran dry";
    ASSERT_LT(++steps, kStepBudget) << "reads wedged";
  }
  Drain(array.get());
  EXPECT_GT(array->backend().fault_stats().unrecoverable_completions, 0u);
  array->backend().AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
}

TEST(EcControllerTest, TwoFailedSlotsRebuildThroughQueuedSparePromotions) {
  // Two fail-stops, two pooled spares: the first promotion starts the
  // rebuild, the second queues behind it, and both slots come back.
  InvariantAuditor auditor;
  EcRig rig;
  rig.auditor = &auditor;
  rig.faults = true;
  rig.hot_spares = 2;
  auto array = MakeEc(rig);
  EXPECT_EQ(array->backend().spares_available(), 2u);
  array->fault_injector()->FailStop(0);
  array->fault_injector()->FailStop(1);

  // Writes across the whole dataset touch both dead drives, so the engine
  // detects each fail-stop and promotes a spare into each slot.
  int done = 0;
  constexpr int kOps = 150;
  const uint64_t dataset = array->backend().dataset_sectors();
  Rng rng(17);
  for (int i = 0; i < kOps; ++i) {
    const uint64_t lba = rng.UniformU64(dataset - 8);
    array->backend().Submit(DiskOp::kWrite, lba, 8,
                            [&done, i](const IoResult& r) {
                              ++done;
                              EXPECT_EQ(r.status, IoStatus::kOk)
                                  << "write " << i;
                            });
  }
  uint64_t steps = 0;
  while (done < kOps) {
    ASSERT_TRUE(array->sim().Step());
    ASSERT_LT(++steps, kStepBudget) << "writes wedged";
  }
  Drain(array.get());

  const FaultRecoveryStats& fs = array->backend().fault_stats();
  EXPECT_EQ(fs.spares_promoted, 2u);
  EXPECT_EQ(fs.spare_rebuilds_completed, 2u);
  EXPECT_EQ(array->backend().spares_available(), 0u);
  EXPECT_FALSE(array->backend().IsFailed(SlotId(0)));
  EXPECT_FALSE(array->backend().IsFailed(SlotId(1)));
  EXPECT_GT(array->ec().stats().rebuilt_rows, 0u);

  // Fully restored: healthy reads, no decode path.
  const uint64_t degraded_before = array->ec().stats().degraded_reads;
  RunReadsExpecting(array.get(), 60, IoStatus::kOk);
  Drain(array.get());
  EXPECT_EQ(array->ec().stats().degraded_reads, degraded_before);
  array->backend().AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
}

TEST(EcControllerTest, WritePlanPicksCheaperOfRmwAndReconstruct) {
  // Unit-aligned single-fragment writes so each op is one planned fragment.
  auto run_writes = [](MimdRaid* array, int ops) {
    int done = 0;
    const uint64_t dataset = array->backend().dataset_sectors();
    for (int i = 0; i < ops; ++i) {
      const uint64_t lba = (static_cast<uint64_t>(i) * 16) % (dataset - 16);
      array->backend().Submit(DiskOp::kWrite, lba - lba % 16, 8,
                              [&done](const IoResult& r) {
                                ++done;
                                EXPECT_EQ(r.status, IoStatus::kOk);
                              });
    }
    uint64_t steps = 0;
    while (done < ops) {
      ASSERT_TRUE(array->sim().Step());
      ASSERT_LT(++steps, kStepBudget);
    }
  };

  // 2+2: reconstruct-write reads the one other data column (k-1 = 1 read);
  // RMW would read old data + two old parities (3 reads). Argmin: RCW.
  {
    EcRig rig;
    rig.disks = 4;
    rig.parity_shards = 2;
    auto array = MakeEc(rig);
    run_writes(array.get(), 40);
    Drain(array.get());
    EXPECT_EQ(array->ec().stats().rmw_writes, 0u);
    EXPECT_EQ(array->ec().stats().reconstruct_writes, 40u);
  }
  // 5+1: RMW reads old data + one old parity (2 reads); reconstruct would
  // read the four other data columns. Argmin: RMW.
  {
    EcRig rig;
    rig.disks = 6;
    rig.parity_shards = 1;
    auto array = MakeEc(rig);
    run_writes(array.get(), 40);
    Drain(array.get());
    EXPECT_EQ(array->ec().stats().reconstruct_writes, 0u);
    EXPECT_EQ(array->ec().stats().rmw_writes, 40u);
  }
}

TEST(EcControllerTest, ExportStatsPublishesStrategyCounters) {
  EcRig rig;
  auto array = MakeEc(rig);
  RunReadsExpecting(array.get(), 40, IoStatus::kOk);
  Drain(array.get());
  StatsRegistry registry;
  array->backend().ExportStats(&registry);
  EXPECT_GT(registry.Get("ec.reads_completed"), 0.0);
  EXPECT_TRUE(registry.Contains("ec.rmw_writes"));
  EXPECT_TRUE(registry.Contains("ec.reconstruct_writes"));
  EXPECT_TRUE(registry.Contains("ec.degraded_reads"));
  EXPECT_TRUE(registry.Contains("ec.rebuilt_rows"));
  EXPECT_TRUE(registry.Contains("fault.retries_issued"));
}


// ---------------------------------------------------------------------------
// Op-stream digests: what every member drive of a 4+2 kErasure array is
// asked to do, pinned exactly. Each slot's (start, op, lba, sectors) command
// stream is hashed, plus one digest over the fault-recovery summary and the
// controller's counters, over four scenarios that run the fragment re-plan
// paths: a healthy mix, a media-error pre-image read that forces a
// reconstruct-write re-plan, a fail-stop in the middle of read-modify-writes
// with a second concurrent loss, and a rebuild whose decode column dies
// mid-row.
// ---------------------------------------------------------------------------

void MixDigest(uint64_t* h, uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    *h ^= (value >> (8 * b)) & 0xffu;
    *h *= 1099511628211ull;
  }
}

// FNV-1a over each slot's command stream in issue order, then one more
// digest over the fault-recovery summary and the controller's counters.
std::vector<uint64_t> EcDigests(MimdRaid* array,
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
  const EcControllerStats& s = array->ec().stats();
  for (const uint64_t v :
       {s.reads_completed, s.writes_completed, s.rmw_writes,
        s.reconstruct_writes, s.degraded_reads, s.degraded_writes,
        s.rebuilt_rows}) {
    MixDigest(h, v);
  }
  return digests;
}

std::string FormatEcDigests(const std::vector<uint64_t>& digests) {
  std::string out;
  for (const uint64_t d : digests) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llxull, ",
                  static_cast<unsigned long long>(d));
    out += buf;
  }
  return out;
}

std::unique_ptr<MimdRaid> MakeTracedEc(TraceCollector* collector,
                                       uint32_t hot_spares) {
  MimdRaidOptions options;
  options.backend = ArrayBackendKind::kErasure;
  options.aspect.ds = 6;
  options.aspect.dr = 1;
  options.aspect.dm = 1;
  options.parity_shards = 2;
  options.scheduler = SchedulerKind::kSatf;
  options.dataset_sectors = 2400;
  options.stripe_unit_sectors = 16;
  options.geometry = MakeTestGeometry();
  options.profile = MakeTestSeekProfile();
  options.seed = 23;
  options.enable_fault_injection = true;
  options.fault.seed = 23;
  options.hot_spares = hot_spares;
  options.collector = collector;
  return std::make_unique<MimdRaid>(options);
}

// Submits `ops` reads and writes of 1-24 sectors at random offsets (some
// crossing a unit boundary), with idle gaps between some submissions. Each
// completion counts in `done`; one that surfaced kUnrecoverable also counts
// in `lost`.
void SubmitEcMix(MimdRaid* array, int ops, uint64_t seed, int* done,
                 int* lost) {
  Rng rng(seed);
  const uint64_t capacity = array->backend().dataset_sectors();
  for (int i = 0; i < ops; ++i) {
    const DiskOp op = rng.Bernoulli(0.6) ? DiskOp::kWrite : DiskOp::kRead;
    const uint32_t sectors = 1 + static_cast<uint32_t>(rng.UniformU64(24));
    const uint64_t lba = rng.UniformU64(capacity - sectors);
    array->backend().Submit(op, lba, sectors, [done, lost](const IoResult& r) {
      if (r.status != IoStatus::kOk) {
        EXPECT_EQ(r.status, IoStatus::kUnrecoverable);
        ++*lost;
      }
      ++*done;
    });
    if (rng.Bernoulli(0.3)) {
      array->sim().RunUntil(
          array->sim().Now() +
          SimDuration(static_cast<int64_t>(rng.UniformU64(6'000))));
    }
  }
}

void PumpEc(MimdRaid* array, const std::function<bool()>& finished) {
  uint64_t steps = 0;
  while (!finished()) {
    ASSERT_TRUE(array->sim().Step()) << "simulator ran dry";
    ASSERT_LT(++steps, kStepBudget) << "wedged";
  }
}

TEST(EcOpStream, DigestsMatchRecordedStreams) {
  std::vector<std::vector<uint64_t>> got;

  {  // (a) Healthy mixed workload.
    TraceCollector collector;
    auto array = MakeTracedEc(&collector, 0);
    int done = 0;
    int lost = 0;
    SubmitEcMix(array.get(), 300, 701, &done, &lost);
    PumpEc(array.get(), [&] { return done == 300; });
    Drain(array.get());
    EXPECT_EQ(lost, 0);
    got.push_back(EcDigests(array.get(), collector));
  }
  {  // (b) Media errors under the data units of unit-aligned writes: each
     // read-modify-write's pre-image read fails past its retry budget and
     // the fragment re-plans as a reconstruct-write around the old data.
    TraceCollector collector;
    auto array = MakeTracedEc(&collector, 0);
    const uint64_t lbas[] = {0, 160, 512, 1040, 1600};
    for (const uint64_t lba : lbas) {
      const EcFragment f = array->ec_layout().Map(lba, 8).front();
      array->fault_injector()->InjectLatentError(f.data_disk, f.disk_lba);
    }
    int done = 0;
    for (const uint64_t lba : lbas) {
      array->backend().Submit(DiskOp::kWrite, lba, 8,
                              [&done](const IoResult& r) {
                                EXPECT_EQ(r.status, IoStatus::kOk);
                                ++done;
                              });
    }
    PumpEc(array.get(), [&] { return done == 5; });
    Drain(array.get());
    EXPECT_GE(array->backend().fault_stats().failovers, 5u);
    EXPECT_GE(array->ec().stats().reconstruct_writes, 5u);
    got.push_back(EcDigests(array.get(), collector));
  }
  {  // (c) A fail-stop in the middle of read-modify-writes, then a second
     // concurrent loss while the first is still being planned around.
    TraceCollector collector;
    auto array = MakeTracedEc(&collector, 0);
    int done = 0;
    int lost = 0;
    SubmitEcMix(array.get(), 40, 702, &done, &lost);
    array->fault_injector()->FailStop(2);
    SubmitEcMix(array.get(), 40, 703, &done, &lost);
    array->fault_injector()->FailStop(4);
    SubmitEcMix(array.get(), 120, 704, &done, &lost);
    PumpEc(array.get(), [&] { return done == 200; });
    Drain(array.get());
    // Degraded reads still decoding through column 4 when it died surface
    // the loss (a decode read's fault is not re-planned).
    EXPECT_EQ(lost, 3);
    EXPECT_EQ(array->backend().fault_stats().auto_disk_failures, 2u);
    EXPECT_TRUE(array->backend().IsFailed(SlotId(2)));
    EXPECT_TRUE(array->backend().IsFailed(SlotId(4)));
    got.push_back(EcDigests(array.get(), collector));
  }
  {  // (d) A rebuild under traffic whose decode column fail-stops mid-row:
     // the row re-plans through the survivors and the pass completes.
    TraceCollector collector;
    auto array = MakeTracedEc(&collector, 0);
    ASSERT_TRUE(array->backend().FailDisk(SlotId(1)));
    int done = 0;
    int lost = 0;
    SubmitEcMix(array.get(), 30, 705, &done, &lost);
    PumpEc(array.get(), [&] { return done == 30; });
    IoStatus rebuild_status = IoStatus::kTimeout;
    bool rebuilt = false;
    array->backend().Rebuild(SlotId(1), [&](const IoResult& r) {
      rebuild_status = r.status;
      rebuilt = true;
    });
    array->sim().RunUntil(array->sim().Now() + SimDuration(20'000));
    ASSERT_TRUE(array->backend().RebuildInProgress());
    // Column 0 decodes every row of slot 1's pass; its next rebuild read is
    // the first access to see the fail-stop.
    array->fault_injector()->FailStop(0);
    PumpEc(array.get(), [&] {
      return array->backend().fault_stats().auto_disk_failures == 1;
    });
    SubmitEcMix(array.get(), 60, 706, &done, &lost);
    PumpEc(array.get(), [&] { return done == 90 && rebuilt; });
    Drain(array.get());
    EXPECT_EQ(lost, 0);
    EXPECT_EQ(rebuild_status, IoStatus::kOk);
    EXPECT_FALSE(array->backend().IsFailed(SlotId(1)));
    EXPECT_TRUE(array->backend().IsFailed(SlotId(0)));
    got.push_back(EcDigests(array.get(), collector));
  }

  const std::vector<std::vector<uint64_t>> want = {
      {0x87180436e91d1e40ull, 0x537e748d8a791ac5ull, 0x4a78b9c8cc4f9233ull,
       0x96c93d8397509a1full, 0x8c5c96346033d8beull, 0xa8cf643096453bafull,
       0x62b52fe7ac5d0611ull},
      {0xbb433b4197479c7eull, 0xb9bdff92b24dbb55ull, 0x32de99a9aba79ab5ull,
       0x824eda03044128e8ull, 0x359201ddd17bb30eull, 0xfd7864b5c813e29bull,
       0xff3c5d8e54fef18dull},
      {0xf45d88a5ceb53ff5ull, 0x08db77f470b23022ull, 0xff91a06c974fcebcull,
       0xeb20ff965490fc9dull, 0xbe6b62ee0b3348d6ull, 0x4957ffc2bc1a7353ull,
       0x4cead3b33311eff1ull},
      {0x99733b4b8faaec5eull, 0x24ea4d2c733bc1cdull, 0x39e083e6070d6c0bull,
       0xb5d4662dfd2aed62ull, 0xb8cf3794216d7532ull, 0x67eaf7fd056d5d29ull,
       0x5b5fb32552ace8eeull},
  };
  ASSERT_EQ(got.size(), want.size());
  const char* const names[] = {"mixed", "media-error re-plan",
                               "fail-stop mid-RMW", "rebuild column loss"};
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << names[i] << " got {"
                               << FormatEcDigests(got[i]) << "}";
  }
}

}  // namespace
}  // namespace mimdraid

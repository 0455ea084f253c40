// Microbenchmarks (google-benchmark) for the hot paths of the simulator:
// LBA mapping, access planning, replica placement, array mapping, scheduler
// picks (SATF and RSATF over positions resolved at enqueue), a DriveSet
// command round trip, a mirror request round trip, the controller's
// read-after-write barrier, and the GF(2^8) erasure codec.
// These bound the cost of simulated I/O, of position-sensitive scheduling (a
// SATF-class dispatch is O(queue x replicas) Plan() calls), of a write
// completion's wake of parked reads, and of byte-level coding per stripe.
#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/array/array_layout.h"
#include "src/array/controller.h"
#include "src/array/placement.h"
#include "src/calib/predictor.h"
#include "src/disk/sim_disk.h"
#include "src/ec/ec_controller.h"
#include "src/ec/ec_layout.h"
#include "src/ec/gf256.h"
#include "src/io/drive_set.h"
#include "src/sched/positional_schedulers.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/va/virtual_array.h"

namespace mimdraid {
namespace {

struct Fixture {
  Fixture()
      : geometry(MakeSt39133Geometry()),
        layout(&geometry),
        profile(MakeSt39133SeekProfile()),
        timing(&layout, profile, 0.0),
        placement3(&layout, 3),
        rng(1) {}
  DiskGeometry geometry;
  DiskLayout layout;
  SeekProfile profile;
  DiskTimingModel timing;
  SrDiskPlacement placement3;
  Rng rng;
};

Fixture& F() {
  // mdl-ok(MDL004): serial google-benchmark binary, never in a parallel sweep
  static Fixture f;
  return f;
}

void BM_LayoutToChs(benchmark::State& state) {
  Fixture& f = F();
  uint64_t lba = 12345;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.layout.ToChs(lba));
    lba = (lba * 2654435761u + 7) % f.layout.num_data_sectors();
  }
}
BENCHMARK(BM_LayoutToChs);

void BM_TimingPlan(benchmark::State& state) {
  Fixture& f = F();
  HeadState head{100, 3};
  uint64_t lba = 999;
  double t = 0.0;
  for (auto _ : state) {
    const AccessPlan plan = f.timing.Plan(head, t, lba, 8, false);
    benchmark::DoNotOptimize(plan.total_us);
    head = plan.end_state;
    t += plan.total_us;
    lba = (lba * 2654435761u + 13) % (f.layout.num_data_sectors() - 8);
  }
}
BENCHMARK(BM_TimingPlan);

void BM_PlacementPhysicalLba(benchmark::State& state) {
  Fixture& f = F();
  SrDiskPlacement& placement = f.placement3;
  uint64_t s = 5;
  int r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(placement.PhysicalLba(s, r));
    s = (s * 2654435761u + 3) % placement.capacity_sectors();
    r = (r + 1) % 3;
  }
}
BENCHMARK(BM_PlacementPhysicalLba);

void BM_SimDiskOp(benchmark::State& state) {
  Simulator sim;
  SimDisk disk(&sim, F().geometry, F().profile, DiskNoiseModel::None(), 1,
               0.0);
  Rng rng(3);
  for (auto _ : state) {
    const uint64_t lba = rng.UniformU64(disk.num_sectors() - 8);
    bool done = false;
    disk.Start(DiskOp::kRead, BlockAddr(lba), 8, [&](const DiskOpResult&) {
      done = true;
    });
    while (!done) {
      sim.Step();
    }
  }
}
BENCHMARK(BM_SimDiskOp);

void BM_RsatfPick(benchmark::State& state) {
  const size_t queue_len = static_cast<size_t>(state.range(0));
  Simulator sim;
  SimDisk disk(&sim, F().geometry, F().profile, DiskNoiseModel::None(), 1,
               0.0);
  OraclePredictor predictor(&disk, 0.0);
  SrDiskPlacement placement(&disk.layout(), 3);
  Rng rng(5);
  std::vector<QueuedRequest> queue;
  for (size_t i = 0; i < queue_len; ++i) {
    QueuedRequest req;
    req.id = i + 1;
    req.op = DiskOp::kRead;
    req.sectors = 8;
    const uint64_t s = rng.UniformU64(placement.capacity_sectors() - 8);
    for (const uint64_t cand : placement.AllReplicas(s)) {
      req.candidates.push_back(BlockAddr(cand));
    }
    ResolveCandidates(disk.layout(), req);
    queue.push_back(std::move(req));
  }
  RsatfScheduler sched;
  ScheduleContext ctx;
  ctx.predictor = &predictor;
  ctx.layout = &disk.layout();
  SimTime now;
  for (auto _ : state) {
    ctx.now = now;
    benchmark::DoNotOptimize(sched.Pick(queue, ctx));
    now += SimDuration(1000);
  }
  state.SetComplexityN(static_cast<int64_t>(queue_len));
}
BENCHMARK(BM_RsatfPick)
    ->Arg(8)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Complexity();

// One SATF dispatch over N queued single-candidate 8 KB entries, 70% writes,
// with positions resolved at enqueue as DriveSet does. N = 4 is the
// ec_rmw_closed shape (16 outstanding parity ops spread over 6 drives); each
// pick is one fused bound-and-plan pass per entry, no LBA re-translation.
void BM_SatfPick(benchmark::State& state) {
  const size_t queue_len = static_cast<size_t>(state.range(0));
  Simulator sim;
  SimDisk disk(&sim, F().geometry, F().profile, DiskNoiseModel::None(), 1,
               0.0);
  OraclePredictor predictor(&disk, 0.0);
  Rng rng(9);
  std::vector<QueuedRequest> queue;
  for (size_t i = 0; i < queue_len; ++i) {
    QueuedRequest req;
    req.id = i + 1;
    req.op = rng.Bernoulli(0.3) ? DiskOp::kRead : DiskOp::kWrite;
    req.sectors = 16;
    req.candidates = {BlockAddr(rng.UniformU64(4'000'000))};
    ResolveCandidates(disk.layout(), req);
    queue.push_back(std::move(req));
  }
  SatfScheduler sched;
  ScheduleContext ctx;
  ctx.predictor = &predictor;
  ctx.layout = &disk.layout();
  SimTime now;
  for (auto _ : state) {
    ctx.now = now;
    benchmark::DoNotOptimize(sched.Pick(queue, ctx));
    now += SimDuration(1000);
  }
}
BENCHMARK(BM_SatfPick)->Arg(4)->Arg(16)->Arg(128);

// Policy hooks for a DriveSet that only carries commands.
class CommandOnlyClient : public DriveSetClient {
 public:
  void OnEntryComplete(SlotId /*disk*/, const QueuedRequest& /*entry*/,
                       BlockAddr /*chosen_lba*/,
                       const DiskOpResult& /*result*/) override {}
  void OnSlotFailed(SlotId /*disk*/,
                    std::vector<QueuedRequest> /*drained*/) override {}
  void OnSparePromoted(SlotId /*disk*/) override {}
};

// One command round trip through the engine — EnqueueCommand, FCFS dispatch,
// the simulated access, completion routed through the command slab — with N
// commands outstanding on one drive; each completion issues the next. FCFS
// keeps the pick O(1), so this times the engine layer itself (the per-command
// cost the parity controller pays on every sub-op).
void BM_DriveSetCommand(benchmark::State& state) {
  const int outstanding = static_cast<int>(state.range(0));
  Simulator sim;
  SimDisk disk(&sim, F().geometry, F().profile, DiskNoiseModel::None(), 1,
               0.0);
  OraclePredictor predictor(&disk, 0.0);
  CommandOnlyClient client;
  DriveSetOptions options;
  options.scheduler = SchedulerKind::kFcfs;
  DriveSet drives(&sim, {&disk}, {&predictor}, &client, options);
  Rng rng(13);
  uint64_t completed = 0;
  bool issuing = true;
  std::function<void()> issue = [&] {
    const uint64_t lba = rng.UniformU64(disk.num_sectors() - 16);
    (void)drives.EnqueueCommand(  // mdl-ok(MDL002): ids unused by the bench
        SlotId(0), DriveSet::Queue::kForeground, DiskOp::kRead,
        BlockAddr(lba), 16, [&](const DiskOpResult& /*r*/, uint64_t /*id*/) {
          ++completed;
          if (issuing) {
            issue();
          }
        });
  };
  for (int i = 0; i < outstanding; ++i) {
    issue();
  }
  for (auto _ : state) {
    const uint64_t target = completed + 1;
    while (completed < target) {
      sim.Step();
    }
    benchmark::DoNotOptimize(completed);
  }
  issuing = false;
  sim.Run();
}
BENCHMARK(BM_DriveSetCommand)->Arg(1)->Arg(16);

// Closed-loop fleet: N independent disks on one simulator, each immediately
// re-issuing on completion, so the event engine holds N pending completions
// at all times. One iteration = one Step(); measures the engine's per-event
// cost (calendar-queue pop + insert) at fleet scale, not disk mechanics.
void BM_FleetSimStep(benchmark::State& state) {
  const size_t fleet = static_cast<size_t>(state.range(0));
  Simulator sim;
  std::vector<std::unique_ptr<SimDisk>> disks;
  std::vector<uint64_t> next_lba(fleet);
  Rng rng(11);
  disks.reserve(fleet);
  for (size_t i = 0; i < fleet; ++i) {
    disks.push_back(std::make_unique<SimDisk>(&sim, F().geometry, F().profile,
                                              DiskNoiseModel::None(), i + 1,
                                              0.0));
    next_lba[i] = rng.UniformU64(disks[i]->num_sectors() - 8);
  }
  // Self-rescheduling issue loop per disk keeps exactly `fleet` events live.
  std::function<void(size_t)> issue = [&](size_t i) {
    disks[i]->Start(DiskOp::kRead, BlockAddr(next_lba[i]), 8,
                    [&, i](const DiskOpResult&) {
                      next_lba[i] =
                          (next_lba[i] * 2654435761u + 9) %
                          (disks[i]->num_sectors() - 8);
                      issue(i);
                    });
  };
  for (size_t i = 0; i < fleet; ++i) {
    issue(i);
  }
  for (auto _ : state) {
    sim.Step();
  }
  state.SetComplexityN(static_cast<int64_t>(fleet));
}
BENCHMARK(BM_FleetSimStep)->Arg(100)->Arg(1000)->Complexity();

// Read-after-write barrier: N reads parked behind N in-flight writes to
// distinct stripe units of a 64-disk stripe. One iteration runs the
// simulation until one write lands (its wake resubmits the one read parked
// behind it), then parks a fresh read behind a fresh write to that unit, so
// the backlog stays at N. A wake visits only the landed write's sectors, so
// the per-iteration time should stay flat in N; a rescan of every parked
// read per completion would make it O(N).
void BM_ParkedReadWake(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  constexpr int kDisks = 64;
  constexpr uint32_t kUnit = 16;
  Simulator sim;
  std::vector<std::unique_ptr<SimDisk>> disks;
  std::vector<std::unique_ptr<AccessPredictor>> predictors;
  std::vector<SimDisk*> dptr;
  std::vector<AccessPredictor*> pptr;
  for (int i = 0; i < kDisks; ++i) {
    disks.push_back(std::make_unique<SimDisk>(&sim, F().geometry, F().profile,
                                              DiskNoiseModel::None(), i + 1,
                                              i * 700.0));
    predictors.push_back(
        std::make_unique<OraclePredictor>(disks.back().get(), 0.0));
    dptr.push_back(disks.back().get());
    pptr.push_back(predictors.back().get());
  }
  ArrayAspect aspect;
  aspect.ds = kDisks;
  ArrayLayout layout(&disks[0]->layout(), aspect, kUnit, n * kUnit);
  ArrayControllerOptions copts;
  copts.engine.scheduler = SchedulerKind::kFcfs;
  ArrayController controller(&sim, dptr, pptr, &layout, copts);
  std::vector<uint64_t> landed;  // units whose write completed
  const auto park_pair = [&](uint64_t unit) {
    controller.Submit(DiskOp::kWrite, unit * kUnit, 8,
                      [&landed, unit](const IoResult&) {
                        landed.push_back(unit);
                      });
    controller.Submit(DiskOp::kRead, unit * kUnit, 8, [](const IoResult&) {});
  };
  for (size_t u = 0; u < n; ++u) {
    park_pair(u);
  }
  for (auto _ : state) {
    while (landed.empty()) {
      sim.Step();
    }
    const uint64_t unit = landed.back();
    landed.pop_back();
    park_pair(unit);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
  while (!controller.Idle() && sim.Step()) {
  }
}
BENCHMARK(BM_ParkedReadWake)->Arg(16)->Arg(256)->Arg(2048)->Complexity();

// The ST39133-model drives of a 36x1x1 stripe, one DiskLayout each, as an
// array constructs them (so Map walks 36 separate placement tables).
struct StripeFleet {
  StripeFleet() {
    for (int i = 0; i < 36; ++i) {
      disks.push_back(std::make_unique<SimDisk>(
          &sim, F().geometry, F().profile, DiskNoiseModel::None(), i + 1,
          i * 167.0));
      predictors.push_back(
          std::make_unique<OraclePredictor>(disks.back().get(), 0.0));
      layouts.push_back(&disks.back()->layout());
      dptr.push_back(disks.back().get());
      pptr.push_back(predictors.back().get());
    }
    ArrayAspect aspect;
    aspect.ds = 36;
    layout = std::make_unique<ArrayLayout>(layouts, aspect, kUnit, kDataset);
  }
  static constexpr uint32_t kUnit = 16;
  static constexpr uint64_t kDataset = 36ull * 1'000'000;
  Simulator sim;
  std::vector<std::unique_ptr<SimDisk>> disks;
  std::vector<std::unique_ptr<AccessPredictor>> predictors;
  std::vector<const DiskLayout*> layouts;
  std::vector<SimDisk*> dptr;
  std::vector<AccessPredictor*> pptr;
  std::unique_ptr<ArrayLayout> layout;
};

// Logical-to-physical mapping of one 8 KB request on the 36x1x1 stripe into
// a reused fragment buffer: a placement lookup and one replica placement per
// fragment, no allocation.
void BM_ArrayLayoutMap(benchmark::State& state) {
  StripeFleet fleet;
  MappedFragments out;
  Rng rng(31);
  for (auto _ : state) {
    const uint64_t lba = rng.UniformU64(StripeFleet::kDataset - 16);
    fleet.layout->Map(lba, 16, &out);
    benchmark::DoNotOptimize(out.replicas.data());
  }
}
BENCHMARK(BM_ArrayLayoutMap);

// One mirror request round trip on the 36x1x1 stripe: Submit (map, op and
// fragment records, write barrier), SATF dispatch, the simulated access, and
// completion, with 64 requests (30% writes, 8 sectors) kept outstanding. One
// iteration runs the simulation until one more request completes.
void BM_MirrorSubmitComplete(benchmark::State& state) {
  StripeFleet fleet;
  ArrayControllerOptions copts;
  copts.engine.scheduler = SchedulerKind::kSatf;
  copts.engine.max_scan = 128;
  ArrayController controller(&fleet.sim, fleet.dptr, fleet.pptr,
                             fleet.layout.get(), copts);
  Rng rng(37);
  uint64_t completed = 0;
  bool issuing = true;
  std::function<void()> issue = [&] {
    const uint64_t lba = rng.UniformU64(StripeFleet::kDataset / 8) * 8;
    const DiskOp op = rng.Bernoulli(0.3) ? DiskOp::kWrite : DiskOp::kRead;
    controller.Submit(op, lba, 8, [&](const IoResult& /*r*/) {
      ++completed;
      if (issuing) {
        issue();
      }
    });
  };
  for (int i = 0; i < 64; ++i) {
    issue();
  }
  for (auto _ : state) {
    const uint64_t target = completed + 1;
    while (completed < target) {
      fleet.sim.Step();
    }
    benchmark::DoNotOptimize(completed);
  }
  issuing = false;
  while (!controller.Idle() && fleet.sim.Step()) {
  }
}
BENCHMARK(BM_MirrorSubmitComplete);

// One erasure write round trip on a 4+2 array of ST39133 drives: Submit (map,
// op and plan records), a read-modify-write's three pre-image reads and three
// writes through SATF dispatch and the simulated accesses, and completion,
// with 16 unit-aligned 8-sector writes kept outstanding. One iteration runs
// the simulation until one more write completes.
void BM_EcSubmitComplete(benchmark::State& state) {
  constexpr uint32_t kK = 4;
  constexpr uint32_t kM = 2;
  constexpr uint32_t kUnit = 16;
  constexpr uint64_t kPerDisk = 1'000'000;
  Simulator sim;
  std::vector<std::unique_ptr<SimDisk>> disks;
  std::vector<std::unique_ptr<AccessPredictor>> predictors;
  std::vector<SimDisk*> dptr;
  std::vector<AccessPredictor*> pptr;
  for (uint32_t i = 0; i < kK + kM; ++i) {
    disks.push_back(std::make_unique<SimDisk>(
        &sim, MakeSt39133Geometry(), MakeSt39133SeekProfile(),
        DiskNoiseModel::None(), /*seed=*/500 + i,
        /*spindle_phase_us=*/i * 613.0));
    predictors.push_back(
        std::make_unique<OraclePredictor>(disks.back().get(), 0.0));
    dptr.push_back(disks.back().get());
    pptr.push_back(predictors.back().get());
  }
  const EcLayout layout(kK + kM, kK, kUnit, kPerDisk);
  const EcCodec codec(kK, kM);
  DriveSetOptions options;
  options.scheduler = SchedulerKind::kSatf;
  EcController controller(&sim, dptr, pptr, &layout, &codec, options);
  Rng rng(41);
  uint64_t completed = 0;
  bool issuing = true;
  std::function<void()> issue = [&] {
    const uint64_t lba =
        rng.UniformU64(layout.data_capacity_sectors() / kUnit) * kUnit;
    controller.Submit(DiskOp::kWrite, lba, 8, [&](const IoResult& /*r*/) {
      ++completed;
      if (issuing) {
        issue();
      }
    });
  };
  for (int i = 0; i < 16; ++i) {
    issue();
  }
  for (auto _ : state) {
    const uint64_t target = completed + 1;
    while (completed < target) {
      sim.Step();
    }
    benchmark::DoNotOptimize(completed);
  }
  issuing = false;
  while (!controller.Idle() && sim.Step()) {
  }
}
BENCHMARK(BM_EcSubmitComplete);

// Virtual-array grant/release round trip on a mixed two-generation fleet of
// N drives under the most-free policy (the sorting policy: O(N log N) per
// grant). Bounds the control-plane cost of carving tenants out of the fleet.
void BM_VaAllocate(benchmark::State& state) {
  const size_t fleet_drives = static_cast<size_t>(state.range(0));
  FleetSpec fleet;
  DriveParams fast;
  fast.name = "fast";
  fast.geometry = MakeTestGeometry();
  fast.profile = MakeTestSeekProfile();
  DriveParams slow = fast;
  slow.name = "slow";
  slow.geometry.rpm = 7200;
  slow.geometry.num_cylinders = 90;
  fleet.generations = {fast, slow};
  for (size_t d = 0; d < fleet_drives; ++d) {
    fleet.slot_generation.push_back(d % 2);
  }
  VirtualArrayAllocator alloc(fleet, fleet_drives, VaPlacement::kMostFree,
                              /*seed=*/7);
  VaRequest request;
  request.name = "bm";
  request.backend = ArrayBackendKind::kMirror;
  request.aspect.ds = 2;
  request.aspect.dr = 1;
  request.aspect.dm = 2;
  request.dataset_sectors = 2400;
  request.stripe_unit_sectors = 16;
  for (auto _ : state) {
    std::optional<VaAllocation> a = alloc.Allocate(request);
    benchmark::DoNotOptimize(a);
    alloc.Release(*a);
  }
  state.SetComplexityN(static_cast<int64_t>(fleet_drives));
}
BENCHMARK(BM_VaAllocate)->Arg(8)->Arg(64)->Arg(256)->Complexity();

// GF(2^8) Cauchy coding over one stripe of k 4 KiB shards: parity
// generation (Encode) and worst-case repair (Reconstruct with all m data
// shards lost, so the full k x k inversion plus every missing row is paid).
// Prices the byte path the simulator's plans stand in for.
void BM_EcEncode(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  const uint32_t m = static_cast<uint32_t>(state.range(1));
  constexpr size_t kShardBytes = 4096;
  const EcCodec codec(k, m);
  Rng rng(19);
  std::vector<std::vector<uint8_t>> data(k);
  for (auto& s : data) {
    s.resize(kShardBytes);
    for (auto& b : s) {
      b = static_cast<uint8_t>(rng.UniformU64(256));
    }
  }
  std::vector<std::vector<uint8_t>> parity;
  for (auto _ : state) {
    codec.Encode(data, &parity);
    benchmark::DoNotOptimize(parity);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * k *
                          kShardBytes);
}
BENCHMARK(BM_EcEncode)->Args({4, 2})->Args({5, 1})->Args({8, 4});

void BM_EcDecode(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  const uint32_t m = static_cast<uint32_t>(state.range(1));
  constexpr size_t kShardBytes = 4096;
  const EcCodec codec(k, m);
  Rng rng(23);
  std::vector<std::vector<uint8_t>> whole(k);
  for (auto& s : whole) {
    s.resize(kShardBytes);
    for (auto& b : s) {
      b = static_cast<uint8_t>(rng.UniformU64(256));
    }
  }
  std::vector<std::vector<uint8_t>> parity;
  codec.Encode(whole, &parity);
  whole.insert(whole.end(), parity.begin(), parity.end());
  std::vector<bool> present(k + m, true);
  for (uint32_t i = 0; i < m; ++i) {
    present[i] = false;  // worst case: m data shards gone
  }
  for (auto _ : state) {
    std::vector<std::vector<uint8_t>> shards = whole;
    for (uint32_t i = 0; i < m; ++i) {
      shards[i].clear();
    }
    const bool ok = codec.Reconstruct(&shards, present);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(shards);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * m *
                          kShardBytes);
}
BENCHMARK(BM_EcDecode)->Args({4, 2})->Args({5, 1})->Args({8, 4});

}  // namespace
}  // namespace mimdraid

BENCHMARK_MAIN();

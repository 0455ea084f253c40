// Differential test of the SATF family's shared scoring loop against the
// four separate loops it replaced. The reference implementations below are
// the former SatfScheduler/RsatfScheduler/AsatfScheduler/RlookScheduler
// Pick bodies, kept verbatim apart from naming (and the collector, always
// attached here, is called unconditionally). On random queues of
// multi-candidate entries with non-zero ages, over plain and remapped
// layouts, zero and non-zero slack, and several max_scan windows, every pick
// must agree on queue index, replica, predicted service time (to the bit)
// and the number of candidates examined.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "src/calib/predictor.h"
#include "src/disk/sim_disk.h"
#include "src/obs/trace_collector.h"
#include "src/sched/positional_schedulers.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

struct RefCost {
  double effective_us = 0.0;
  double predicted_us = 0.0;
};

std::optional<RefCost> RefCostOf(const ScheduleContext& ctx,
                                 const QueuedRequest& req,
                                 const AccessCandidate& candidate,
                                 const PruneBar& bar) {
  const std::optional<AccessPlan> plan = ctx.predictor->Evaluate(
      ctx.now, candidate, req.sectors, req.op == DiskOp::kWrite, bar);
  if (!plan.has_value()) {
    return std::nullopt;
  }
  return RefCost{ctx.predictor->EffectiveServiceUs(*plan), plan->total_us};
}

size_t RefScan(const std::vector<QueuedRequest>& queue, size_t max_scan) {
  return max_scan == 0 ? queue.size() : std::min(max_scan, queue.size());
}

SchedulerPick RefSatf(const std::vector<QueuedRequest>& queue,
                      const ScheduleContext& ctx, size_t max_scan) {
  const size_t scan = RefScan(queue, max_scan);
  size_t best = 0;
  RefCost best_cost{std::numeric_limits<double>::infinity(), 0.0};
  uint64_t examined = 0;
  for (size_t i = 0; i < scan; ++i) {
    const QueuedRequest& req = queue[i];
    const std::optional<RefCost> cost =
        RefCostOf(ctx, req, req.candidates.front(),
                  PruneBar{best_cost.effective_us});
    if (!cost.has_value()) {
      continue;
    }
    ++examined;
    if (cost->effective_us < best_cost.effective_us) {
      best_cost = *cost;
      best = i;
    }
  }
  ctx.collector->OnSchedulerScan(ctx.disk.value(), examined);
  return SchedulerPick{best, queue[best].candidates.front().lba,
                       best_cost.predicted_us};
}

SchedulerPick RefRsatf(const std::vector<QueuedRequest>& queue,
                       const ScheduleContext& ctx, size_t max_scan) {
  const size_t scan = RefScan(queue, max_scan);
  size_t best = 0;
  BlockAddr best_lba = queue[0].candidates.front().lba;
  RefCost best_cost{std::numeric_limits<double>::infinity(), 0.0};
  uint64_t examined = 0;
  for (size_t i = 0; i < scan; ++i) {
    const QueuedRequest& req = queue[i];
    for (const AccessCandidate& candidate : req.candidates) {
      const std::optional<RefCost> cost =
          RefCostOf(ctx, req, candidate, PruneBar{best_cost.effective_us});
      if (!cost.has_value()) {
        continue;
      }
      ++examined;
      if (cost->effective_us < best_cost.effective_us) {
        best_cost = *cost;
        best = i;
        best_lba = candidate.lba;
      }
    }
  }
  ctx.collector->OnSchedulerScan(ctx.disk.value(), examined);
  return SchedulerPick{best, best_lba, best_cost.predicted_us};
}

SchedulerPick RefAsatf(const std::vector<QueuedRequest>& queue,
                       const ScheduleContext& ctx, size_t max_scan,
                       double age_weight) {
  const size_t scan = RefScan(queue, max_scan);
  size_t best = 0;
  BlockAddr best_lba = queue[0].candidates.front().lba;
  double best_aged = std::numeric_limits<double>::infinity();
  RefCost best_cost{0.0, 0.0};
  uint64_t examined = 0;
  for (size_t i = 0; i < scan; ++i) {
    const QueuedRequest& req = queue[i];
    const double age_credit =
        age_weight * static_cast<double>((ctx.now - req.arrival_us).us());
    for (const AccessCandidate& candidate : req.candidates) {
      const std::optional<RefCost> cost =
          RefCostOf(ctx, req, candidate, PruneBar{best_aged, age_credit});
      if (!cost.has_value()) {
        continue;
      }
      ++examined;
      const double aged = cost->effective_us - age_credit;
      if (aged < best_aged) {
        best_aged = aged;
        best_cost = *cost;
        best = i;
        best_lba = candidate.lba;
      }
    }
  }
  ctx.collector->OnSchedulerScan(ctx.disk.value(), examined);
  return SchedulerPick{best, best_lba, best_cost.predicted_us};
}

// LOOK's sweep state lives in the base class, so the reference RLOOK is a
// LookScheduler too: both sides advance their sweeps in step.
class RefRlook : public LookScheduler {
 public:
  SchedulerPick Pick(const std::vector<QueuedRequest>& queue,
                     const ScheduleContext& ctx) override {
    const size_t i = PickIndex(queue, ctx);
    const QueuedRequest& req = queue[i];
    BlockAddr best_lba = req.candidates.front().lba;
    RefCost best_cost{std::numeric_limits<double>::infinity(), 0.0};
    uint64_t examined = 0;
    for (const AccessCandidate& candidate : req.candidates) {
      const std::optional<RefCost> cost =
          RefCostOf(ctx, req, candidate, PruneBar{best_cost.effective_us});
      if (!cost.has_value()) {
        continue;
      }
      ++examined;
      if (cost->effective_us < best_cost.effective_us) {
        best_cost = *cost;
        best_lba = candidate.lba;
      }
    }
    ctx.collector->OnSchedulerScan(ctx.disk.value(), examined);
    return SchedulerPick{i, best_lba, best_cost.predicted_us};
  }
  std::string name() const override { return "RefRLOOK"; }
};

enum class Policy { kSatf, kRsatf, kAsatf, kRlook };

struct Case {
  Policy policy = Policy::kSatf;
  size_t max_scan = 0;
  double age_weight = 0.0;
};

struct Drive {
  bool remapped = false;
  double slack_us = 0.0;
};

// Runs one drain of a random queue through the shared loop and the reference
// side by side; returns the number of picks compared.
int RunDifferential(const Case& c, const Drive& drive, uint64_t seed) {
  Simulator sim;
  SimDisk disk(&sim, MakeTestGeometry(), MakeTestSeekProfile(),
               DiskNoiseModel::None(), seed, 0.0);
  OraclePredictor predictor(&disk, drive.slack_us);
  Rng rng(seed);
  const uint64_t sectors = disk.layout().num_data_sectors();

  std::unique_ptr<Scheduler> shared;
  RefRlook ref_rlook;
  switch (c.policy) {
    case Policy::kSatf:
      shared = std::make_unique<SatfScheduler>(c.max_scan);
      break;
    case Policy::kRsatf:
      shared = std::make_unique<RsatfScheduler>(c.max_scan);
      break;
    case Policy::kAsatf:
      shared = std::make_unique<AsatfScheduler>(c.max_scan, c.age_weight);
      break;
    case Policy::kRlook:
      shared = std::make_unique<RlookScheduler>();
      break;
  }

  std::vector<QueuedRequest> queue;
  uint64_t next_id = 1;
  const auto enqueue = [&] {
    QueuedRequest r;
    r.id = next_id++;
    r.op = rng.Bernoulli(0.6) ? DiskOp::kRead : DiskOp::kWrite;
    r.sectors = 1 + static_cast<uint32_t>(rng.UniformU64(24));
    const int candidates = 1 + static_cast<int>(rng.UniformU64(4));
    for (int k = 0; k < candidates; ++k) {
      r.candidates.push_back(BlockAddr(rng.UniformU64(sectors - r.sectors)));
    }
    // Arrivals spread over the last 50 ms: every entry carries an age.
    const int64_t back = static_cast<int64_t>(rng.UniformU64(50'000));
    r.arrival_us = sim.Now() - SimDuration(back);
    ResolveCandidates(disk.layout(), r);
    queue.push_back(std::move(r));
  };
  // Start late enough that every arrival time is positive.
  sim.ScheduleAt(SimTime(100'000), [] {});
  sim.Run();
  for (int i = 0; i < 24; ++i) {
    enqueue();
  }
  if (drive.remapped) {
    // Remap some queued replicas (moving them to spare tracks, possibly on
    // another cylinder than their siblings) and some unrelated sectors.
    for (size_t i = 0; i < queue.size(); i += 3) {
      (void)disk.mutable_layout().AddBadSector(
          queue[i].candidates.back().lba.value());
    }
    for (int k = 0; k < 8; ++k) {
      (void)disk.mutable_layout().AddBadSector(rng.UniformU64(sectors));
    }
  }

  TraceCollector shared_trace;
  TraceCollector ref_trace;
  int picks = 0;
  for (int step = 0; !queue.empty(); ++step) {
    if (step % 4 == 0 && step < 16) {
      enqueue();
    }
    ScheduleContext ctx;
    ctx.now = sim.Now();
    ctx.predictor = &predictor;
    ctx.layout = &disk.layout();
    ctx.disk = SlotId(0);
    ctx.collector = &ref_trace;
    SchedulerPick want;
    switch (c.policy) {
      case Policy::kSatf:
        want = RefSatf(queue, ctx, c.max_scan);
        break;
      case Policy::kRsatf:
        want = RefRsatf(queue, ctx, c.max_scan);
        break;
      case Policy::kAsatf:
        want = RefAsatf(queue, ctx, c.max_scan, c.age_weight);
        break;
      case Policy::kRlook:
        want = ref_rlook.Pick(queue, ctx);
        break;
    }
    ctx.collector = &shared_trace;
    const SchedulerPick got = shared->Pick(queue, ctx);
    EXPECT_EQ(got.queue_index, want.queue_index) << "step " << step;
    EXPECT_EQ(got.lba, want.lba) << "step " << step;
    EXPECT_EQ(got.predicted_service_us, want.predicted_service_us)
        << "step " << step;
    EXPECT_EQ(shared_trace.scheduler_candidates_examined(),
              ref_trace.scheduler_candidates_examined())
        << "step " << step;
    if (::testing::Test::HasFailure()) {
      return picks;
    }
    ++picks;
    // Serve the pick so the head and the clock move between picks.
    const QueuedRequest entry = std::move(queue[want.queue_index]);
    queue.erase(queue.begin() + static_cast<ptrdiff_t>(want.queue_index));
    bool done = false;
    disk.Start(entry.op, want.lba, entry.sectors,
               [&](const DiskOpResult&) { done = true; });
    while (!done) {
      sim.Step();
    }
  }
  EXPECT_EQ(shared_trace.scheduler_picks(), ref_trace.scheduler_picks());
  return picks;
}

TEST(SchedDifferential, SharedLoopMatchesTheFourReferenceLoops) {
  const Case cases[] = {
      {Policy::kSatf, 0, 0.0},    {Policy::kSatf, 1, 0.0},
      {Policy::kSatf, 5, 0.0},    {Policy::kRsatf, 0, 0.0},
      {Policy::kRsatf, 1, 0.0},   {Policy::kRsatf, 5, 0.0},
      {Policy::kAsatf, 0, 0.1},   {Policy::kAsatf, 5, 0.1},
      {Policy::kAsatf, 0, 0.0},   {Policy::kAsatf, 3, 0.5},
      {Policy::kAsatf, 0, 2.0},   {Policy::kRlook, 0, 0.0},
  };
  const Drive drives[] = {{false, 0.0}, {true, 0.0}, {false, 300.0},
                          {true, 300.0}};
  int picks = 0;
  uint64_t seed = 1;
  for (const Case& c : cases) {
    for (const Drive& drive : drives) {
      for (int rep = 0; rep < 3; ++rep) {
        SCOPED_TRACE(::testing::Message()
                     << "policy=" << static_cast<int>(c.policy)
                     << " max_scan=" << c.max_scan
                     << " age_weight=" << c.age_weight
                     << " remapped=" << drive.remapped
                     << " slack=" << drive.slack_us << " seed=" << seed);
        picks += RunDifferential(c, drive, seed++);
        if (HasFailure()) {
          return;
        }
      }
    }
  }
  // 12 cases x 4 drives x 3 drains of 28 entries each.
  EXPECT_EQ(picks, 12 * 4 * 3 * 28);
}

}  // namespace
}  // namespace mimdraid

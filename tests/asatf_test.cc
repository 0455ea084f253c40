// ASATF starvation-control tests: plain SATF can bypass a far request
// indefinitely under a stream of nearby arrivals; ASATF's age credit bounds
// the wait.
#include <gtest/gtest.h>

#include "src/calib/predictor.h"
#include "src/disk/sim_disk.h"
#include "src/sched/positional_schedulers.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

class AsatfTest : public ::testing::Test {
 protected:
  AsatfTest()
      : disk_(&sim_, MakeSt39133Geometry(), MakeSt39133SeekProfile(),
              DiskNoiseModel::None(), 1, 0.0),
        predictor_(&disk_, 0.0) {
    ctx_.predictor = &predictor_;
    ctx_.layout = &disk_.layout();
  }

  QueuedRequest Req(uint64_t id, uint32_t cylinder, SimTime arrival) {
    QueuedRequest r;
    r.id = id;
    r.op = DiskOp::kRead;
    r.sectors = 1;
    uint64_t lba = kInvalidLba;
    for (uint32_t h = 0; h < 12 && lba == kInvalidLba; ++h) {
      lba = disk_.layout().ToLba(Chs{cylinder, h, 0});
    }
    r.candidates = {BlockAddr(lba)};
    r.arrival_us = arrival;
    return r;
  }

  // Simulates a dispatch stream: near requests keep arriving at the head's
  // cylinder; a single far request waits. Returns how many dispatches the
  // far request waited (capped at `max_dispatches`).
  int DispatchesUntilFarServed(Scheduler& sched, int max_dispatches) {
    std::vector<QueuedRequest> queue;
    uint64_t next_id = 1;
    const uint32_t near_cyl = 100;
    const uint32_t far_cyl = 6000;
    SimTime now;
    queue.push_back(Req(next_id++, far_cyl, now));
    const uint64_t far_id = queue.back().id;
    // Keep a few near requests in the queue at all times.
    for (int i = 0; i < 4; ++i) {
      queue.push_back(Req(next_id++, near_cyl + i, now));
    }
    for (int dispatch = 1; dispatch <= max_dispatches; ++dispatch) {
      ctx_.now = now;
      const SchedulerPick pick = sched.Pick(queue, ctx_);
      const bool served_far = queue[pick.queue_index].id == far_id;
      queue.erase(queue.begin() + static_cast<ptrdiff_t>(pick.queue_index));
      if (served_far) {
        return dispatch;
      }
      now += SimDuration(3000);  // ~one request service time
      queue.push_back(Req(next_id++, near_cyl + dispatch % 5, now));
    }
    return max_dispatches + 1;
  }

  Simulator sim_;
  SimDisk disk_;
  OraclePredictor predictor_;
  ScheduleContext ctx_;
};

TEST_F(AsatfTest, SatfStarvesTheFarRequest) {
  SatfScheduler satf;
  EXPECT_GT(DispatchesUntilFarServed(satf, 200), 200);
}

TEST_F(AsatfTest, AsatfServesTheFarRequestPromptly) {
  AsatfScheduler asatf(/*max_scan=*/0, /*age_weight=*/0.1);
  // Predicted access gap near-vs-far is < 10 ms; at weight 0.1 the credit
  // closes it within ~100 ms of waiting = ~33 dispatches.
  EXPECT_LE(DispatchesUntilFarServed(asatf, 200), 50);
}

TEST_F(AsatfTest, HigherAgeWeightServesSooner) {
  AsatfScheduler slow(0, 0.05);
  AsatfScheduler fast(0, 0.5);
  EXPECT_LT(DispatchesUntilFarServed(fast, 200),
            DispatchesUntilFarServed(slow, 200));
}

TEST_F(AsatfTest, ZeroWeightDegeneratesToSatf) {
  AsatfScheduler zero(0, 0.0);
  SatfScheduler satf;
  // Same crafted queue: identical picks.
  std::vector<QueuedRequest> q1;
  std::vector<QueuedRequest> q2;
  Rng rng(3);
  for (int i = 0; i < 12; ++i) {
    const QueuedRequest r =
        Req(i + 1, static_cast<uint32_t>(rng.UniformU64(6900)),
            SimTime(static_cast<int64_t>(rng.UniformU64(50000))));
    q1.push_back(r);
    q2.push_back(r);
  }
  ctx_.now = SimTime(60000);
  // ASATF considers all replicas; with single candidates it must match SATF.
  EXPECT_EQ(zero.Pick(q1, ctx_).queue_index, satf.Pick(q2, ctx_).queue_index);
}

TEST_F(AsatfTest, AsatfThroughputCloseToSatf) {
  // The age credit must not cost much average-case efficiency: run both over
  // the same random dispatch stream and compare total predicted cost.
  SatfScheduler satf;
  AsatfScheduler asatf(0, 0.1);
  Rng rng(11);
  double satf_total = 0.0;
  double asatf_total = 0.0;
  for (auto* pair : {&satf_total, &asatf_total}) {
    Scheduler* sched =
        pair == &satf_total ? static_cast<Scheduler*>(&satf) : &asatf;
    Rng local(11);
    std::vector<QueuedRequest> queue;
    uint64_t id = 1;
    SimTime now;
    for (int i = 0; i < 16; ++i) {
      queue.push_back(Req(id++, static_cast<uint32_t>(local.UniformU64(6900)),
                          now));
    }
    for (int dispatch = 0; dispatch < 100; ++dispatch) {
      ctx_.now = now;
      const SchedulerPick pick = sched->Pick(queue, ctx_);
      *pair += pick.predicted_service_us;
      queue.erase(queue.begin() + static_cast<ptrdiff_t>(pick.queue_index));
      now += SimDuration(3000);
      queue.push_back(Req(id++, static_cast<uint32_t>(local.UniformU64(6900)),
                          now));
    }
  }
  EXPECT_LT(asatf_total, satf_total * 1.3);
}

}  // namespace
}  // namespace mimdraid

// Differential property test for the controller's read-after-write barrier.
//
// Seeded random streams of overlapping reads and writes (1-64 sectors, many
// straddling stripe units, some issued from completion callbacks) run
// through the real ArrayController one simulator event at a time. Beside it,
// a reference model replays the same events through the original barrier: a
// per-sector in-flight write count and a park-ordered list of parked reads
// that is rescanned in full after every write-fragment completion. The test
// asserts that the controller parks exactly the reads the model parks and
// resubmits, after each event, exactly the reads the rescan releases, in the
// same order. Resubmissions are observed through TraceCollector arrival
// records: a parked read gets its op id, and its arrival record stamped with
// its original issue time, only when it is resubmitted. Op ids are handed
// out in submission order, so the ids of an event's arrivals give the
// resubmission order, and the finished records say which read got each id.
//
// The model learns which write fragment completed from the collector's
// disk-op records. Striping runs first-copy writes (one replica, so the one
// disk write is the fragment). Mirror and SR-Array runs use foreground
// propagation (no background replica writes to confuse with foreground
// ones) under FCFS, so two in-flight fragments with a common replica
// location land there in submission order and the attribution is exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/array/array_layout.h"
#include "src/array/controller.h"
#include "src/calib/predictor.h"
#include "src/disk/sim_disk.h"
#include "src/obs/trace_collector.h"
#include "src/sim/auditor.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

constexpr uint64_t kDataset = 384;  // small, so requests overlap heavily
constexpr uint32_t kStripeUnit = 16;
constexpr int kTopLevelOps = 300;
constexpr int kCallbackOps = 150;

// A parked read as both sides see it: resubmission keeps the issue time.
struct ReadKey {
  uint64_t lba = 0;
  uint32_t sectors = 0;
  int64_t issue_us = 0;

  bool operator==(const ReadKey& o) const {
    return lba == o.lba && sectors == o.sectors && issue_us == o.issue_us;
  }
};

std::ostream& operator<<(std::ostream& os, const ReadKey& k) {
  return os << "read[" << k.lba << "+" << k.sectors << " @" << k.issue_us
            << "us]";
}

// The original barrier: linear rescan of every parked read per wake.
class RescanModel {
 public:
  explicit RescanModel(const ArrayLayout* layout) : layout_(layout) {}

  // A foreground write was submitted: mark its sectors and remember which
  // physical writes complete each of its fragments.
  void SubmitWrite(uint64_t lba, uint32_t sectors) {
    for (uint32_t s = 0; s < sectors; ++s) {
      ++inflight_[lba + s];
    }
    for (ArrayFragment& f : layout_->Map(lba, sectors)) {
      pending_.push_back(PendingFragment{f.logical_lba, f.sectors,
                                         std::move(f.replicas)});
    }
  }

  // Returns whether the read parks.
  bool SubmitRead(const ReadKey& read) {
    if (!Blocked(read)) {
      return false;
    }
    parked_.push_back(read);
    ++parks_;
    return true;
  }

  // A physical write landed. Returns whether it completed a fragment (which
  // makes the controller wake its parked reads after the callbacks run).
  bool OnDiskWrite(uint32_t slot, uint64_t lba, uint32_t sectors) {
    for (size_t i = 0; i < pending_.size(); ++i) {
      PendingFragment& f = pending_[i];
      if (f.sectors != sectors) {
        continue;
      }
      for (size_t r = 0; r < f.remaining.size(); ++r) {
        if (f.remaining[r].disk != slot || f.remaining[r].lba != lba) {
          continue;
        }
        f.remaining.erase(f.remaining.begin() + static_cast<ptrdiff_t>(r));
        if (!f.remaining.empty()) {
          return false;
        }
        for (uint32_t s = 0; s < f.sectors; ++s) {
          auto it = inflight_.find(f.logical_lba + s);
          if (--it->second == 0) {
            inflight_.erase(it);
          }
        }
        pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(i));
        return true;
      }
    }
    ADD_FAILURE() << "disk write " << slot << ":" << lba << "+" << sectors
                  << " matches no in-flight write fragment";
    return false;
  }

  // The rescan: every unblocked parked read, in park order.
  std::vector<ReadKey> Wake() {
    std::vector<ReadKey> still_parked;
    std::vector<ReadKey> ready;
    for (const ReadKey& p : parked_) {
      (Blocked(p) ? still_parked : ready).push_back(p);
    }
    parked_ = std::move(still_parked);
    return ready;
  }

  uint64_t parks() const { return parks_; }
  size_t parked() const { return parked_.size(); }

 private:
  struct PendingFragment {
    uint64_t logical_lba;
    uint32_t sectors;
    std::vector<ReplicaLocation> remaining;  // physical writes still to land
  };

  bool Blocked(const ReadKey& read) const {
    for (uint32_t s = 0; s < read.sectors; ++s) {
      if (inflight_.contains(read.lba + s)) {
        return true;
      }
    }
    return false;
  }

  const ArrayLayout* layout_;
  std::unordered_map<uint64_t, int> inflight_;
  std::vector<PendingFragment> pending_;  // submission order
  std::vector<ReadKey> parked_;
  uint64_t parks_ = 0;
};

struct Shape {
  std::string name;
  int ds, dr, dm;
  bool foreground;  // foreground write propagation
  SchedulerKind scheduler;
};

// Without this, gtest prints a Shape as its raw bytes, which include the
// std::string's heap address: the listed test names (and so the ctest names)
// would change from one build or run to the next.
void PrintTo(const Shape& shape, std::ostream* os) { *os << shape.name; }

class Harness {
 public:
  Harness(const Shape& shape, uint64_t seed) : rng_(seed) {
    ArrayAspect aspect;
    aspect.ds = shape.ds;
    aspect.dr = shape.dr;
    aspect.dm = shape.dm;
    const int d = aspect.TotalDisks();
    for (int i = 0; i < d; ++i) {
      disks_.push_back(std::make_unique<SimDisk>(
          &sim_, MakeTestGeometry(), MakeTestSeekProfile(),
          DiskNoiseModel::None(), /*seed=*/seed * 31 + static_cast<uint64_t>(i),
          /*spindle_phase_us=*/i * 700.0));
      predictors_.push_back(
          std::make_unique<OraclePredictor>(disks_.back().get(), 0.0));
    }
    layout_ = std::make_unique<ArrayLayout>(&disks_[0]->layout(), aspect,
                                            kStripeUnit, kDataset);
    std::vector<SimDisk*> dptr;
    std::vector<AccessPredictor*> pptr;
    for (int i = 0; i < d; ++i) {
      dptr.push_back(disks_[i].get());
      pptr.push_back(predictors_[i].get());
    }
    ArrayControllerOptions copts;
    copts.engine.scheduler = shape.scheduler;
    copts.foreground_write_propagation = shape.foreground;
    copts.engine.collector = &collector_;
    copts.engine.auditor = &auditor_;
    controller_ = std::make_unique<ArrayController>(&sim_, dptr, pptr,
                                                    layout_.get(), copts);
    model_ = std::make_unique<RescanModel>(layout_.get());
  }

  void Run() {
    // Bursty arrivals over a short window keep dozens of requests in flight.
    SimTime at = sim_.Now();
    for (int i = 0; i < kTopLevelOps; ++i) {
      at = at + SimDuration(static_cast<int64_t>(rng_.Exponential(400.0)));
      sim_.ScheduleAt(at, [this]() { SubmitRandom(); });
    }
    while (sim_.Step()) {
      CheckEvent();
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
    EXPECT_EQ(completed_, submitted_);
    EXPECT_TRUE(controller_->Idle());
    size_t matched = 0;
    for (const RequestRecord& rec : collector_.requests()) {
      auto it = resubmitted_.find(rec.id);
      if (it != resubmitted_.end()) {
        EXPECT_EQ((ReadKey{rec.lba, rec.sectors, rec.arrival_us.us()}),
                  it->second)
            << "op " << rec.id;
        EXPECT_FALSE(rec.is_write);
        ++matched;
      }
    }
    EXPECT_EQ(matched, resubmitted_.size());
    EXPECT_EQ(model_->parked(), 0u);
    EXPECT_EQ(controller_->stats().parked_reads, model_->parks());
    controller_->AuditQuiescent();
    EXPECT_EQ(auditor_.violations(), 0u) << auditor_.last_violation();
  }

  uint64_t parks() const { return model_->parks(); }
  uint64_t multi_wakes() const { return multi_wakes_; }

 private:
  // One logged direct submission of the current event.
  struct DirectSubmit {
    DiskOp op;
    ReadKey key;
    bool recorded;  // the controller emitted an arrival record for it
  };

  void SubmitRandom() {
    const DiskOp op = rng_.Bernoulli(0.55) ? DiskOp::kRead : DiskOp::kWrite;
    const uint32_t sectors = static_cast<uint32_t>(rng_.UniformInt(1, 64));
    const uint64_t lba = rng_.UniformU64(kDataset - sectors + 1);
    const size_t before = Arrivals();
    ++submitted_;
    controller_->Submit(op, lba, sectors, [this](const IoResult& r) {
      EXPECT_EQ(r.status, IoStatus::kOk);
      ++completed_;
      // Follow-up I/O from inside the completion callback. After a write,
      // it runs once the sector counts have dropped and before the wake.
      if (callback_ops_ < kCallbackOps && rng_.Bernoulli(0.35)) {
        ++callback_ops_;
        SubmitRandom();
      }
    });
    log_.push_back(DirectSubmit{op, ReadKey{lba, sectors, sim_.Now().us()},
                                Arrivals() > before});
  }

  // Requests the collector has seen arrive; the last op id handed out.
  size_t Arrivals() const {
    return collector_.requests().size() + collector_.open_requests();
  }

  // Replays the event just fired through the model and compares.
  void CheckEvent() {
    const auto& ops = collector_.disk_ops();
    ASSERT_LE(ops.size() - disk_ops_seen_, 1u)
        << "one event completed more than one disk op";
    bool wake = false;
    for (; disk_ops_seen_ < ops.size(); ++disk_ops_seen_) {
      const DiskOpRecord& rec = ops[disk_ops_seen_];
      if (rec.is_write) {
        wake = model_->OnDiskWrite(rec.slot, rec.lba, rec.sectors);
      }
    }
    size_t direct_records = 0;
    for (const DirectSubmit& s : log_) {
      if (s.op == DiskOp::kWrite) {
        model_->SubmitWrite(s.key.lba, s.key.sectors);
        ASSERT_TRUE(s.recorded);
      } else {
        const bool parked = model_->SubmitRead(s.key);
        ASSERT_EQ(s.recorded, !parked) << s.key;
      }
      direct_records += s.recorded ? 1 : 0;
    }
    log_.clear();
    const std::vector<ReadKey> expected =
        wake ? model_->Wake() : std::vector<ReadKey>{};
    if (expected.size() >= 2) {
      ++multi_wakes_;
    }

    // This event's arrivals: the direct submissions first (they ran inside
    // the callback, before the wake), then one per resubmitted read, in
    // resubmission order.
    const size_t arrivals = Arrivals();
    ASSERT_EQ(arrivals - arrivals_seen_, direct_records + expected.size())
        << "at t=" << sim_.Now().us() << "us";
    uint64_t op_id = arrivals_seen_ + direct_records + 1;
    for (const ReadKey& key : expected) {
      resubmitted_.emplace(op_id++, key);
    }
    arrivals_seen_ = arrivals;
    ASSERT_EQ(controller_->stats().parked_reads, model_->parks());
  }

  Simulator sim_;
  Rng rng_;
  TraceCollector collector_;
  InvariantAuditor auditor_;
  std::vector<std::unique_ptr<SimDisk>> disks_;
  std::vector<std::unique_ptr<AccessPredictor>> predictors_;
  std::unique_ptr<ArrayLayout> layout_;
  std::unique_ptr<ArrayController> controller_;
  std::unique_ptr<RescanModel> model_;
  std::vector<DirectSubmit> log_;
  size_t disk_ops_seen_ = 0;
  size_t arrivals_seen_ = 0;
  // Op id each resubmitted read must have received, per the model.
  std::unordered_map<uint64_t, ReadKey> resubmitted_;
  int submitted_ = 0;
  int completed_ = 0;
  int callback_ops_ = 0;
  uint64_t multi_wakes_ = 0;
};

using Param = std::tuple<Shape, uint64_t>;

class BarrierDifferential : public ::testing::TestWithParam<Param> {};

TEST_P(BarrierDifferential, MatchesLinearRescan) {
  const auto& [shape, seed] = GetParam();
  Harness h(shape, seed);
  h.Run();
  // The stream must actually exercise the barrier: many parks, and wakes
  // that release several reads at once (where order can go wrong).
  EXPECT_GE(h.parks(), 20u);
  EXPECT_GE(h.multi_wakes(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BarrierDifferential,
    ::testing::Combine(
        ::testing::Values(
            Shape{"stripe4x1x1", 4, 1, 1, false, SchedulerKind::kRsatf},
            Shape{"mirror2x1x2", 2, 1, 2, true, SchedulerKind::kFcfs},
            Shape{"sr2x2x1", 2, 2, 1, true, SchedulerKind::kFcfs},
            Shape{"sr1x2x2", 1, 2, 2, true, SchedulerKind::kFcfs}),
        ::testing::Values(uint64_t{1}, uint64_t{2}, uint64_t{3})),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      return std::get<0>(param_info.param).name + "_seed" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace mimdraid

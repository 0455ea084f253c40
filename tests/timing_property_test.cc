// Property tests for DiskTimingModel: invariants that must hold for every
// access on every geometry.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <tuple>
#include <vector>

#include "src/disk/timing.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

enum class Geo { kTest, kSt39133 };

class TimingProperty : public ::testing::TestWithParam<std::tuple<Geo, int>> {
 protected:
  TimingProperty()
      : geo_(std::get<0>(GetParam()) == Geo::kTest ? MakeTestGeometry()
                                                   : MakeSt39133Geometry()),
        layout_(&geo_),
        profile_(MakeSt39133SeekProfile()),
        model_(&layout_, profile_, /*phase=*/777.0),
        rng_(static_cast<uint64_t>(std::get<1>(GetParam()))) {}

  HeadState RandomHead() {
    HeadState h;
    h.cylinder = static_cast<uint32_t>(rng_.UniformU64(geo_.num_cylinders));
    h.head = static_cast<uint32_t>(rng_.UniformU64(geo_.num_heads));
    return h;
  }

  DiskGeometry geo_;
  DiskLayout layout_;
  SeekProfile profile_;
  DiskTimingModel model_;
  Rng rng_;
};

TEST_P(TimingProperty, PartsAlwaysSumToTotal) {
  for (int i = 0; i < 400; ++i) {
    const uint32_t sectors = 1 + static_cast<uint32_t>(rng_.UniformU64(128));
    const uint64_t lba =
        rng_.UniformU64(layout_.num_data_sectors() - sectors);
    const AccessPlan p = model_.Plan(RandomHead(), rng_.UniformDouble(0, 1e8),
                                     lba, sectors, rng_.Bernoulli(0.5));
    EXPECT_NEAR(p.total_us, p.seek_us + p.rotational_us + p.transfer_us, 1e-6);
    EXPECT_GE(p.seek_us, 0.0);
    EXPECT_GE(p.rotational_us, 0.0);
    EXPECT_GT(p.transfer_us, 0.0);
  }
}

TEST_P(TimingProperty, TransferIsSumOfPerSectorSlotTimes) {
  for (int i = 0; i < 200; ++i) {
    const uint32_t sectors = 1 + static_cast<uint32_t>(rng_.UniformU64(64));
    const uint64_t lba =
        rng_.UniformU64(layout_.num_data_sectors() - sectors);
    const AccessPlan p = model_.Plan(RandomHead(), 0.0, lba, sectors, false);
    // Transfer time is exactly the sum of each sector's own slot time
    // (sectors in an inner zone take longer to pass under the head).
    double expected = 0.0;
    for (uint32_t s = 0; s < sectors; ++s) {
      expected += geo_.SlotTimeUs(layout_.ToChs(lba + s).cylinder);
    }
    EXPECT_NEAR(p.transfer_us, expected, 1e-6);
  }
}

TEST_P(TimingProperty, EndStateMatchesLastSector) {
  for (int i = 0; i < 200; ++i) {
    const uint32_t sectors = 1 + static_cast<uint32_t>(rng_.UniformU64(256));
    const uint64_t lba =
        rng_.UniformU64(layout_.num_data_sectors() - sectors);
    const AccessPlan p = model_.Plan(RandomHead(), 0.0, lba, sectors, false);
    const Chs last = layout_.ToChs(lba + sectors - 1);
    EXPECT_EQ(p.end_state.cylinder, last.cylinder);
    EXPECT_EQ(p.end_state.head, last.head);
  }
}

TEST_P(TimingProperty, SingleSectorBoundedByMaxSeekPlusRotation) {
  const double bound = profile_.MaxSeekUs(geo_.num_cylinders) +
                       static_cast<double>(geo_.RotationUs().us()) +
                       geo_.SlotTimeUs(0) + 1.0;
  for (int i = 0; i < 400; ++i) {
    const uint64_t lba = rng_.UniformU64(layout_.num_data_sectors());
    const AccessPlan p = model_.Plan(RandomHead(), rng_.UniformDouble(0, 1e9),
                                     lba, 1, false);
    EXPECT_LE(p.total_us, bound);
  }
}

TEST_P(TimingProperty, SequentialFullTrackNeverLosesARotation) {
  // Reading an aligned full track, starting aligned with its first slot,
  // takes exactly one rotation of transfer plus sub-rotation positioning.
  for (int i = 0; i < 100; ++i) {
    const uint64_t lba = rng_.UniformU64(layout_.num_data_sectors());
    const Chs chs = layout_.ToChs(lba);
    const uint64_t track_start = lba - chs.sector;
    const uint32_t spt = geo_.SectorsPerTrack(chs.cylinder);
    if (track_start + spt > layout_.num_data_sectors()) {
      continue;
    }
    const HeadState at{chs.cylinder, chs.head};
    const AccessPlan p = model_.Plan(at, rng_.UniformDouble(0, 1e8),
                                     track_start, spt, false);
    const double rotation = static_cast<double>(geo_.RotationUs().us());
    EXPECT_NEAR(p.transfer_us, rotation, 1e-6);
    EXPECT_LT(p.rotational_us, rotation);
  }
}

TEST_P(TimingProperty, WriteNeverFasterThanReadFromSameState) {
  for (int i = 0; i < 200; ++i) {
    const uint64_t lba = rng_.UniformU64(layout_.num_data_sectors() - 8);
    const HeadState head = RandomHead();
    const double t = rng_.UniformDouble(0, 1e8);
    const AccessPlan r = model_.Plan(head, t, lba, 8, false);
    const AccessPlan w = model_.Plan(head, t, lba, 8, true);
    // The write's extra settle may be absorbed by rotational wait, but the
    // total can never be smaller by more than a full rotation's wrap.
    EXPECT_GE(w.seek_us, r.seek_us);
  }
}

// The scheduler-pruning lower bound on Plan(...).total_us, written out from
// public primitives only (ToChs, the zone, SlotOf, the seek curve,
// TimeUntilAngle): the reference the fused Evaluate pass must match bit for
// bit.
double ReferenceBoundUs(const DiskTimingModel& model, const HeadState& from,
                        double start_us, uint64_t lba, uint32_t sectors,
                        bool is_write) {
  const DiskLayout& layout = model.layout();
  const Chs chs = layout.ToChs(lba);
  double seek = 0.0;
  if (chs.cylinder != from.cylinder) {
    const uint32_t dist = chs.cylinder > from.cylinder
                              ? chs.cylinder - from.cylinder
                              : from.cylinder - chs.cylinder;
    seek = model.seek_profile().SeekUs(dist, is_write);
  }
  const Zone& z = layout.geometry().ZoneOf(chs.cylinder);
  const double wait = model.TimeUntilAngle(
      start_us,
      static_cast<double>(layout.SlotOf(chs, z)) / z.sectors_per_track);
  return std::max(seek, wait) + sectors * model.MinSlotTimeUs() - 1e-3;
}

// The scheduler-pruning lower bound must never exceed the full plan's
// total: a violation would let a scheduler skip a candidate that could have
// won the scan, silently changing dispatch order. Checked with and without
// bad-sector remaps (a remap relocates an LBA to zone spare space, possibly
// on another cylinder) and after a rotation re-estimate (which moves the
// per-slot transfer floor).
TEST_P(TimingProperty, LowerBoundsNeverExceedPlanTotal) {
  for (int round = 0; round < 3; ++round) {
    if (round == 1) {
      for (int i = 0; i < 100; ++i) {
        layout_.AddBadSector(rng_.UniformU64(layout_.num_data_sectors()));
      }
    } else if (round == 2) {
      model_.set_rotation_us(model_.rotation_us() * 1.0013);
      model_.set_spindle_phase_us(41.9);
    }
    for (int i = 0; i < 4000; ++i) {
      const HeadState head = RandomHead();
      const double start = rng_.UniformDouble(0, 1e9);
      const uint32_t sectors = 1 + static_cast<uint32_t>(rng_.UniformU64(64));
      const uint64_t lba =
          rng_.UniformU64(layout_.num_data_sectors() - sectors);
      const bool is_write = rng_.Bernoulli(0.5);
      const AccessPlan p = model_.Plan(head, start, lba, sectors, is_write);
      ASSERT_LE(ReferenceBoundUs(model_, head, start, lba, sectors, is_write),
                p.total_us)
          << "round=" << round << " lba=" << lba << " sectors=" << sectors
          << " start=" << start;
    }
  }
}

// The fused bound+plan pass (what every SATF-class pick runs) is exact: for
// any prune threshold — including thresholds one ulp either side of the
// bound — it prunes exactly when the reference bound says to, and otherwise
// returns Plan() field for field. Checked with positions resolved ahead of
// time and with none, across remap loads (positions resolved before the
// first remap must be refused after it) and rotation refreshes (which move
// the slot floor and the catch tolerance), and on multi-run accesses that
// cross tracks.
TEST_P(TimingProperty, FusedEvaluateMatchesBoundAndPlanExactly) {
  std::vector<ResolvedPosition> early_hints;
  std::vector<uint64_t> early_lbas;
  for (int round = 0; round < 4; ++round) {
    if (round == 1) {
      model_.set_rotation_us(model_.rotation_us() * 0.9987);
      model_.set_spindle_phase_us(12.5);
    } else if (round == 2) {
      for (int i = 0; i < 200; ++i) {
        layout_.AddBadSector(rng_.UniformU64(layout_.num_data_sectors()));
      }
      // Remap some of the very LBAs whose positions were resolved earlier.
      for (size_t i = 0; i < early_lbas.size(); i += 7) {
        layout_.AddBadSector(early_lbas[i]);
      }
    } else if (round == 3) {
      model_.set_rotation_us(model_.rotation_us() * 1.0021);
    }
    for (int i = 0; i < 3000; ++i) {
      const HeadState head = RandomHead();
      const double start = rng_.UniformDouble(0, 1e9);
      // Up to ~2.5 tracks of the widest zone: many accesses split into runs.
      const uint32_t sectors = 1 + static_cast<uint32_t>(rng_.UniformU64(
                                       2 * geo_.zones.front().sectors_per_track +
                                       64));
      uint64_t lba;
      ResolvedPosition hint;
      if (round > 0 && i % 2 == 0 && !early_lbas.empty()) {
        const size_t k = rng_.UniformU64(early_lbas.size());
        lba = early_lbas[k];
        hint = early_hints[k];
      } else {
        lba = rng_.UniformU64(layout_.num_data_sectors() - 600);
        if (i % 3 != 0) {
          hint = layout_.Resolve(lba);
        }
        if (round == 0) {
          early_lbas.push_back(lba);
          early_hints.push_back(layout_.Resolve(lba));
        }
      }
      const bool is_write = rng_.Bernoulli(0.5);
      const AccessPlan plan = model_.Plan(head, start, lba, sectors, is_write);
      const double bound =
          ReferenceBoundUs(model_, head, start, lba, sectors, is_write);
      const double offset = i % 4 == 0 ? 137.25 : 0.0;
      const double credit = i % 5 == 0 ? rng_.UniformDouble(0, 5000) : 0.0;
      const double edge = bound + offset - credit;
      for (const double above :
           {std::numeric_limits<double>::infinity(), edge,
            std::nextafter(edge, -std::numeric_limits<double>::infinity()),
            std::nextafter(edge, std::numeric_limits<double>::infinity()),
            edge - 250.0, plan.total_us}) {
        const std::optional<AccessPlan> fused = model_.Evaluate(
            head, start, lba, hint, sectors, is_write, offset,
            PruneBar{above, credit});
        const bool pruned = bound + offset - credit > above;
        ASSERT_EQ(fused.has_value(), !pruned)
            << "round=" << round << " lba=" << lba << " above=" << above;
        if (fused.has_value()) {
          ASSERT_TRUE(*fused == plan)
              << "round=" << round << " lba=" << lba << " sectors=" << sectors
              << " total " << fused->total_us << " vs " << plan.total_us;
        }
      }
    }
  }
}

// A hint tagged with another layout (a promoted spare's, a rerouted entry's)
// is never trusted, even when it names a different position.
TEST_P(TimingProperty, EvaluateIgnoresHintsFromAnotherLayout) {
  DiskLayout other(&geo_);
  for (int i = 0; i < 500; ++i) {
    const HeadState head = RandomHead();
    const double start = rng_.UniformDouble(0, 1e8);
    const uint64_t lba = rng_.UniformU64(layout_.num_data_sectors() - 8);
    const uint64_t elsewhere = rng_.UniformU64(other.num_data_sectors() - 8);
    const ResolvedPosition foreign = other.Resolve(elsewhere);
    ASSERT_FALSE(layout_.Current(foreign));
    const std::optional<AccessPlan> fused =
        model_.Evaluate(head, start, lba, foreign, 8, false, 0.0, PruneBar{});
    ASSERT_TRUE(fused.has_value());
    ASSERT_TRUE(*fused == model_.Plan(head, start, lba, 8, false));
  }
}

// set_rotation_us refreshes everything derived from the period: a model
// re-estimated to R must time rotations exactly like one built at R.
TEST_P(TimingProperty, RotationRefreshMatchesFreshModel) {
  const double old_rotation = model_.rotation_us();
  const double rotation = old_rotation * 1.00037;
  model_.set_rotation_us(rotation);
  const DiskTimingModel fresh(&layout_, profile_, /*phase=*/777.0, rotation);
  EXPECT_EQ(model_.MinSlotTimeUs(), fresh.MinSlotTimeUs());
  // Remaining rotation (as a fraction) to a target just past the head: well
  // inside the catch tolerance, and between the old and the new tolerance,
  // where only a refreshed 2 / R gives the fresh model's answer.
  const double just_past = 1.5 / rotation;
  const double between = 1.0 / old_rotation + 1.0 / rotation;
  for (int i = 0; i < 3000; ++i) {
    const double t = rng_.UniformDouble(0, 1e9);
    double angle = rng_.UniformDouble(0, 1);
    if (i % 3 != 0) {
      angle = std::fmod(fresh.SpindleAngleAt(t) + 1.0 -
                            (i % 3 == 1 ? just_past : between),
                        1.0);
    }
    ASSERT_EQ(model_.TimeUntilAngle(t, angle), fresh.TimeUntilAngle(t, angle))
        << "t=" << t << " angle=" << angle;
  }
}

TEST_P(TimingProperty, MinSlotTimeTracksRotationRefresh) {
  const double before = model_.MinSlotTimeUs();
  model_.set_rotation_us(model_.rotation_us() * 0.5);
  EXPECT_DOUBLE_EQ(model_.MinSlotTimeUs(), before * 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TimingProperty,
    ::testing::Values(std::tuple{Geo::kTest, 1}, std::tuple{Geo::kTest, 2},
                      std::tuple{Geo::kSt39133, 3},
                      std::tuple{Geo::kSt39133, 4}),
    [](const auto& suite_info) {
      return std::string(std::get<0>(suite_info.param) == Geo::kTest ? "Test"
                                                               : "St39133") +
             "_seed" + std::to_string(std::get<1>(suite_info.param));
    });

}  // namespace
}  // namespace mimdraid

// Mechanical timing model for a zoned disk.
//
// Given a head state and a start time, DiskTimingModel computes the full
// service timeline of an access: seek, rotational wait, and transfer
// (including track/cylinder crossings mid-transfer). The same model is used
// in two roles:
//   * inside SimDisk with the drive's *true* spindle phase — this is the
//     ground truth the simulator executes;
//   * inside the calibration layer with an *estimated* phase and extracted
//     parameters — this is the paper's software head-position predictor.
// Sharing the math guarantees that prediction error comes only from estimate
// error and unobservable noise, as on a real drive.
#ifndef MIMDRAID_SRC_DISK_TIMING_H_
#define MIMDRAID_SRC_DISK_TIMING_H_

#include <cstdint>
#include <limits>
#include <optional>

#include "src/disk/layout.h"
#include "src/disk/seek_profile.h"

namespace mimdraid {

struct HeadState {
  uint32_t cylinder = 0;
  uint32_t head = 0;

  bool operator==(const HeadState&) const = default;
};

struct AccessPlan {
  double seek_us = 0.0;        // arm movement + head switches
  double rotational_us = 0.0;  // rotational waits (all runs)
  double transfer_us = 0.0;    // media transfer
  double total_us = 0.0;
  HeadState end_state;

  bool operator==(const AccessPlan&) const = default;
};

// A scheduler's pruning threshold for one candidate: skip it when
//   (lower bound on its cost) - credit > above.
// `above` is the running best cost; `credit` is subtracted from the bound
// before the comparison (ASATF's age credit; 0 elsewhere, where the test is
// exactly bound > above).
struct PruneBar {
  double above = std::numeric_limits<double>::infinity();
  double credit = 0.0;
};

class DiskTimingModel {
 public:
  // `spindle_phase_us` is the time of a (virtual) index-mark passage: slot 0
  // of an unskewed track is under the head whenever
  // (t - spindle_phase_us) mod R == 0.
  // `rotation_us_override` replaces the nominal rotation period derived from
  // the geometry's RPM; real spindles run within a small tolerance of nominal
  // (~tens of ppm), which is why the paper's predictor must re-calibrate
  // periodically. Pass 0 to use the nominal period.
  DiskTimingModel(const DiskLayout* layout, const SeekProfile& profile,
                  double spindle_phase_us, double rotation_us_override = 0.0);

  // Timeline for accessing `sectors` sectors starting at `lba`, with the arm
  // at `from`, starting at absolute time `start_us`.
  AccessPlan Plan(const HeadState& from, double start_us, uint64_t lba,
                  uint32_t sectors, bool is_write) const;
  // The same, with `hint` standing in for the first position resolve while
  // layout().Current(hint) (a caller that already resolved `lba`).
  AccessPlan Plan(const HeadState& from, double start_us, uint64_t lba,
                  const ResolvedPosition& hint, uint32_t sectors,
                  bool is_write) const;

  // Plan(...) behind a cheap lower bound, in one pass over one candidate
  // (DESIGN.md §5). The bound on Plan(...).total_us is
  //   max(seek, rotational wait from start_us) + sectors * MinSlotTimeUs()
  // less a 1 ns rounding margin. It skips the run-splitting walk (and its
  // per-sector remap probes). Validity: Plan >= seek + wait(start+seek) +
  // transfer, and wait(start) <= seek + wait(start+seek) because the first
  // slot passage after start+seek is never earlier than the first after
  // start (the catch tolerance shifts both passages identically, so the
  // inequality survives it).
  //
  // Returns nullopt when (bound + bound_offset) - bar.credit > bar.above,
  // else exactly Plan(...). `hint` stands in for the first position resolve
  // while layout().Current(hint); the seek to it is computed once and shared
  // by the bound and the plan's first run, which runs the same
  // floating-point operations in the same order as Plan().
  std::optional<AccessPlan> Evaluate(const HeadState& from, double start_us,
                                     uint64_t lba,
                                     const ResolvedPosition& hint,
                                     uint32_t sectors, bool is_write,
                                     double bound_offset,
                                     const PruneBar& bar) const;
  // Fastest per-sector media transfer anywhere on the disk (outermost zone).
  double MinSlotTimeUs() const { return min_slot_time_us_; }

  // Fraction of a revolution [0, 1) the platter has rotated past the index
  // mark at time t.
  double SpindleAngleAt(double t_us) const;

  // Delay from t until the platter reaches `angle` (fraction in [0, 1)).
  double TimeUntilAngle(double t_us, double angle) const;

  const DiskLayout& layout() const { return *layout_; }
  const SeekProfile& seek_profile() const { return profile_; }
  double rotation_us() const { return rotation_us_; }

  double spindle_phase_us() const { return spindle_phase_us_; }
  void set_spindle_phase_us(double phase_us) { spindle_phase_us_ = phase_us; }
  // Also refreshes everything derived from the period: MinSlotTimeUs() (a
  // stale, larger floor would break the lower-bound guarantee after a
  // downward re-estimate) and TimeUntilAngle's catch tolerance.
  void set_rotation_us(double rotation_us) {
    rotation_us_ = rotation_us;
    min_slot_time_us_ = rotation_us_ / max_sectors_per_track_;
    catch_frac_ = 2.0 / rotation_us_;
  }

 private:
  // Arm travel from `from` to `cylinder`; 0 on the same cylinder (a head
  // switch is Plan's business, not the bound's).
  double SeekUs(const HeadState& from, uint32_t cylinder, bool is_write) const;
  // Plan's timeline with the first run's position and seek already known.
  AccessPlan PlanFrom(const HeadState& from, double start_us, uint64_t lba,
                      ResolvedPosition pos, double seek, uint32_t sectors,
                      bool is_write) const;

  const DiskLayout* layout_;
  SeekProfile profile_;
  double rotation_us_;
  double spindle_phase_us_;
  double min_slot_time_us_ = 0.0;
  // TimeUntilAngle's catch tolerance as a fraction of a revolution.
  double catch_frac_ = 0.0;
  uint32_t max_sectors_per_track_ = 1;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_DISK_TIMING_H_

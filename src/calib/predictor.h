// Online disk-head position prediction (Section 3.2).
//
// HeadPositionPredictor is the production AccessPredictor: it owns a
// DiskTimingModel configured with the *estimated* spindle phase and rotation
// period (from reference-sector reads) and the *extracted* seek profile, and
// tracks the arm position from the stream of dispatched requests. Because
// request overhead is unobservable, a predicted rotational wait smaller than
// the current slack is at risk of missing its sector; the slack is tuned by a
// feedback loop that targets an on-target rate above 99%, exactly as in the
// paper.
//
// OraclePredictor wraps the simulator's ground-truth timing model; it is the
// reference point for "perfect knowledge" experiments and for runs on
// noise-free disks.
#ifndef MIMDRAID_SRC_CALIB_PREDICTOR_H_
#define MIMDRAID_SRC_CALIB_PREDICTOR_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "src/calib/rotation_estimator.h"
#include "src/disk/access_predictor.h"
#include "src/disk/layout.h"
#include "src/disk/seek_profile.h"
#include "src/disk/sim_disk.h"
#include "src/disk/timing.h"
#include "src/util/summary.h"

namespace mimdraid {

struct PredictorStats {
  uint64_t predictions = 0;
  uint64_t misses = 0;  // actual exceeded prediction by more than half a rotation
  Summary error_us;     // signed completion-time error, non-miss requests
  Summary access_time_us;
  double squared_error_sum = 0.0;  // across all requests, for the demerit figure

  double MissRate() const {
    return predictions == 0
               ? 0.0
               : static_cast<double>(misses) / static_cast<double>(predictions);
  }
  // Demerit figure (Ruemmler & Wilkes): RMS of prediction error.
  double DemeritUs() const;
};

struct SlackFeedbackOptions {
  double initial_slack_us = 450.0;
  double min_slack_us = 100.0;
  double max_slack_us = 2000.0;
  double target_miss_rate = 0.01;  // paper: >99% of requests on target
  int window = 400;                // requests between adjustments
  double increase_factor = 1.4;
  double decrease_us = 25.0;
};

class HeadPositionPredictor : public AccessPredictor {
 public:
  // `lattice_phase_us` is the RotationEstimator's phase: reference-read
  // completions lie at lattice_phase + k*rotation. `reference_lba` anchors
  // the translation from lattice phase to spindle phase.
  HeadPositionPredictor(const DiskLayout* layout, const SeekProfile& profile,
                        double rotation_us, double lattice_phase_us,
                        uint64_t reference_lba,
                        const SlackFeedbackOptions& slack_options = {});

  // --- AccessPredictor ---
  AccessPlan Predict(SimTime now, BlockAddr lba, uint32_t sectors,
                     bool is_write) const override;
  double SlackUs() const override { return slack_us_; }
  double RotationUs() const override { return timing_->rotation_us(); }
  HeadState Head() const override { return head_; }
  std::optional<AccessPlan> Evaluate(SimTime now,
                                     const AccessCandidate& candidate,
                                     uint32_t sectors, bool is_write,
                                     const PruneBar& bar) const override;
  void OnDispatch(SimTime now, BlockAddr lba, uint32_t sectors, bool is_write,
                  double predicted_service_us) override;
  void OnCompletion(SimTime completion_us, BlockAddr lba,
                    uint32_t sectors) override;

  // --- Periodic re-calibration (the paper's two-minute reference reads). ---
  uint64_t reference_lba() const { return reference_lba_; }
  void AddReferenceObservation(SimTime completion_us);

  const PredictorStats& stats() const { return stats_; }
  void ResetStats() { stats_ = PredictorStats{}; }

  const DiskTimingModel& timing() const { return *timing_; }

 private:
  void RefreshModelFromEstimator();

  const DiskLayout* layout_;
  std::unique_ptr<DiskTimingModel> timing_;
  RotationEstimator estimator_;
  uint64_t reference_lba_;
  HeadState head_;

  struct Pending {
    SimTime dispatch_us;
    double predicted_service_us;
  };
  std::optional<Pending> pending_;

  PredictorStats stats_;
  SlackFeedbackOptions slack_options_;
  double slack_us_;
  uint64_t window_predictions_ = 0;
  uint64_t window_misses_ = 0;
};

// Predictor with perfect knowledge of the drive's internals. Predictions add
// the drive's mean overheads so they approximate observed completion times.
class OraclePredictor : public AccessPredictor {
 public:
  // `slack_us`: 0 suffices for noise-free disks; noisy disks still need a
  // slack covering the overhead spread.
  OraclePredictor(const SimDisk* disk, double slack_us);

  AccessPlan Predict(SimTime now, BlockAddr lba, uint32_t sectors,
                     bool is_write) const override;
  double SlackUs() const override { return slack_us_; }
  double RotationUs() const override;
  HeadState Head() const override { return disk_->DebugHeadState(); }
  // The bound mirrors Predict exactly: the mechanical timeline starts after
  // the mean pre-access overhead, and the mean overheads are folded into the
  // predicted total, so they must be folded into its lower bound too.
  std::optional<AccessPlan> Evaluate(SimTime now,
                                     const AccessCandidate& candidate,
                                     uint32_t sectors, bool is_write,
                                     const PruneBar& bar) const override;
  void OnDispatch(SimTime now, BlockAddr lba, uint32_t sectors, bool is_write,
                  double predicted_service_us) override;
  void OnCompletion(SimTime completion_us, BlockAddr lba,
                    uint32_t sectors) override;

  const PredictorStats& stats() const { return stats_; }

 private:
  const SimDisk* disk_;
  double slack_us_;
  double overhead_mean_us_;
  std::optional<std::pair<SimTime, double>> pending_;
  PredictorStats stats_;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_CALIB_PREDICTOR_H_

#include "src/calib/predictor.h"

#include <cmath>

#include "src/util/check.h"

namespace mimdraid {

double PredictorStats::DemeritUs() const {
  return predictions == 0
             ? 0.0
             : std::sqrt(squared_error_sum / static_cast<double>(predictions));
}

HeadPositionPredictor::HeadPositionPredictor(
    const DiskLayout* layout, const SeekProfile& profile, double rotation_us,
    double lattice_phase_us, uint64_t reference_lba,
    const SlackFeedbackOptions& slack_options)
    : layout_(layout),
      estimator_(rotation_us),
      reference_lba_(reference_lba),
      slack_options_(slack_options),
      slack_us_(slack_options.initial_slack_us) {
  MIMDRAID_CHECK(layout != nullptr);
  // Translate the reference-read completion lattice into a spindle phase: at
  // a lattice point the reference sector's slot has just finished passing.
  const Chs ref = layout_->ToChs(reference_lba_);
  const uint32_t spt = layout_->geometry().SectorsPerTrack(ref.cylinder);
  const double end_angle =
      static_cast<double>((layout_->SlotOf(ref) + 1) % spt) / spt;
  const double spindle_phase = lattice_phase_us - end_angle * rotation_us;
  timing_ = std::make_unique<DiskTimingModel>(layout_, profile, spindle_phase,
                                              rotation_us);
  head_.cylinder = layout_->first_data_cylinder();
  head_.head = 0;
}

AccessPlan HeadPositionPredictor::Predict(SimTime now, BlockAddr lba,
                                          uint32_t sectors,
                                          bool is_write) const {
  return timing_->Plan(head_, static_cast<double>(now.us()), lba.value(),
                       sectors, is_write);
}

std::optional<AccessPlan> HeadPositionPredictor::Evaluate(
    SimTime now, const AccessCandidate& candidate, uint32_t sectors,
    bool is_write, const PruneBar& bar) const {
  return timing_->Evaluate(head_, static_cast<double>(now.us()),
                           candidate.lba.value(), candidate.pos, sectors,
                           is_write, /*bound_offset=*/0.0, bar);
}

void HeadPositionPredictor::OnDispatch(SimTime now, BlockAddr lba,
                                       uint32_t sectors, bool is_write,
                                       double predicted_service_us) {
  (void)lba;
  (void)sectors;
  (void)is_write;
  MIMDRAID_CHECK(!pending_.has_value());
  pending_ = Pending{now, predicted_service_us};
}

void HeadPositionPredictor::OnCompletion(SimTime completion_us, BlockAddr lba,
                                         uint32_t sectors) {
  MIMDRAID_CHECK(pending_.has_value());
  const Pending p = *pending_;
  pending_.reset();

  // Arm position after the access.
  const Chs last = layout_->ToChs(lba.value() + sectors - 1);
  head_.cylinder = last.cylinder;
  head_.head = last.head;

  const double actual =
      static_cast<double>((completion_us - p.dispatch_us).us());
  const double error = actual - p.predicted_service_us;
  ++stats_.predictions;
  stats_.access_time_us.Add(actual);
  stats_.squared_error_sum += error * error;
  const bool miss = error > timing_->rotation_us() / 2.0;
  if (miss) {
    ++stats_.misses;
  } else {
    stats_.error_us.Add(error);
  }

  // Slack feedback: keep the on-target rate above (1 - target_miss_rate).
  ++window_predictions_;
  if (miss) {
    ++window_misses_;
  }
  if (window_predictions_ >= static_cast<uint64_t>(slack_options_.window)) {
    const double rate = static_cast<double>(window_misses_) /
                        static_cast<double>(window_predictions_);
    if (rate > slack_options_.target_miss_rate) {
      slack_us_ = std::min(slack_us_ * slack_options_.increase_factor,
                           slack_options_.max_slack_us);
    } else if (rate < slack_options_.target_miss_rate / 4.0) {
      slack_us_ = std::max(slack_us_ - slack_options_.decrease_us,
                           slack_options_.min_slack_us);
    }
    window_predictions_ = 0;
    window_misses_ = 0;
  }
}

void HeadPositionPredictor::AddReferenceObservation(SimTime completion_us) {
  estimator_.AddObservation(completion_us);
  estimator_.TrimTo(64);
  if (estimator_.Ready()) {
    RefreshModelFromEstimator();
  }
}

void HeadPositionPredictor::RefreshModelFromEstimator() {
  const Chs ref = layout_->ToChs(reference_lba_);
  const uint32_t spt = layout_->geometry().SectorsPerTrack(ref.cylinder);
  const double end_angle =
      static_cast<double>((layout_->SlotOf(ref) + 1) % spt) / spt;
  timing_->set_rotation_us(estimator_.rotation_us());
  timing_->set_spindle_phase_us(estimator_.phase_us() -
                                end_angle * estimator_.rotation_us());
}

OraclePredictor::OraclePredictor(const SimDisk* disk, double slack_us)
    : disk_(disk), slack_us_(slack_us) {
  MIMDRAID_CHECK(disk != nullptr);
  // With perfect phase knowledge the only systematic offsets are the mean
  // overheads; folding them in makes predictions comparable to observed
  // completion timestamps (and crucial: the mechanical access only begins
  // after the pre-access overhead, which shifts every rotational wait).
  // Peeking at the noise model is exactly the point of the oracle.
  overhead_mean_us_ =
      disk->noise().overhead_mean_us + disk->noise().post_overhead_mean_us;
}

AccessPlan OraclePredictor::Predict(SimTime now, BlockAddr lba,
                                    uint32_t sectors, bool is_write) const {
  const double pre = disk_->noise().overhead_mean_us;
  AccessPlan plan = disk_->DebugTimingModel().Plan(
      disk_->DebugHeadState(), static_cast<double>(now.us()) + pre,
      lba.value(), sectors, is_write);
  plan.total_us += overhead_mean_us_;
  return plan;
}

double OraclePredictor::RotationUs() const {
  return disk_->DebugTimingModel().rotation_us();
}

std::optional<AccessPlan> OraclePredictor::Evaluate(
    SimTime now, const AccessCandidate& candidate, uint32_t sectors,
    bool is_write, const PruneBar& bar) const {
  const double pre = disk_->noise().overhead_mean_us;
  std::optional<AccessPlan> plan = disk_->DebugTimingModel().Evaluate(
      disk_->DebugHeadState(), static_cast<double>(now.us()) + pre,
      candidate.lba.value(), candidate.pos, sectors, is_write,
      overhead_mean_us_, bar);
  if (plan.has_value()) {
    plan->total_us += overhead_mean_us_;
  }
  return plan;
}

void OraclePredictor::OnDispatch(SimTime now, BlockAddr lba, uint32_t sectors,
                                 bool is_write, double predicted_service_us) {
  (void)lba;
  (void)sectors;
  (void)is_write;
  MIMDRAID_CHECK(!pending_.has_value());
  pending_ = {now, predicted_service_us};
}

void OraclePredictor::OnCompletion(SimTime completion_us, BlockAddr lba,
                                   uint32_t sectors) {
  (void)lba;
  (void)sectors;
  MIMDRAID_CHECK(pending_.has_value());
  const auto [dispatch, predicted] = *pending_;
  pending_.reset();
  const double actual = static_cast<double>((completion_us - dispatch).us());
  const double error = actual - predicted;
  ++stats_.predictions;
  stats_.access_time_us.Add(actual);
  stats_.squared_error_sum += error * error;
  if (error > RotationUs() / 2.0) {
    ++stats_.misses;
  } else {
    stats_.error_us.Add(error);
  }
}

}  // namespace mimdraid

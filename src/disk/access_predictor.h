// Interface between position-sensitive schedulers and the head-position
// prediction machinery.
//
// Schedulers (SATF, RLOOK, RSATF, and the mirror read heuristic) rank
// candidate physical accesses by predicted positioning time. The production
// implementation is calib::HeadPositionPredictor, which works purely from
// observed completion timestamps (Section 3.2 of the paper); tests and oracle
// experiments can substitute a predictor wrapping the simulator's ground
// truth.
#ifndef MIMDRAID_SRC_DISK_ACCESS_PREDICTOR_H_
#define MIMDRAID_SRC_DISK_ACCESS_PREDICTOR_H_

#include <cstdint>
#include <optional>

#include "src/disk/layout.h"
#include "src/disk/timing.h"
#include "src/util/strong_types.h"
#include "src/util/time.h"

namespace mimdraid {

// One physical access a queued request may be served by: the LBA and, once
// the drive pool has queued it, the LBA's position on the slot's layout. The
// position is only a hint — consumers use it while layout.Current(pos) and
// resolve from the LBA otherwise.
struct AccessCandidate {
  AccessCandidate() = default;
  // An unresolved candidate.
  AccessCandidate(BlockAddr addr)  // NOLINT(google-explicit-constructor)
      : lba(addr) {}

  BlockAddr lba;
  ResolvedPosition pos;
};

class AccessPredictor {
 public:
  virtual ~AccessPredictor() = default;

  // Predicted access timeline if the op were dispatched now on the idle disk,
  // assuming zero request overhead (overhead shows up only as rotational
  // misses, which the slack mechanism guards against). Must not mutate
  // tracking state.
  virtual AccessPlan Predict(SimTime now, BlockAddr lba, uint32_t sectors,
                             bool is_write) const = 0;

  // The slack (Section 3.2): a predicted rotational wait below this value is
  // at risk of missing its sector because of unobservable request overhead;
  // the scheduler conservatively treats such a candidate as costing a full
  // extra rotation.
  virtual double SlackUs() const = 0;

  // Full rotation time (per the predictor's estimate).
  virtual double RotationUs() const = 0;

  // The predictor's belief about the current arm position.
  virtual HeadState Head() const = 0;

  // The scheduler's scoring entry point: Predict(now, candidate.lba, ...)
  // unless a cheap lower bound on its total_us — max(seek to the candidate's
  // cylinder, rotational wait from `now`) plus the minimum media transfer —
  // clears `bar` (bound - bar.credit > bar.above), in which case nullopt.
  // A scheduler passes its running best cost as bar.above: EffectiveServiceUs
  // only ever adds to total_us, so a total_us bound also bounds the effective
  // cost. Must return exactly what Predict returns whenever it does not
  // prune, and must not mutate tracking state.
  virtual std::optional<AccessPlan> Evaluate(SimTime now,
                                             const AccessCandidate& candidate,
                                             uint32_t sectors, bool is_write,
                                             const PruneBar& bar) const = 0;

  // Called when a request is dispatched to the (idle) disk.
  virtual void OnDispatch(SimTime now, BlockAddr lba, uint32_t sectors,
                          bool is_write, double predicted_service_us) = 0;

  // Called when the in-flight request completes. The predictor updates its
  // head estimate and prediction-accuracy statistics.
  virtual void OnCompletion(SimTime completion_us, BlockAddr lba,
                            uint32_t sectors) = 0;

  // Service-time estimate with the slack policy applied: a first rotational
  // wait below slack is assumed to wrap a full rotation.
  double EffectiveServiceUs(const AccessPlan& plan) const {
    double t = plan.total_us;
    if (plan.rotational_us < SlackUs()) {
      t += RotationUs();
    }
    return t;
  }
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_DISK_ACCESS_PREDICTOR_H_

// Rotational-position-sensitive schedulers: SATF, RSATF, ASATF, RLOOK.
//
// SATF (Shortest Access Time First, Jacobson & Wilkes / Seltzer et al.) picks
// the request with the smallest predicted positioning time (seek + rotation).
// The paper's extensions consider rotational replicas: RLOOK keeps the LOOK
// sweep in the seek dimension but picks the rotationally closest replica of
// the chosen request; RSATF minimizes predicted access time over every
// replica of every queued request (Section 2.4).
//
// The four are one access-time rule over different candidate sets, and they
// share one scoring loop: SATF scores each entry's primary copy, RSATF every
// replica, ASATF every replica less an age credit, and RLOOK every replica
// of the one entry LOOK chose.
//
// All of them apply the predictor's slack: a candidate whose predicted
// rotational wait is below the slack is charged a full extra rotation, which
// is what keeps the on-target rate above 99% despite unobservable request
// overhead (Section 3.2).
#ifndef MIMDRAID_SRC_SCHED_POSITIONAL_SCHEDULERS_H_
#define MIMDRAID_SRC_SCHED_POSITIONAL_SCHEDULERS_H_

#include "src/sched/basic_schedulers.h"
#include "src/sched/scheduler.h"

namespace mimdraid {

// SATF, RSATF and ASATF: the access-time scan over the first `max_scan`
// queue entries (0 = the whole queue).
class AccessTimeScheduler : public Scheduler {
 public:
  SchedulerPick Pick(const std::vector<QueuedRequest>& queue,
                     const ScheduleContext& ctx) override;

 protected:
  AccessTimeScheduler(size_t max_scan, bool every_replica, double age_weight)
      : max_scan_(max_scan),
        every_replica_(every_replica),
        age_weight_(age_weight) {}

 private:
  size_t max_scan_;
  bool every_replica_;
  double age_weight_;
};

// SATF proper is replica-oblivious: it scores each entry's primary copy.
class SatfScheduler : public AccessTimeScheduler {
 public:
  explicit SatfScheduler(size_t max_scan = 0)
      : AccessTimeScheduler(max_scan, /*every_replica=*/false, 0.0) {}
  std::string name() const override { return "SATF"; }
};

class RsatfScheduler : public AccessTimeScheduler {
 public:
  explicit RsatfScheduler(size_t max_scan = 0)
      : AccessTimeScheduler(max_scan, /*every_replica=*/true, 0.0) {}
  std::string name() const override { return "RSATF"; }
};

// Aged SATF: SATF with a starvation control. A request's cost is its
// predicted (slack-adjusted) access time minus an age credit that grows while
// it waits, so a far request cannot be bypassed forever by a stream of
// nearby arrivals — SATF's classic weakness (noted by Jacobson & Wilkes and
// Seltzer et al.). age_weight is the microseconds of predicted access time
// one microsecond of waiting is worth; 0 degenerates to RSATF.
// Replica-aware like RSATF (evaluates every candidate).
class AsatfScheduler : public AccessTimeScheduler {
 public:
  explicit AsatfScheduler(size_t max_scan = 0, double age_weight = 0.1)
      : AccessTimeScheduler(max_scan, /*every_replica=*/true, age_weight) {}
  std::string name() const override { return "ASATF"; }
};

class RlookScheduler : public LookScheduler {
 public:
  SchedulerPick Pick(const std::vector<QueuedRequest>& queue,
                     const ScheduleContext& ctx) override;
  std::string name() const override { return "RLOOK"; }
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_SCHED_POSITIONAL_SCHEDULERS_H_

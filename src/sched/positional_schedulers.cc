#include "src/sched/positional_schedulers.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "src/obs/trace_collector.h"
#include "src/util/check.h"

namespace mimdraid {
namespace {

struct CandidateCost {
  // Ranking cost: slack-adjusted (a risky rotational wait is charged a full
  // extra rotation).
  double effective_us = 0.0;
  // Raw predicted service time, reported as the dispatch prediction; if the
  // request then misses its rotation, the error surfaces as a miss and feeds
  // the slack loop.
  double predicted_us = 0.0;
};

// One predictor pass per candidate: nullopt when the candidate's cost bound
// clears `bar`, its cost otherwise.
std::optional<CandidateCost> CostOf(const ScheduleContext& ctx,
                                    const QueuedRequest& req,
                                    const AccessCandidate& candidate,
                                    const PruneBar& bar) {
  const std::optional<AccessPlan> plan = ctx.predictor->Evaluate(
      ctx.now, candidate, req.sectors, req.op == DiskOp::kWrite, bar);
  if (!plan.has_value()) {
    return std::nullopt;
  }
  return CandidateCost{ctx.predictor->EffectiveServiceUs(*plan),
                       plan->total_us};
}

// The SATF family's one scoring loop over queue[begin, end): each entry's
// every replica when kEveryReplica, else its primary copy only. A
// candidate's cost is its slack-adjusted predicted access time less, when
// kAged (ASATF), an age credit of `age_weight` per microsecond the entry has
// waited. Without kAged the credit is exactly 0.0 and the cost is the access
// time; the two flags are template parameters so SATF and RSATF pay nothing
// for ASATF's credit.
//
// Pruning must be *exact*: the figure goldens lock the chosen requests byte
// for byte, so a candidate may be skipped only when it provably cannot change
// the outcome. Comparisons against the running best use strict `<` ("first
// strictly smaller wins"), so a candidate whose cost lower bound exceeds the
// current best can neither win nor retie; skipping its full prediction
// leaves the scan's result bit-identical. The scan order itself is never
// changed. The bound and the prediction come from one
// AccessPredictor::Evaluate call, which prunes against the running best
// passed in as the PruneBar (aged >= bound - credit, so a bound beaten by the
// best even after the credit cannot win). The bound is taken per replica,
// not once per entry: replicas normally share a cylinder, but a
// latent-bad-sector remap can move one to spare space on a different
// cylinder, so no single seek bound covers the candidate list.
template <bool kEveryReplica, bool kAged>
SchedulerPick ScanByAccessTime(const std::vector<QueuedRequest>& queue,
                               size_t begin, size_t end, double age_weight,
                               const ScheduleContext& ctx) {
  MIMDRAID_CHECK_LT(begin, end);
  MIMDRAID_CHECK(ctx.predictor != nullptr);
  size_t best = begin;
  BlockAddr best_lba = queue[begin].candidates.front().lba;
  double best_cost = std::numeric_limits<double>::infinity();
  double best_predicted_us = 0.0;
  uint64_t examined = 0;
  for (size_t i = begin; i < end; ++i) {
    const QueuedRequest& req = queue[i];
    const double age_credit =
        kAged ? age_weight *
                    static_cast<double>((ctx.now - req.arrival_us).us())
              : 0.0;
    const size_t replicas = kEveryReplica ? req.candidates.size() : 1;
    for (size_t r = 0; r < replicas; ++r) {
      const AccessCandidate& candidate = req.candidates[r];
      const std::optional<CandidateCost> cost =
          CostOf(ctx, req, candidate, PruneBar{best_cost, age_credit});
      if (!cost.has_value()) {
        continue;
      }
      ++examined;
      const double aged = cost->effective_us - age_credit;
      if (aged < best_cost) {
        best_cost = aged;
        best_predicted_us = cost->predicted_us;
        best = i;
        best_lba = candidate.lba;
      }
    }
  }
  if (ctx.collector != nullptr) {
    ctx.collector->OnSchedulerScan(ctx.disk.value(), examined);
  }
  return SchedulerPick{best, best_lba, best_predicted_us};
}

}  // namespace

SchedulerPick AccessTimeScheduler::Pick(const std::vector<QueuedRequest>& queue,
                                        const ScheduleContext& ctx) {
  const size_t scan = max_scan_ == 0 ? queue.size()
                                     : std::min(max_scan_, queue.size());
  if (!every_replica_) {  // SATF
    return ScanByAccessTime<false, false>(queue, 0, scan, 0.0, ctx);
  }
  if (age_weight_ == 0.0) {
    return ScanByAccessTime<true, false>(queue, 0, scan, 0.0, ctx);
  }
  return ScanByAccessTime<true, true>(queue, 0, scan, age_weight_, ctx);
}

SchedulerPick RlookScheduler::Pick(const std::vector<QueuedRequest>& queue,
                                   const ScheduleContext& ctx) {
  // LOOK chooses the request (all replicas of an entry share a cylinder);
  // the rotationally closest replica is then taken.
  const size_t i = PickIndex(queue, ctx);
  return ScanByAccessTime<true, false>(queue, i, i + 1, 0.0, ctx);
}

}  // namespace mimdraid

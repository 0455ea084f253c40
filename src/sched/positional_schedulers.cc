#include "src/sched/positional_schedulers.h"

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

}  // namespace

// Pruning in the Pick loops below must be *exact*: the figure goldens lock
// the chosen requests byte for byte, so a candidate may be skipped only when
// it provably cannot change the outcome. All comparisons against the running
// best use strict `<` ("first strictly smaller wins"), so a candidate whose
// cost lower bound exceeds the current best can neither win nor retie —
// skipping its full prediction leaves the scan's result bit-identical. The
// scan order itself is never reordered. The bound and the prediction come
// from one AccessPredictor::Evaluate call, which prunes against the running
// best passed in as the PruneBar.

SchedulerPick SatfScheduler::Pick(const std::vector<QueuedRequest>& queue,
                                  const ScheduleContext& ctx) {
  MIMDRAID_CHECK(!queue.empty());
  MIMDRAID_CHECK(ctx.predictor != nullptr);
  const size_t scan = max_scan_ == 0 ? queue.size()
                                     : std::min(max_scan_, queue.size());
  size_t best = 0;
  CandidateCost best_cost{std::numeric_limits<double>::infinity(), 0.0};
  uint64_t examined = 0;
  for (size_t i = 0; i < scan; ++i) {
    // SATF proper is replica-oblivious: it evaluates the primary copy only.
    const QueuedRequest& req = queue[i];
    const std::optional<CandidateCost> cost =
        CostOf(ctx, req, req.candidates.front(),
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
  if (ctx.collector != nullptr) {
    ctx.collector->OnSchedulerScan(ctx.disk.value(), examined);
  }
  return SchedulerPick{best, queue[best].candidates.front().lba,
                       best_cost.predicted_us};
}

SchedulerPick RsatfScheduler::Pick(const std::vector<QueuedRequest>& queue,
                                   const ScheduleContext& ctx) {
  MIMDRAID_CHECK(!queue.empty());
  MIMDRAID_CHECK(ctx.predictor != nullptr);
  const size_t scan = max_scan_ == 0 ? queue.size()
                                     : std::min(max_scan_, queue.size());
  size_t best = 0;
  BlockAddr best_lba = queue[0].candidates.front().lba;
  CandidateCost best_cost{std::numeric_limits<double>::infinity(), 0.0};
  uint64_t examined = 0;
  for (size_t i = 0; i < scan; ++i) {
    const QueuedRequest& req = queue[i];
    // The bound must be evaluated per replica, not once per entry: replicas
    // normally share a cylinder, but a latent-bad-sector remap can move one
    // to spare space on a different cylinder, so no single seek bound covers
    // the candidate list.
    for (const AccessCandidate& candidate : req.candidates) {
      const std::optional<CandidateCost> cost =
          CostOf(ctx, req, candidate, PruneBar{best_cost.effective_us});
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
  if (ctx.collector != nullptr) {
    ctx.collector->OnSchedulerScan(ctx.disk.value(), examined);
  }
  return SchedulerPick{best, best_lba, best_cost.predicted_us};
}

SchedulerPick AsatfScheduler::Pick(const std::vector<QueuedRequest>& queue,
                                   const ScheduleContext& ctx) {
  MIMDRAID_CHECK(!queue.empty());
  MIMDRAID_CHECK(ctx.predictor != nullptr);
  const size_t scan = max_scan_ == 0 ? queue.size()
                                     : std::min(max_scan_, queue.size());
  size_t best = 0;
  BlockAddr best_lba = queue[0].candidates.front().lba;
  double best_aged = std::numeric_limits<double>::infinity();
  CandidateCost best_cost{0.0, 0.0};
  uint64_t examined = 0;
  for (size_t i = 0; i < scan; ++i) {
    const QueuedRequest& req = queue[i];
    const double age_credit =
        age_weight_ * static_cast<double>((ctx.now - req.arrival_us).us());
    // Aged-cost analogue of the RSATF prune: aged >= bound - age_credit, so
    // a bound beaten by best_aged even after the credit cannot win the scan.
    for (const AccessCandidate& candidate : req.candidates) {
      const std::optional<CandidateCost> cost =
          CostOf(ctx, req, candidate, PruneBar{best_aged, age_credit});
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
  if (ctx.collector != nullptr) {
    ctx.collector->OnSchedulerScan(ctx.disk.value(), examined);
  }
  return SchedulerPick{best, best_lba, best_cost.predicted_us};
}

SchedulerPick RlookScheduler::Pick(const std::vector<QueuedRequest>& queue,
                                   const ScheduleContext& ctx) {
  MIMDRAID_CHECK(ctx.predictor != nullptr);
  // LOOK chooses the request (all replicas of an entry share a cylinder);
  // the rotationally closest replica is then taken.
  const size_t i = PickIndex(queue, ctx);
  const QueuedRequest& req = queue[i];
  BlockAddr best_lba = req.candidates.front().lba;
  CandidateCost best_cost{std::numeric_limits<double>::infinity(), 0.0};
  uint64_t examined = 0;
  for (const AccessCandidate& candidate : req.candidates) {
    const std::optional<CandidateCost> cost =
        CostOf(ctx, req, candidate, PruneBar{best_cost.effective_us});
    if (!cost.has_value()) {
      continue;
    }
    ++examined;
    if (cost->effective_us < best_cost.effective_us) {
      best_cost = *cost;
      best_lba = candidate.lba;
    }
  }
  if (ctx.collector != nullptr) {
    ctx.collector->OnSchedulerScan(ctx.disk.value(), examined);
  }
  return SchedulerPick{i, best_lba, best_cost.predicted_us};
}

}  // namespace mimdraid

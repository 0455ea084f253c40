// Metric arithmetic of the repository benchmark, kept free of simulator
// types so perfbench_selftest can pin it on hand-made inputs.
#ifndef MIMDRAID_PERFBENCH_METRICS_H_
#define MIMDRAID_PERFBENCH_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

// Samples lying strictly above the (1 - 10^-nines) quantile of `n` samples,
// with the quantile taken the way LatencyRecorder::PercentileUs takes it
// (linear interpolation at position q * (n - 1)): ceil((n - 1) / 10^nines).
inline uint64_t TailSamples(uint64_t n, int nines) {
  if (n == 0) {
    return 0;
  }
  uint64_t scale = 1;
  for (int i = 0; i < nines; ++i) {
    scale *= 10;
  }
  return (n - 1 + scale - 1) / scale;
}

// The highest percentile of the form 1 - 10^-k (k >= 1: p90, p99, p99.9, ...)
// that still has at least `min_tail` samples beyond it, as its k; 0 when not
// even p90 does.
inline int HighestNinesWithTail(uint64_t n, uint64_t min_tail) {
  int nines = 0;
  while (nines < 18 && TailSamples(n, nines + 1) >= min_tail) {
    ++nines;
  }
  return nines;
}

// One step of an offered-rate ladder.
struct RungRate {
  double offered_iops = 0.0;  // offered I/O per simulated second
  double mean_ms = 0.0;       // simulated mean response time
  bool saturated = false;     // the outstanding cap tripped
};

// Figure 10's sustainable rate: the offered rate of the highest rung whose
// mean response time is within `limit_ms` and that did not saturate.
// nullopt when no rung qualifies.
inline std::optional<double> MaxSustainableRate(
    const std::vector<RungRate>& rungs, double limit_ms) {
  std::optional<double> best;
  for (const RungRate& r : rungs) {
    if (!r.saturated && r.mean_ms <= limit_ms &&
        (!best.has_value() || r.offered_iops > *best)) {
      best = r.offered_iops;
    }
  }
  return best;
}

// Median of a sample (mean of the middle pair for even sizes); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

}  // namespace perfbench

#endif  // MIMDRAID_PERFBENCH_METRICS_H_

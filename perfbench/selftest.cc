// Self-test of the benchmark's metric arithmetic (perfbench/metrics.h).
// Exits non-zero if any check fails; run.py runs it before every workload.
#include <cstdio>
#include <cstdlib>

#include "perfbench/metrics.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_selftest: FAILED %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using namespace perfbench;

  // Tail counts follow PercentileUs' interpolation position q * (n - 1).
  Expect(TailSamples(0, 3) == 0, "no samples, no tail");
  Expect(TailSamples(1, 1) == 0, "one sample has nothing beyond p90");
  Expect(TailSamples(10'000, 3) == 10, "10000 samples: 10 beyond p99.9");
  Expect(TailSamples(9'001, 3) == 9, "9001 samples: 9 beyond p99.9");
  Expect(TailSamples(9'002, 3) == 10, "9002 samples: 10 beyond p99.9");
  Expect(TailSamples(101, 1) == 10, "101 samples: 10 beyond p90");

  // The highest percentile with at least ten samples beyond it.
  Expect(HighestNinesWithTail(0, 10) == 0, "empty sample has none");
  Expect(HighestNinesWithTail(91, 10) == 0, "91 samples: 9 beyond p90");
  Expect(HighestNinesWithTail(100, 10) == 1, "100 samples: p90");
  Expect(HighestNinesWithTail(9'001, 10) == 2, "9001 samples: p99");
  Expect(HighestNinesWithTail(10'000, 10) == 3, "10000 samples: p99.9");
  Expect(HighestNinesWithTail(100'000, 10) == 4, "100000 samples: p99.99");
  Expect(HighestNinesWithTail(100'001, 10) == 4, "100001 samples: p99.99");

  // Figure 10's sustainable rate.
  const double limit = 15.0;
  Expect(!MaxSustainableRate({}, limit).has_value(), "empty ladder");
  Expect(MaxSustainableRate({{100, 9.3, false}, {200, 12.1, false},
                             {300, 16.4, false}},
                            limit) == 200.0,
         "highest rung within the limit");
  Expect(MaxSustainableRate({{100, 9.3, false}, {200, 15.0, false}}, limit) ==
             200.0,
         "the limit itself qualifies");
  Expect(MaxSustainableRate({{100, 9.3, false}, {200, 3.0, true}}, limit) ==
             100.0,
         "a saturated rung never qualifies, however low its mean");
  Expect(MaxSustainableRate({{300, 8.0, false}, {100, 20.0, false}}, limit) ==
             300.0,
         "rung order does not matter");
  Expect(!MaxSustainableRate({{100, 15.5, false}, {200, 2.0, true}}, limit)
              .has_value(),
         "no rung qualifies");

  Expect(Median({}) == 0.0, "median of none");
  Expect(Median({3.0}) == 3.0, "median of one");
  Expect(Median({4.0, 1.0, 2.0}) == 2.0, "median of three");
  Expect(Median({4.0, 1.0, 2.0, 3.0}) == 2.5, "median of four");

  if (failures == 0) {
    std::printf("perfbench_selftest: ok\n");
  }
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}

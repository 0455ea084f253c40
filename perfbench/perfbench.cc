// The repository benchmark: one workload per process, on one thread.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Drives the public API from outside: GenerateSyntheticTrace, the MimdRaid
// constructor, TracePlayer / ClosedLoopDriver fed a SubmitFn that wraps
// MimdRaid::Submitter(), Simulator::events_fired(), TraceCollector,
// InvariantAuditor and ArrayBackend::ExportStats.
//
// --trace 0 repeats the whole workload (set-up, then every rung on a fresh
// array) for --seconds and reports the end-to-end metrics: host time as
// medians over the repetitions, simulated metrics from the reference rung,
// which must repeat bit for bit. --trace 1 runs the reference rung untraced
// and then traced (collector, auditor, host spans) and reports the per-layer
// metrics. Either way every correctness gate runs; the last stdout line is a
// JSON object {correct, attempted, failed, metrics}. Exit 1 when a gate
// failed, 2 on bad arguments. See perfbench/README.md.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/metrics.h"
#include "src/core/mimd_raid.h"
#include "src/obs/stats_registry.h"
#include "src/obs/trace_collector.h"
#include "src/sim/auditor.h"
#include "src/workload/drivers.h"
#include "src/workload/synthetic.h"

namespace perfbench {
namespace {

using mimdraid::ArrayAspect;
using mimdraid::ArrayBackendKind;
using mimdraid::ClosedLoopDriver;
using mimdraid::ClosedLoopOptions;
using mimdraid::DiskOp;
using mimdraid::InvariantAuditor;
using mimdraid::IoDoneFn;
using mimdraid::MimdRaid;
using mimdraid::MimdRaidOptions;
using mimdraid::RunResult;
using mimdraid::SchedulerKind;
using mimdraid::StatsRegistry;
using mimdraid::SubmitFn;
using mimdraid::SyntheticTraceParams;
using mimdraid::Trace;
using mimdraid::TraceCollector;
using mimdraid::TracePlayer;
using mimdraid::TracePlayerOptions;

using Clock = std::chrono::steady_clock;

// CPU time of the benchmark thread. Host costs are measured in it: unlike
// wall time it does not count time the thread waits for a CPU on a shared
// machine.
struct CpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;
  static time_point now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return time_point(duration(ts.tv_sec * 1'000'000'000LL + ts.tv_nsec));
  }
};

template <typename C>
double SecondsSince(typename C::time_point t0) {
  return std::chrono::duration<double>(C::now() - t0).count();
}

constexpr double kLatencyLimitMs = 15.0;  // Figure 10's response-time budget
constexpr size_t kMaxOutstanding = 2500;   // Figure 10's saturation cap
constexpr uint64_t kArraySeed = 42;        // the figure benches' array seed
constexpr uint64_t kMinTailSamples = 10;
constexpr int kP999Nines = 3;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  // Open loop: a synthetic trace replayed at each rate scale. Closed loop
  // (trace_params == nullptr): one rung of `closed` at its concurrency.
  SyntheticTraceParams (*trace_params)(double duration_s, uint64_t seed);
  double trace_duration_s;
  uint64_t trace_seed;  // the figure benches' seed; --seed is added to it
  std::vector<double> scales;
  size_t reference_rung;
  ClosedLoopOptions closed;  // seed field: the figure benches' seed
  // Array.
  ArrayBackendKind backend;
  ArrayAspect aspect;
  uint32_t parity_shards;
  SchedulerKind scheduler;
  size_t max_scan;

  bool open_loop() const { return trace_params != nullptr; }
};

ArrayAspect Aspect(int ds, int dr, int dm) {
  ArrayAspect a;
  a.ds = ds;
  a.dr = dr;
  a.dm = dm;
  return a;
}

std::vector<Workload> Workloads() {
  std::vector<Workload> w;
  {
    // Figure 10(a): Cello base on the balanced 2x3x1 SR-Array.
    Workload c{};
    c.name = "cello_sr_ladder";
    c.trace_params = &mimdraid::CelloBaseParams;
    c.trace_duration_s = 36'000;
    c.trace_seed = 61;
    c.scales = {200, 300, 400};
    c.reference_rung = 1;
    c.backend = ArrayBackendKind::kMirror;
    c.aspect = Aspect(2, 3, 1);
    c.scheduler = SchedulerKind::kRsatf;
    c.max_scan = 128;
    w.push_back(c);
  }
  {
    // Figure 10(b): TPC-C on 36-way striping.
    Workload t{};
    t.name = "tpcc_stripe";
    t.trace_params = &mimdraid::TpccParams;
    t.trace_duration_s = 300;
    t.trace_seed = 62;
    t.scales = {6, 12, 15};
    t.reference_rung = 0;
    t.backend = ArrayBackendKind::kMirror;
    t.aspect = Aspect(36, 1, 1);
    t.scheduler = SchedulerKind::kSatf;
    t.max_scan = 128;
    w.push_back(t);
  }
  {
    // The bench_abl_capacity EC frontier point, write-heavy.
    Workload e{};
    e.name = "ec_rmw_closed";
    e.scales = {1};
    e.reference_rung = 0;
    e.closed.outstanding = 16;
    e.closed.read_frac = 0.3;
    e.closed.sectors = 16;  // 8 KB
    e.closed.dataset_sectors = 4'000'000;
    e.closed.warmup_ops = 300;
    e.closed.measure_ops = 200'000;
    e.closed.seed = 7;
    e.backend = ArrayBackendKind::kErasure;
    e.aspect = Aspect(6, 1, 1);
    e.parity_shards = 2;
    e.scheduler = SchedulerKind::kSatf;
    e.max_scan = 0;
    w.push_back(e);
  }
  return w;
}

// ---------------------------------------------------------------------------
// One rung: construct a fresh array, drive it, drain it, check it.
// ---------------------------------------------------------------------------

// What the benchmark attaches to one rung.
struct Probes {
  TraceCollector* collector = nullptr;
  InvariantAuditor* auditor = nullptr;
  bool time_submits = false;  // host span around every Submit call
};

struct RungOutcome {
  double scale = 0.0;
  double offered_iops = 0.0;  // closed loop: the completion rate
  uint64_t offered = 0;       // records offered / ops issued
  uint64_t submitted = 0;     // SubmitFn calls
  RunResult run;
  uint64_t events = 0;  // fired during the driver's run
  double construct_s = 0.0;
  double run_s = 0.0;       // CPU time
  double run_wall_s = 0.0;  // wall time, the clock of the Submit spans
  int64_t submit_ns = 0;
  StatsRegistry at_end;   // ExportStats when the driver returned
  StatsRegistry drained;  // ExportStats once the array went idle
  std::vector<std::string> failures;

  // Simulated metrics of this rung; must repeat bit for bit.
  double MeanMs() const { return run.latency.MeanMs(); }
  double P50Ms() const { return run.latency.PercentileUs(0.5) / 1000.0; }
  double P999Ms() const { return run.latency.PercentileUs(0.999) / 1000.0; }
  std::vector<double> SimSignature() const {
    return {MeanMs(),
            P50Ms(),
            P999Ms(),
            run.iops,
            run.mean_outstanding,
            static_cast<double>(run.completed),
            static_cast<double>(run.dropped),
            static_cast<double>(run.failed),
            static_cast<double>(run.latency.count()),
            run.saturated ? 1.0 : 0.0,
            static_cast<double>(events)};
  }
};

std::string Label(double scale) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", scale);
  return buf;
}

MimdRaidOptions ArrayOptions(const Workload& w, uint64_t seed,
                             const Trace* trace, const Probes& probes) {
  MimdRaidOptions o;
  o.backend = w.backend;
  o.aspect = w.aspect;
  o.parity_shards = w.parity_shards;
  o.scheduler = w.scheduler;
  o.max_scan = w.max_scan;
  o.dataset_sectors =
      trace != nullptr ? trace->dataset_sectors : w.closed.dataset_sectors;
  o.seed = kArraySeed + seed;
  o.collector = probes.collector;
  o.auditor = probes.auditor;
  return o;
}

RungOutcome RunRung(const Workload& w, uint64_t seed, const Trace* trace,
                    double scale, const Probes& probes) {
  RungOutcome out;
  out.scale = scale;
  const CpuClock::time_point t_construct = CpuClock::now();
  auto array =
      std::make_unique<MimdRaid>(ArrayOptions(w, seed, trace, probes));
  out.construct_s = SecondsSince<CpuClock>(t_construct);

  // The benchmark's SubmitFn: counts every call and, when asked, times it.
  SubmitFn inner = array->Submitter();
  RungOutcome* o = &out;
  const bool timed = probes.time_submits;
  SubmitFn submit = [inner, o, timed](DiskOp op, uint64_t lba,
                                      uint32_t sectors, IoDoneFn done) {
    ++o->submitted;
    if (!timed) {
      inner(op, lba, sectors, std::move(done));
      return;
    }
    const Clock::time_point t0 = Clock::now();
    inner(op, lba, sectors, std::move(done));
    o->submit_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count();
  };

  mimdraid::Simulator& sim = array->sim();
  const uint64_t events_before = sim.events_fired();
  const CpuClock::time_point t_run = CpuClock::now();
  const Clock::time_point t_run_wall = Clock::now();
  if (w.open_loop()) {
    TracePlayerOptions popt;
    popt.rate_scale = scale;
    popt.max_outstanding = kMaxOutstanding;
    popt.collector = probes.collector;
    TracePlayer player(&sim, trace, std::move(submit), popt);
    out.run = player.Run();
  } else {
    ClosedLoopOptions copt = w.closed;
    copt.seed = w.closed.seed + seed;
    copt.collector = probes.collector;
    ClosedLoopDriver driver(&sim, std::move(submit), copt);
    out.run = driver.Run();
  }
  out.run_s = SecondsSince<CpuClock>(t_run);
  out.run_wall_s = SecondsSince<Clock>(t_run_wall);
  out.events = sim.events_fired() - events_before;
  array->backend().ExportStats(&out.at_end);

  // Untimed: drain background work (delayed propagation) to quiescence.
  while (!array->backend().Idle() && sim.Step()) {
  }
  array->backend().ExportStats(&out.drained);

  auto fail = [&out](const std::string& what) {
    out.failures.push_back("rung x" + Label(out.scale) + ": " + what);
  };
  if (w.open_loop()) {
    out.offered = trace->records.size();
    const double span_s =
        static_cast<double>(
            (trace->records.back().time_us - trace->records.front().time_us)
                .us()) /
        1e6 / scale;
    out.offered_iops = static_cast<double>(out.offered) / span_s;
  } else {
    out.offered = out.submitted;
    out.offered_iops = out.run.iops;
  }
  if (out.run.completed + out.run.dropped != out.offered) {
    fail("completed " + std::to_string(out.run.completed) + " + dropped " +
         std::to_string(out.run.dropped) + " != offered " +
         std::to_string(out.offered));
  }
  if (out.submitted != out.run.completed) {
    fail("submitted " + std::to_string(out.submitted) + " != completed " +
         std::to_string(out.run.completed));
  }
  if (out.run.failed != 0) {
    fail(std::to_string(out.run.failed) + " non-kOk completions");
  }
  if (!array->backend().Idle() || sim.PendingEvents() != 0) {
    fail("not quiescent after drain (" + std::to_string(sim.PendingEvents()) +
         " events pending)");
  }
  array->backend().AuditQuiescent();
  return out;
}

// Correctness bookkeeping over every rung a run drives.
struct Ledger {
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Account(const RungOutcome& r) {
    attempted += r.offered;
    failed += r.run.failed;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
  }
};

// An InvariantAuditor that records its first violation instead of aborting,
// so the run can report it as a failed gate.
class RecordingAuditor {
 public:
  RecordingAuditor() {
    auditor_.set_failure_handler([this](const std::string& message) {
      if (first_.empty()) {
        first_ = message;
      }
    });
  }
  InvariantAuditor* get() { return &auditor_; }
  uint64_t checks_run() const { return auditor_.checks_run(); }
  void Check(Ledger* ledger) const {
    if (auditor_.violations() != 0) {
      ledger->failures.push_back(
          "auditor: " + std::to_string(auditor_.violations()) +
          " violations, first: " + first_);
    }
  }

 private:
  InvariantAuditor auditor_;
  std::string first_;
};

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Prints every failed gate and every metric by name and unit, then the
// result line; returns the exit status.
int Report(const std::string& workload, const Ledger& ledger,
           const std::vector<Metric>& metrics) {
  std::vector<std::string> unique;
  for (const std::string& f : ledger.failures) {
    if (std::find(unique.begin(), unique.end(), f) == unique.end()) {
      unique.push_back(f);
      std::printf("FAIL %s: %s\n", workload.c_str(), f.c_str());
    }
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const bool correct = ledger.failures.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted);
  json += ", \"failed\": " + std::to_string(ledger.failed);
  json += ", \"metrics\": {";
  // Names and units are fixed identifiers that need no JSON escaping.
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

void PrintRung(const RungOutcome& r, bool reference) {
  std::printf(
      "rung x%-5g offered %8.1f IO/s  mean %8.3f ms  p50 %8.3f ms  p99.9 "
      "%9.3f ms  samples %7llu (%llu beyond p99.9)  completed %7llu  dropped "
      "%llu%s%s  host %.3f s\n",
      r.scale, r.offered_iops, r.MeanMs(), r.P50Ms(), r.P999Ms(),
      static_cast<unsigned long long>(r.run.latency.count()),
      static_cast<unsigned long long>(
          TailSamples(r.run.latency.count(), kP999Nines)),
      static_cast<unsigned long long>(r.run.completed),
      static_cast<unsigned long long>(r.run.dropped),
      r.run.saturated ? "  SATURATED" : "", reference ? "  (reference)" : "",
      r.run_s);
}

// Gates on the reference rung's simulated metrics.
void CheckReference(const RungOutcome& ref, Ledger* ledger) {
  if (ref.run.saturated) {
    ledger->failures.push_back("reference rung saturated");
  }
  const uint64_t n = ref.run.latency.count();
  if (HighestNinesWithTail(n, kMinTailSamples) < kP999Nines) {
    ledger->failures.push_back("only " + std::to_string(n) +
                        " latency samples: fewer than 10 beyond p99.9");
  }
}

Trace Generate(const Workload& w, uint64_t seed) {
  return mimdraid::GenerateSyntheticTrace(
      w.trace_params(w.trace_duration_s, w.trace_seed + seed));
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

// Host time of one repetition, and the simulated signature of each rung
// (the rung outcomes themselves are not kept: their latency samples would
// make peak RSS grow with the number of repetitions).
struct Repetition {
  double setup_s = 0.0;  // generate + every construct
  double run_s = 0.0;    // every driver run
  uint64_t completed = 0;
  std::vector<std::vector<double>> signatures;
};

int RunEndToEnd(const Workload& w, uint64_t seed, double seconds) {
  Ledger ledger;

  std::vector<Repetition> reps;
  std::vector<RungOutcome> first;  // every rung of the first repetition
  double peak_rss_mb = 0.0;
  std::optional<Trace> trace;
  const Clock::time_point start = Clock::now();
  while (true) {
    const Clock::time_point rep_start = Clock::now();
    Repetition rep;
    if (w.open_loop()) {
      const CpuClock::time_point t_gen = CpuClock::now();
      trace.emplace(Generate(w, seed));
      rep.setup_s += SecondsSince<CpuClock>(t_gen);
    }
    for (double scale : w.scales) {
      RungOutcome r = RunRung(w, seed, trace ? &*trace : nullptr, scale, {});
      rep.setup_s += r.construct_s;
      rep.run_s += r.run_s;
      rep.completed += r.run.completed;
      rep.signatures.push_back(r.SimSignature());
      ledger.Account(r);
      if (reps.empty()) {
        first.push_back(std::move(r));
      }
    }
    if (reps.empty()) {
      // One pass over the workload; later repetitions would only add
      // allocator fragmentation that depends on how many fit in the run.
      peak_rss_mb = PeakRssMb();
    }
    reps.push_back(std::move(rep));
    const double elapsed = SecondsSince<Clock>(start);
    const double last = SecondsSince<Clock>(rep_start);
    if (reps.size() >= 2 && elapsed + last > seconds) {
      break;
    }
  }

  // Determinism: every repetition reproduces the first bit for bit.
  for (size_t i = 1; i < reps.size(); ++i) {
    for (size_t k = 0; k < first.size(); ++k) {
      if (reps[i].signatures[k] != reps[0].signatures[k]) {
        ledger.failures.push_back("repetition " + std::to_string(i) +
                                  " rung x" + Label(first[k].scale) +
                                  " differs from repetition 0 "
                                  "(nondeterminism)");
      }
    }
  }

  // Untimed audit pass: the reference rung again with the invariant auditor
  // attached. The auditor only observes, so the rung must also reproduce.
  RecordingAuditor auditor;
  Probes audited;
  audited.auditor = auditor.get();
  const RungOutcome& ref = first[w.reference_rung];
  const RungOutcome check = RunRung(w, seed, trace ? &*trace : nullptr,
                                    ref.scale, audited);
  ledger.Account(check);
  auditor.Check(&ledger);
  if (check.SimSignature() != ref.SimSignature()) {
    ledger.failures.push_back(
        "audited reference rung differs from the unaudited one");
  }
  CheckReference(ref, &ledger);

  for (size_t k = 0; k < first.size(); ++k) {
    PrintRung(first[k], k == w.reference_rung);
  }
  std::vector<double> setup;
  std::vector<double> rate;
  for (const Repetition& rep : reps) {
    setup.push_back(rep.setup_s);
    rate.push_back(static_cast<double>(rep.completed) / rep.run_s);
    std::printf("repetition setup %.4f s  run %.4f s  %.0f req/s\n",
                rep.setup_s, rep.run_s, rate.back());
  }
  std::printf("repetitions %zu, audit checks %llu\n", reps.size(),
              static_cast<unsigned long long>(auditor.checks_run()));

  double max_rate = ref.offered_iops;  // closed loop: its completion rate
  if (w.open_loop()) {
    std::vector<RungRate> ladder;
    for (const RungOutcome& r : first) {
      ladder.push_back({r.offered_iops, r.MeanMs(), r.run.saturated});
    }
    const std::optional<double> best =
        MaxSustainableRate(ladder, kLatencyLimitMs);
    if (!best.has_value()) {
      std::printf("no rung meets %.0f ms without saturating\n",
                  kLatencyLimitMs);
    }
    max_rate = best.value_or(0.0);
  }
  std::printf("failed_frac %.6g (%llu of %llu)\n",
              static_cast<double>(ledger.failed) /
                  static_cast<double>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed),
              static_cast<unsigned long long>(ledger.attempted));

  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup), "s"},
      {"host_req_per_s", Median(rate), "1/s"},
      {"host_peak_rss_mb", peak_rss_mb, "MB"},
      {"sim_mean_ms", ref.MeanMs(), "ms"},
      {"sim_p50_ms", ref.P50Ms(), "ms"},
      {"sim_p999_ms", ref.P999Ms(), "ms"},
      {"sim_iops", ref.run.iops, "1/s"},
      {"sim_max_rate_iops", max_rate, "1/s"},
  };
  return Report(w.name, ledger, metrics);
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------------

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int RunTraced(const Workload& w, uint64_t seed, double seconds) {
  Ledger ledger;
  const double scale = w.scales[w.reference_rung];

  std::vector<double> generate_s;
  std::vector<double> construct_s;
  std::vector<double> submit_host_ns;
  std::vector<double> submit_share;
  std::vector<double> host_ns_per_event;
  std::vector<double> overhead;
  std::vector<Metric> counts;  // from the first pair; deterministic
  std::vector<double> signature;
  const Clock::time_point start = Clock::now();
  while (true) {
    const Clock::time_point pair_start = Clock::now();
    std::optional<Trace> trace;
    if (w.open_loop()) {
      const CpuClock::time_point t_gen = CpuClock::now();
      trace.emplace(Generate(w, seed));
      generate_s.push_back(SecondsSince<CpuClock>(t_gen));
    } else {
      generate_s.push_back(0.0);  // the closed loop draws requests as it runs
    }
    const Trace* tr = trace ? &*trace : nullptr;
    const RungOutcome plain = RunRung(w, seed, tr, scale, {});
    ledger.Account(plain);

    TraceCollector collector;
    RecordingAuditor auditor;
    Probes probes;
    probes.collector = &collector;
    probes.auditor = auditor.get();
    probes.time_submits = true;
    const RungOutcome traced = RunRung(w, seed, tr, scale, probes);
    ledger.Account(traced);
    auditor.Check(&ledger);
    if (traced.SimSignature() != plain.SimSignature()) {
      ledger.failures.push_back(
          "traced reference rung differs from the untraced one");
    }
    if (signature.empty()) {
      signature = plain.SimSignature();
    } else if (plain.SimSignature() != signature) {
      ledger.failures.push_back(
          "repeated reference rung differs (nondeterminism)");
    }

    const double run_ns = traced.run_wall_s * 1e9;
    const double submit_ns = static_cast<double>(traced.submit_ns);
    construct_s.push_back(traced.construct_s);
    submit_host_ns.push_back(
        Ratio(submit_ns, static_cast<double>(traced.submitted)));
    submit_share.push_back(Ratio(submit_ns, run_ns));
    host_ns_per_event.push_back(
        Ratio(run_ns - submit_ns, static_cast<double>(traced.events)));
    overhead.push_back(Ratio(traced.run_s, plain.run_s));

    if (counts.empty()) {
      CheckReference(traced, &ledger);
      PrintRung(traced, true);
      // Phase attribution must account for every request's latency.
      double worst_gap_us = 0.0;
      for (const mimdraid::RequestRecord& rec : collector.requests()) {
        worst_gap_us = std::max(
            worst_gap_us, std::fabs(rec.phases.SumUs() - rec.EndToEndUs()));
      }
      std::printf("phase-sum residual max %.6f us over %zu requests\n",
                  worst_gap_us, collector.requests().size());
      if (worst_gap_us > 1.0) {
        ledger.failures.push_back(
            "phase sum differs from end-to-end latency by " +
            std::to_string(worst_gap_us) + " us");
      }
      if (collector.open_requests() != 0) {
        ledger.failures.push_back(std::to_string(collector.open_requests()) +
                                  " traced requests never completed");
      }
      const double completed = static_cast<double>(traced.run.completed);
      const mimdraid::PhaseBreakdown phases = collector.MeanPhases();
      const std::vector<mimdraid::SlotSummary> slots =
          collector.SlotSummaries();
      const mimdraid::SimDuration span =
          collector.SpanEndUs() - collector.SpanStartUs();
      double util = 0.0;
      for (const mimdraid::SlotSummary& s : slots) {
        util += s.Utilization(span);
      }
      const StatsRegistry& end = traced.at_end;
      const StatsRegistry& drained = traced.drained;
      const double writes = drained.Get("array.writes_completed");
      const double delayed = drained.Get("array.delayed_writes_completed");
      const double discarded = drained.Get("array.delayed_writes_discarded");
      const double ec_writes = drained.Get("ec.writes_completed");
      const double picks = static_cast<double>(collector.scheduler_picks());
      counts = {
          {"workload.mean_outstanding", traced.run.mean_outstanding, "count"},
          {"workload.samples",
           static_cast<double>(traced.run.latency.count()), "count"},
          {"fault.retries_issued", drained.Get("fault.retries_issued"),
           "count"},
          {"sim.events_per_req",
           Ratio(static_cast<double>(traced.events), completed), "count"},
          {"sched.picks_per_req", Ratio(picks, completed), "count"},
          {"sched.candidates_per_pick",
           Ratio(static_cast<double>(collector.scheduler_candidates_examined()),
                 picks),
           "count"},
          {"disk.ops_per_req",
           Ratio(static_cast<double>(collector.disk_ops().size()), completed),
           "count"},
          {"disk.util_mean", Ratio(util, static_cast<double>(slots.size())),
           "frac"},
          {"phase.queue_us", phases.queue_us, "us"},
          {"phase.overhead_us", phases.overhead_us, "us"},
          {"phase.seek_us", phases.seek_us, "us"},
          {"phase.rotation_us", phases.rotational_us, "us"},
          {"phase.transfer_us", phases.transfer_us, "us"},
          {"phase.recovery_us", phases.recovery_us, "us"},
          {"array.delayed_per_write", Ratio(delayed, writes), "count"},
          {"array.delayed_discarded_frac",
           Ratio(discarded, delayed + discarded), "frac"},
          {"array.parked_reads_per_read",
           Ratio(drained.Get("array.parked_reads"),
                 drained.Get("array.reads_completed")),
           "count"},
          {"array.delayed_backlog", end.Get("array.delayed_backlog"), "count"},
          {"ec.rmw_frac", Ratio(drained.Get("ec.rmw_writes"), ec_writes),
           "frac"},
          {"ec.reconstruct_frac",
           Ratio(drained.Get("ec.reconstruct_writes"), ec_writes), "frac"},
      };
    }
    const double elapsed = SecondsSince<Clock>(start);
    if (elapsed + SecondsSince<Clock>(pair_start) > seconds) {
      break;
    }
  }
  std::printf("traced pairs %zu\n", overhead.size());

  std::vector<Metric> metrics = {
      {"workload.generate_s", Median(generate_s), "s"},
      {"core.construct_s", Median(construct_s), "s"},
      {"io.submit_host_ns", Median(submit_host_ns), "ns"},
      {"io.submit_share", Median(submit_share), "frac"},
      {"sim.host_ns_per_event", Median(host_ns_per_event), "ns"},
      {"obs.trace_overhead", Median(overhead), "ratio"},
  };
  metrics.insert(metrics.end(), counts.begin(), counts.end());
  return Report(w.name, ledger, metrics);
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::optional<uint64_t> seed;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      trace = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || !seed.has_value() || !(seconds > 0.0) ||
      (trace != 0 && trace != 1)) {
    return Usage("--workload, --seed, --seconds > 0 and --trace 0|1 required");
  }
  for (const Workload& w : Workloads()) {
    if (workload == w.name) {
      std::printf("workload %s seed %llu seconds %g trace %d\n", w.name,
                  static_cast<unsigned long long>(*seed), seconds, trace);
      return trace == 1 ? RunTraced(w, *seed, seconds)
                        : RunEndToEnd(w, *seed, seconds);
    }
  }
  return Usage(("unknown workload " + workload).c_str());
}

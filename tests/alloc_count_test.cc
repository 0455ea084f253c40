// Heap allocations per steady-state mirror request.
//
// This binary replaces the global operator new with a counting one, so it
// lives apart from the other tests. The mirror controller maps, records and
// barriers a request in state it keeps across requests (a reused fragment
// buffer, op and fragment slabs, a flat in-flight-write index), so in steady
// state a request allocates only outside src/array: the caller's DoneFn when
// its captures do not fit std::function's small buffer, and the candidate
// vector of each drive-queue entry (QueuedRequest::candidates). The callbacks
// below capture one pointer, which std::function stores inline, so what is
// left is one candidate vector per queue entry. Sanitizer runtimes bring their
// own operator new, so the hook and the test are compiled out under them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/array/array_layout.h"
#include "src/array/controller.h"
#include "src/calib/predictor.h"
#include "src/disk/sim_disk.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MIMDRAID_ALLOC_HOOK 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define MIMDRAID_ALLOC_HOOK 0
#endif
#endif
#ifndef MIMDRAID_ALLOC_HOOK
#define MIMDRAID_ALLOC_HOOK 1
#endif

namespace {
uint64_t g_allocations = 0;
}  // namespace

#if MIMDRAID_ALLOC_HOOK
void* operator new(std::size_t bytes) {
  ++g_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t bytes) { return ::operator new(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace mimdraid {
namespace {

// A closed loop of `outstanding` requests on a Ds x Dr x Dm array of
// ST39133-model drives: each completion issues the next request.
class ClosedLoop {
 public:
  ClosedLoop(int ds, int dr, int dm, double write_frac, uint32_t outstanding)
      : write_frac_(write_frac), outstanding_(outstanding), rng_(29) {
    ArrayAspect aspect;
    aspect.ds = ds;
    aspect.dr = dr;
    aspect.dm = dm;
    const int n = aspect.TotalDisks();
    for (int i = 0; i < n; ++i) {
      disks_.push_back(std::make_unique<SimDisk>(
          &sim_, MakeSt39133Geometry(), MakeSt39133SeekProfile(),
          DiskNoiseModel::None(), /*seed=*/300 + i,
          /*spindle_phase_us=*/i * 311.0));
      predictors_.push_back(
          std::make_unique<OraclePredictor>(disks_.back().get(), 0.0));
    }
    std::vector<SimDisk*> dptr;
    std::vector<AccessPredictor*> pptr;
    for (int i = 0; i < n; ++i) {
      dptr.push_back(disks_[i].get());
      pptr.push_back(predictors_[i].get());
    }
    layout_ = std::make_unique<ArrayLayout>(&disks_[0]->layout(), aspect,
                                            /*stripe_unit_sectors=*/16,
                                            /*dataset_sectors=*/2'000'000);
    ArrayControllerOptions options;
    options.scheduler = SchedulerKind::kSatf;
    options.max_scan = 128;
    controller_ = std::make_unique<ArrayController>(&sim_, dptr, pptr,
                                                    layout_.get(), options);
  }

  // Runs until `requests` more requests have completed.
  void Run(uint64_t requests) {
    const uint64_t target = completed_ + requests;
    while (issued_ - completed_ < outstanding_) {
      Issue();
    }
    while (completed_ < target) {
      ASSERT_TRUE(sim_.Step());
    }
  }

  void Drain() {
    stop_ = true;
    while (!controller_->Idle() && sim_.Step()) {
    }
  }

  uint64_t completed() const { return completed_; }
  // Drive-queue entries so far: each is either started on its drive or
  // cancelled as the losing duplicate of a mirror read.
  uint64_t entries() const {
    uint64_t n = controller_->stats().read_duplicates_cancelled;
    for (const auto& d : disks_) {
      n += d->ops_completed() + d->ops_failed() + (d->busy() ? 1 : 0);
    }
    return n;
  }

 private:
  void Issue() {
    ++issued_;
    // 8-sector requests inside one stripe unit: one fragment each, unless a
    // rotated copy reaches its track's end.
    const uint64_t lba = rng_.UniformU64(2'000'000 / 8) * 8;
    const DiskOp op =
        rng_.Bernoulli(write_frac_) ? DiskOp::kWrite : DiskOp::kRead;
    controller_->Submit(op, lba, 8, [this](const IoResult& r) {
      EXPECT_EQ(r.status, IoStatus::kOk);
      ++completed_;
      if (!stop_) {
        Issue();
      }
    });
  }

  Simulator sim_;
  std::vector<std::unique_ptr<SimDisk>> disks_;
  std::vector<std::unique_ptr<AccessPredictor>> predictors_;
  std::unique_ptr<ArrayLayout> layout_;
  std::unique_ptr<ArrayController> controller_;
  double write_frac_;
  uint32_t outstanding_;
  Rng rng_;
  uint64_t issued_ = 0;
  uint64_t completed_ = 0;
  bool stop_ = false;
};

struct Tally {
  double allocations_per_request = 0.0;
  double entries_per_request = 0.0;
};

// Allocations and queue entries per request over `measured` requests after
// a warm-up that grows every slab, queue and scratch buffer to its peak.
Tally Measure(ClosedLoop& loop, uint64_t measured) {
  loop.Run(10000);
  const uint64_t allocations_before = g_allocations;
  const uint64_t entries_before = loop.entries();
  const uint64_t completed_before = loop.completed();
  loop.Run(measured);
  const double requests =
      static_cast<double>(loop.completed() - completed_before);
  Tally t;
  t.allocations_per_request =
      static_cast<double>(g_allocations - allocations_before) / requests;
  t.entries_per_request =
      static_cast<double>(loop.entries() - entries_before) / requests;
  loop.Drain();
  std::printf("allocations/request %.4f, queue entries/request %.4f\n",
              t.allocations_per_request, t.entries_per_request);
  return t;
}

TEST(MirrorAllocations, StripeRequestAllocatesOnlyItsQueueEntry) {
  if (!MIMDRAID_ALLOC_HOOK) {
    GTEST_SKIP() << "sanitizer runtime owns operator new";
  }
  // 36x1x1 striping, 30% writes: one fragment and one queue entry per
  // request.
  ClosedLoop loop(36, 1, 1, /*write_frac=*/0.3, /*outstanding=*/64);
  const Tally t = Measure(loop, 20000);
  EXPECT_LE(t.allocations_per_request, 2.0);
  // One candidate vector per entry; the small remainder is the rare parked
  // read and the event calendar's buckets still growing to their peak.
  EXPECT_LE(t.allocations_per_request, t.entries_per_request + 0.05);
}

TEST(MirrorAllocations, SrMirrorReadAllocatesOnlyItsQueueEntries) {
  if (!MIMDRAID_ALLOC_HOOK) {
    GTEST_SKIP() << "sanitizer runtime owns operator new";
  }
  // 2x3x2 SR-Mirror reads: one queue entry when a holding disk is idle, one
  // per mirror (duplicate-and-cancel) when both are busy; at this load about
  // 1.6 entries per read. (Writes are left out: their background
  // propagations keep per-sector stale markers and NVRAM records in node
  // containers.)
  ClosedLoop loop(2, 3, 2, /*write_frac=*/0.0, /*outstanding=*/8);
  const Tally t = Measure(loop, 20000);
  EXPECT_LE(t.allocations_per_request, 2.0);
  EXPECT_LE(t.allocations_per_request, t.entries_per_request + 0.05);
}

}  // namespace
}  // namespace mimdraid

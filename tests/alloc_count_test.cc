// Heap allocations per steady-state mirror and erasure request.
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
#include "src/ec/ec_controller.h"
#include "src/ec/ec_layout.h"
#include "src/ec/gf256.h"
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

// A closed loop of `outstanding` requests over ST39133-model drives: each
// completion issues the next request.
class ClosedLoop {
 public:
  // A Ds x Dr x Dm mirror array.
  ClosedLoop(int ds, int dr, int dm, double write_frac, uint32_t outstanding)
      : write_frac_(write_frac), outstanding_(outstanding), rng_(29) {
    ArrayAspect aspect;
    aspect.ds = ds;
    aspect.dr = dr;
    aspect.dm = dm;
    AddDisks(aspect.TotalDisks());
    layout_ = std::make_unique<ArrayLayout>(&disks_[0]->layout(), aspect,
                                            /*stripe_unit_sectors=*/16,
                                            /*dataset_sectors=*/kDataset);
    ArrayControllerOptions options;
    options.engine.scheduler = SchedulerKind::kSatf;
    options.engine.max_scan = 128;
    mirror_ = std::make_unique<ArrayController>(&sim_, DiskPtrs(),
                                                PredictorPtrs(), layout_.get(),
                                                options);
    backend_ = mirror_.get();
  }

  // A k+m erasure array with the same logical capacity.
  ClosedLoop(uint32_t k, uint32_t m, double write_frac, uint32_t outstanding)
      : write_frac_(write_frac), outstanding_(outstanding), rng_(29) {
    AddDisks(static_cast<int>(k + m));
    ec_layout_ = std::make_unique<EcLayout>(k + m, k,
                                            /*stripe_unit_sectors=*/16,
                                            /*per_disk_sectors=*/kDataset / k);
    codec_ = std::make_unique<EcCodec>(k, m);
    DriveSetOptions options;
    options.scheduler = SchedulerKind::kSatf;
    options.max_scan = 128;
    ec_ = std::make_unique<EcController>(&sim_, DiskPtrs(), PredictorPtrs(),
                                         ec_layout_.get(), codec_.get(),
                                         options);
    backend_ = ec_.get();
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
    while (!backend_->Idle() && sim_.Step()) {
    }
  }

  uint64_t completed() const { return completed_; }
  // Drive-queue entries so far: each is either started on its drive or
  // cancelled as the losing duplicate of a mirror read.
  uint64_t entries() const {
    uint64_t n =
        mirror_ != nullptr ? mirror_->stats().read_duplicates_cancelled : 0;
    for (const auto& d : disks_) {
      n += d->ops_completed() + d->ops_failed() + (d->busy() ? 1 : 0);
    }
    return n;
  }

 private:
  static constexpr uint64_t kDataset = 2'000'000;

  void AddDisks(int n) {
    for (int i = 0; i < n; ++i) {
      disks_.push_back(std::make_unique<SimDisk>(
          &sim_, MakeSt39133Geometry(), MakeSt39133SeekProfile(),
          DiskNoiseModel::None(), /*seed=*/300 + i,
          /*spindle_phase_us=*/i * 311.0));
      predictors_.push_back(
          std::make_unique<OraclePredictor>(disks_.back().get(), 0.0));
    }
  }
  std::vector<SimDisk*> DiskPtrs() const {
    std::vector<SimDisk*> out;
    for (const auto& d : disks_) {
      out.push_back(d.get());
    }
    return out;
  }
  std::vector<AccessPredictor*> PredictorPtrs() const {
    std::vector<AccessPredictor*> out;
    for (const auto& p : predictors_) {
      out.push_back(p.get());
    }
    return out;
  }

  void Issue() {
    ++issued_;
    // 8-sector requests inside one stripe unit: one fragment each, unless a
    // rotated mirror copy reaches its track's end.
    const uint64_t lba = rng_.UniformU64(kDataset / 8) * 8;
    const DiskOp op =
        rng_.Bernoulli(write_frac_) ? DiskOp::kWrite : DiskOp::kRead;
    backend_->Submit(op, lba, 8, [this](const IoResult& r) {
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
  std::unique_ptr<ArrayController> mirror_;
  std::unique_ptr<EcLayout> ec_layout_;
  std::unique_ptr<EcCodec> codec_;
  std::unique_ptr<EcController> ec_;
  ArrayBackend* backend_ = nullptr;
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

TEST(EcAllocations, RmwWriteMixAllocationsPerRequest) {
  if (!MIMDRAID_ALLOC_HOOK) {
    GTEST_SKIP() << "sanitizer runtime owns operator new";
  }
  // 4+2 erasure, 70% writes, 16 outstanding: each write is a read-modify-
  // write of one data unit (three pre-image reads, three writes).
  ClosedLoop loop(4u, 2u, /*write_frac=*/0.7, /*outstanding=*/16);
  const Tally t = Measure(loop, 20000);
  // Op and fragment records live in slabs, so what allocates is the
  // candidate vector of each drive-queue entry (about 4.5 per request), the
  // fragment list Map returns, and a write plan's two column lists: 6.89 in
  // all. Op records in a hash map and fragments, write counters and rebuild
  // row counters under shared_ptr used to cost 11.68.
  EXPECT_LE(t.allocations_per_request, 7.0);
  EXPECT_LE(t.allocations_per_request, t.entries_per_request + 2.5);
}

}  // namespace
}  // namespace mimdraid

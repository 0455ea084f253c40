// Discrete-event simulation core.
//
// The entire MimdRAID stack runs on simulated time: disks, schedulers, the
// array controller, and workload drivers all schedule callbacks on a single
// Simulator instance. This mirrors the paper's "integrated simulator"
// (Section 3.1), whose motivation was to replace real I/O time and idle time
// with simulated time.
//
// Events are totally ordered by (timestamp, insertion sequence), so two
// events at the same instant fire in scheduling order and runs are
// deterministic.
//
// Engine layout (ISSUE 8, fleet-scale overhaul). Events live in a pooled
// slab and are indexed by a calendar queue: a ring of fixed-width time
// buckets covering a sliding near-future window, with a binary-heap overflow
// for events beyond the horizon. The steady path — schedule, fire — is a
// pool-slot reuse plus a bucket append/scan: no allocation (the callback
// lives in the event's inline buffer, see src/util/inline_fn.h) and no
// rebalancing. Cancel is eager: a ring event is unlinked from its bucket and
// its slot recycled immediately; an overflow event has its callback (and
// everything the closure kept alive) destroyed on the spot, leaving only a
// 24-byte tombstone that compaction sweeps once tombstones outnumber live
// entries. PendingEvents() is an exact counter throughout.
#ifndef MIMDRAID_SRC_SIM_SIMULATOR_H_
#define MIMDRAID_SRC_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/inline_fn.h"
#include "src/util/time.h"

namespace mimdraid {

class InvariantAuditor;

class Simulator {
 public:
  // Inline capacity of an event callback. Sized for the engine's largest
  // steady-state closure (DriveSet's bracket around a deferred
  // DriveSet::DeferredFn); bigger captures still work via InlineFn's heap
  // fallback.
  using EventFn = InlineFn<void(), 120>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run at absolute simulated time `at` (>= Now()).
  // Returns an id usable with Cancel().
  EventId ScheduleAt(SimTime at, EventFn fn);

  // Schedules `fn` to run `delay` from now.
  EventId ScheduleAfter(SimDuration delay, EventFn fn);

  // Cancels a pending event. Cancelling an already-fired or already-cancelled
  // event is a harmless no-op; returns whether the event was still pending
  // (false for fired, cancelled, or never-issued ids). The result is
  // [[nodiscard]]: the PR 2 livelock class started with a caller assuming a
  // Cancel it never checked had won the race against the event firing.
  // Cancellation releases the callback eagerly — the closure and everything
  // it captures are destroyed before Cancel returns, never parked until the
  // event's deadline would have come up.
  [[nodiscard]] bool Cancel(EventId id);

  // Runs events until the queue is empty.
  void Run();

  // Runs events with timestamp <= deadline, then sets Now() to deadline
  // (if the queue drained earlier) so subsequent scheduling is relative to it.
  void RunUntil(SimTime deadline);

  // Fires the single earliest event. Returns false if the queue is empty.
  bool Step();

  // Number of pending (non-cancelled, non-fired) events.
  size_t PendingEvents() const { return pending_; }

  // Total events fired since construction (for tests / sanity checks).
  uint64_t events_fired() const { return events_fired_; }

  // Attaches a runtime invariant auditor (src/sim/auditor.h); nullptr
  // detaches. Borrowed, must outlive the simulator. With an auditor attached,
  // the auditor owns event-time monotonicity enforcement (its default
  // handler aborts exactly like the built-in checks it replaces).
  void set_auditor(InvariantAuditor* auditor) { auditor_ = auditor; }
  InvariantAuditor* auditor() const { return auditor_; }

  // Test-only backdoor: warps the clock without firing events, so tests can
  // seed an event-ordering violation and assert the auditor catches it.
  void CorruptClockForTest(SimTime t) { now_ = t; }

  // --- Test-only introspection of engine storage (regression coverage for
  // the cancel-churn retention class; see sim_test.cc). ---
  // Event slots ever allocated (live + free-listed). Bounded by the peak
  // number of simultaneously pending events, not by throughput.
  size_t EventSlotsForTest() const { return pool_.size(); }
  // Far-future heap entries, live + tombstones. Compaction keeps this within
  // a small multiple of the live count.
  size_t OverflowEntriesForTest() const { return overflow_.size(); }

 private:
  // Calendar ring geometry: kNumBuckets buckets of 2^kBucketShift µs each.
  // With 64 µs buckets the ring spans a 65.5 ms near-future window — several
  // disk service times — so virtually every I/O-path event takes the O(1)
  // ring route; only long timers (scrub ticks, watchdogs, reliability-scale
  // events) touch the overflow heap.
  static constexpr int kBucketShift = 6;
  static constexpr uint32_t kNumBuckets = 1024;  // power of two
  static constexpr uint32_t kBucketMask = kNumBuckets - 1;
  static constexpr uint32_t kNpos = UINT32_MAX;

  enum class SlotState : uint8_t { kFree, kInRing, kInOverflow };

  struct Event {
    SimTime at;
    uint64_t seq = 0;   // global tie-break: FIFO among same-time events
    uint32_t gen = 1;   // id generation; bumped every time the slot retires
    SlotState state = SlotState::kFree;
    uint32_t ring_pos = 0;  // index within its bucket while kInRing
    EventFn fn;
  };

  // Overflow heap entry. (at, seq) orders it; `slot`+`seq` identify the pool
  // event, and a mismatch (slot retired or reused) marks a tombstone.
  struct OverflowEntry {
    SimTime at;
    uint64_t seq;
    uint32_t slot;
  };
  struct OverflowLater {
    bool operator()(const OverflowEntry& a, const OverflowEntry& b) const {
      if (a.at != b.at) {
        return a.at > b.at;
      }
      return a.seq > b.seq;
    }
  };

  static int64_t BucketOf(SimTime at) { return at.us() >> kBucketShift; }
  static EventId IdFor(uint32_t slot, uint32_t gen) {
    return EventId((static_cast<uint64_t>(gen) << 32) | slot);
  }

  uint32_t AllocSlot();
  void RetireSlot(uint32_t slot);
  void InsertIntoRing(uint32_t slot, int64_t bucket_abs);
  void RemoveFromRing(uint32_t slot);
  void PopOverflowTop();
  void CompactOverflowIfStale();
  // Earliest live event (ring minimum vs overflow top); kNpos when no event
  // is pending. Peek-only: the event stays queued and the cursor does not
  // move — Step() detaches the event and commits the cursor with the clock.
  uint32_t FindEarliest();

  SimTime now_;
  InvariantAuditor* auditor_ = nullptr;
  uint64_t next_seq_ = 1;
  size_t pending_ = 0;
  uint64_t events_fired_ = 0;

  std::vector<Event> pool_;
  std::vector<uint32_t> free_slots_;

  // Calendar ring: bucket i holds events with BucketOf(at) ≡ i (mod
  // kNumBuckets) inside the window [cur_bucket_, cur_bucket_ + kNumBuckets).
  std::vector<uint32_t> ring_[kNumBuckets];
  uint64_t occupied_[kNumBuckets / 64] = {};
  int64_t cur_bucket_ = 0;
  size_t ring_count_ = 0;

  // Beyond-horizon events: min-heap over (at, seq) via std::push_heap.
  std::vector<OverflowEntry> overflow_;
  size_t overflow_dead_ = 0;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_SIM_SIMULATOR_H_

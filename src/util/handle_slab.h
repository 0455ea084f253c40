// Free-list slab addressed by generation-tagged handles.
//
// The array backends keep one record per logical op and per fragment for
// the few milliseconds of simulated time each is in flight. A hash map
// keyed by a running counter paid a node allocation and a hash lookup per
// record; the slab pays neither once it covers the peak number of live
// records. Slots are recycled LIFO and keep whatever capacity their vectors
// grew to, so a steady stream of records allocates nothing.
//
// A handle is (generation << 32) | (slot index + 1). Releasing a slot bumps
// its generation, so a handle that outlives its record — a retry closure
// that fires after the fragment completed and the slot was reused — finds
// nothing instead of the new occupant. 0 is never a handle.
//
// Storage is chunked: a record's address stays valid while other records are
// acquired, so callers may hold a reference across an Acquire().
#ifndef MIMDRAID_SRC_UTIL_HANDLE_SLAB_H_
#define MIMDRAID_SRC_UTIL_HANDLE_SLAB_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/util/check.h"

namespace mimdraid {

template <typename T>
class HandleSlab {
 public:
  // Claims a slot and returns its handle. The record is in whatever state
  // its last occupant left it (default-constructed on first use): callers
  // reset it, which lets vectors inside keep their capacity.
  [[nodiscard]] uint64_t Acquire() {
    uint32_t index;
    if (free_.empty()) {
      index = slots_;
      if (index % kChunk == 0) {
        chunks_.push_back(std::make_unique<Slot[]>(kChunk));
      }
      ++slots_;
    } else {
      index = free_.back();
      free_.pop_back();
    }
    Slot& slot = At(index);
    slot.live = true;
    ++live_;
    return (static_cast<uint64_t>(slot.generation) << 32) | (index + 1u);
  }

  // The live record `handle` names, or nullptr when it has been released
  // (whether or not its slot has been reused since).
  T* Find(uint64_t handle) {
    const uint32_t index = static_cast<uint32_t>(handle) - 1u;
    if (static_cast<uint32_t>(handle) == 0 || index >= slots_) {
      return nullptr;
    }
    Slot& slot = At(index);
    if (!slot.live || slot.generation != static_cast<uint32_t>(handle >> 32)) {
      return nullptr;
    }
    return &slot.value;
  }

  const T* Find(uint64_t handle) const {
    return const_cast<HandleSlab*>(this)->Find(handle);
  }

  // The live record `handle` names; it must be live.
  T& operator[](uint64_t handle) {
    T* value = Find(handle);
    MIMDRAID_CHECK(value != nullptr);
    return *value;
  }

  // Returns the slot to the free list; `handle` and every copy of it stop
  // resolving.
  void Release(uint64_t handle) {
    MIMDRAID_CHECK(Find(handle) != nullptr);
    const uint32_t index = static_cast<uint32_t>(handle) - 1u;
    Slot& slot = At(index);
    slot.live = false;
    ++slot.generation;
    free_.push_back(index);
    --live_;
  }

  // Calls `fn(handle)` for every live record, in slot order.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (uint32_t index = 0; index < slots_; ++index) {
      const Slot& slot = chunks_[index / kChunk][index % kChunk];
      if (slot.live) {
        fn((static_cast<uint64_t>(slot.generation) << 32) | (index + 1u));
      }
    }
  }

  size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }

 private:
  static constexpr uint32_t kChunk = 256;

  struct Slot {
    T value{};
    uint32_t generation = 1;
    bool live = false;
  };

  Slot& At(uint32_t index) { return chunks_[index / kChunk][index % kChunk]; }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<uint32_t> free_;
  uint32_t slots_ = 0;
  size_t live_ = 0;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_UTIL_HANDLE_SLAB_H_

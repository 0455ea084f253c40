// Open-addressing hash map from uint64_t keys to small values.
//
// std::unordered_map allocates a node per insert; a hot path that inserts
// and erases once per simulated I/O pays malloc/free on every request. This
// map keeps keys and values in two flat arrays (linear probing, Fibonacci
// hashing, backward-shift deletion, no tombstones), so it allocates only when
// it grows past half full and never shrinks. UINT64_MAX is reserved as the
// empty-slot marker and may not be used as a key.
#ifndef MIMDRAID_SRC_UTIL_FLAT_MAP_H_
#define MIMDRAID_SRC_UTIL_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace mimdraid {

template <typename V>
class FlatMap {
 public:
  static constexpr uint64_t kEmptyKey = UINT64_MAX;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  V* Find(uint64_t key) {
    if (size_ == 0) {
      return nullptr;
    }
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      if (keys_[i] == key) {
        return &values_[i];
      }
      if (keys_[i] == kEmptyKey) {
        return nullptr;
      }
    }
  }
  const V* Find(uint64_t key) const {
    return const_cast<FlatMap*>(this)->Find(key);
  }

  // The value under `key`, value-initialized if absent.
  V& operator[](uint64_t key) {
    MIMDRAID_CHECK_NE(key, kEmptyKey);
    if (2 * (size_ + 1) > keys_.size()) {
      Grow();
    }
    size_t i = Home(key);
    for (; keys_[i] != kEmptyKey; i = (i + 1) & mask_) {
      if (keys_[i] == key) {
        return values_[i];
      }
    }
    keys_[i] = key;
    values_[i] = V{};
    ++size_;
    return values_[i];
  }

  // Removes `key`; returns whether it was present.
  bool Erase(uint64_t key) {
    if (size_ == 0) {
      return false;
    }
    size_t hole = Home(key);
    while (keys_[hole] != key) {
      if (keys_[hole] == kEmptyKey) {
        return false;
      }
      hole = (hole + 1) & mask_;
    }
    // Backward shift: pull later members of the probe run into the hole
    // whenever the hole lies on their path from their home slot.
    for (size_t j = (hole + 1) & mask_; keys_[j] != kEmptyKey;
         j = (j + 1) & mask_) {
      const size_t home = Home(keys_[j]);
      const bool hole_on_path = hole <= j ? (home <= hole || home > j)
                                          : (home <= hole && home > j);
      if (hole_on_path) {
        keys_[hole] = keys_[j];
        values_[hole] = std::move(values_[j]);
        hole = j;
      }
    }
    keys_[hole] = kEmptyKey;
    --size_;
    return true;
  }

 private:
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Grow() {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    const size_t capacity = old_keys.empty() ? 16 : 2 * old_keys.size();
    keys_.assign(capacity, kEmptyKey);
    values_.assign(capacity, V{});
    mask_ = capacity - 1;
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) {
      --shift_;
    }
    size_ = 0;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] != kEmptyKey) {
        (*this)[old_keys[i]] = std::move(old_values[i]);
      }
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<V> values_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_UTIL_FLAT_MAP_H_

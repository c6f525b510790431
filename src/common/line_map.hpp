// LineMap — an open-addressing hash map keyed by cache-line address, for
// the simulator's per-line state (functional word images, NVM wear
// counts). One flat power-of-two slot array with linear probing: no
// per-entry nodes, so inserts do not allocate, lookups touch one or two
// cache lines, and teardown frees a single block.
//
// Insert-only (no erase), which keeps linear probing tombstone-free.
// An insert may rehash and move every slot: a pointer or reference into
// the map is valid only until the next operator[] that adds a key.
// Iteration order is slot order; callers that report anything
// order-dependent must impose their own order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace ntcsim {

template <typename V>
class LineMap {
 public:
  LineMap() = default;
  LineMap(const LineMap&) = default;
  LineMap& operator=(const LineMap&) = default;
  // A moved-from map is empty and fully usable.
  LineMap(LineMap&& other) noexcept { swap(other); }
  LineMap& operator=(LineMap&& other) noexcept {
    LineMap taken(std::move(other));
    swap(taken);
    return *this;
  }

  /// The value stored for `line`, value-initialized on first use.
  V& operator[](Addr line) {
    NTC_ASSERT(line != kEmptyKey, "LineMap key is the empty-slot marker");
    if (!slots_.empty()) {
      for (std::size_t i = home_(line);; i = (i + 1) & mask_()) {
        Slot& s = slots_[i];
        if (s.key == line) return s.value;
        if (s.key != kEmptyKey) continue;
        if (kMaxLoadDen * (size_ + 1) > kMaxLoadNum * slots_.size()) break;
        s.key = line;
        ++size_;
        return s.value;
      }
    }
    rehash_(slots_.empty() ? kMinSlots : 2 * slots_.size());
    ++size_;
    return place_(line).value;
  }

  const V* find(Addr line) const {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home_(line);; i = (i + 1) & mask_()) {
      const Slot& s = slots_[i];
      if (s.key == line) return &s.value;
      if (s.key == kEmptyKey) return nullptr;
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Drop every entry and release the table.
  void clear() { *this = LineMap(); }

  /// fn(line, value) for every entry, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmptyKey) fn(s.key, s.value);
    }
  }

 private:
  /// Line addresses are kLineBytes-aligned, so all-ones is never a key.
  static constexpr Addr kEmptyKey = ~Addr{0};
  static constexpr std::size_t kMinSlots = 16;
  /// Grow before the table passes 3/4 full: linear-probing miss chains
  /// stay short, and a doubled table lands between 3/8 and 3/4 full.
  static constexpr std::size_t kMaxLoadNum = 3;
  static constexpr std::size_t kMaxLoadDen = 4;

  struct Slot {
    Addr key = kEmptyKey;
    V value{};
  };

  void swap(LineMap& other) noexcept {
    slots_.swap(other.slots_);
    std::swap(size_, other.size_);
    std::swap(shift_, other.shift_);
  }
  std::size_t mask_() const { return slots_.size() - 1; }
  /// Fibonacci hashing of the line number: the top bits of a
  /// golden-ratio multiply spread both dense runs and power-of-two
  /// strides (per-core log regions) across the table.
  std::size_t home_(Addr line) const {
    return static_cast<std::size_t>(
        ((line / kLineBytes) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  /// First empty slot on `line`'s probe chain (the key is known absent).
  Slot& place_(Addr line) {
    std::size_t i = home_(line);
    while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_();
    slots_[i].key = line;
    return slots_[i];
  }
  void rehash_(std::size_t new_slots) {
    std::vector<Slot> old(new_slots);
    old.swap(slots_);
    shift_ = 64;
    for (std::size_t n = new_slots; n > 1; n >>= 1) --shift_;
    for (Slot& s : old) {
      if (s.key != kEmptyKey) place_(s.key).value = std::move(s.value);
    }
  }

  std::vector<Slot> slots_;  ///< Power-of-two length, or empty.
  std::size_t size_ = 0;
  unsigned shift_ = 64;  ///< 64 - log2(slots_.size()).
};

}  // namespace ntcsim

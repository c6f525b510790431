// Fixed-capacity FIFO for the per-cycle queues of a component. The
// storage is allocated once, at construction, so pushing and popping never
// allocate; and an element never moves while it is queued, so a pointer to
// it stays valid until it is popped. Capacities come from invariants of the
// owner (a ROB never holds more entries than µops), so an overflow is a
// simulator bug and aborts.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"

namespace ntcsim {

template <typename T>
class Ring {
  // pop_front() leaves the element in its slot until a push overwrites it.
  static_assert(std::is_trivially_destructible_v<T>,
                "Ring elements must not own resources");

 public:
  Ring() = default;
  explicit Ring(std::size_t capacity)
      : buf_(std::make_unique<T[]>(capacity)), capacity_(capacity) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Element `i` counted from the front (0 = oldest).
  const T& operator[](std::size_t i) const { return buf_[wrap_(head_ + i)]; }
  T& front() { return buf_[head_]; }

  /// Appends `v` at the back and returns it in place.
  T& push(T v) {
    NTC_ASSERT(size_ < capacity_, "ring overflow: capacity invariant broken");
    T& slot = buf_[wrap_(head_ + size_)];
    slot = std::move(v);
    ++size_;
    return slot;
  }
  void pop_front() {
    head_ = wrap_(head_ + 1);
    --size_;
  }
  void clear() { head_ = size_ = 0; }

 private:
  std::size_t wrap_(std::size_t i) const {
    return i >= capacity_ ? i - capacity_ : i;
  }

  std::unique_ptr<T[]> buf_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ntcsim

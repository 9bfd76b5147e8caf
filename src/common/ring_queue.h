// RingQueue: a FIFO over a ring of reusable elements. PushBack hands out
// the retired element at the tail with whatever state (and buffer capacity)
// it last had, so a queue of byte buffers that has reached its working
// depth allocates nothing. The ring grows by one slot when full, keeping
// FIFO order.

#ifndef ENCOMPASS_COMMON_RING_QUEUE_H_
#define ENCOMPASS_COMMON_RING_QUEUE_H_

#include <cassert>
#include <cstddef>
#include <vector>

namespace encompass {

template <typename T>
class RingQueue {
 public:
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// The i-th element in FIFO order (0 = front).
  T& operator[](size_t i) { return ring_[(head_ + i) % ring_.size()]; }
  const T& operator[](size_t i) const {
    return ring_[(head_ + i) % ring_.size()];
  }
  T& front() { return (*this)[0]; }

  /// Appends an element and returns it. It holds a retired element's state;
  /// the caller resets what it needs.
  T& PushBack() {
    if (count_ == ring_.size()) {
      // Full: open a slot at the tail, which sits just before the oldest.
      ring_.insert(ring_.begin() + static_cast<std::ptrdiff_t>(head_), T());
      head_ = count_ == 0 ? 0 : head_ + 1;
    }
    ++count_;
    return (*this)[count_ - 1];
  }

  void PopFront() {
    assert(count_ > 0);
    head_ = (head_ + 1) % ring_.size();
    --count_;
  }

 private:
  std::vector<T> ring_;
  size_t head_ = 0;   ///< index of the front element
  size_t count_ = 0;  ///< live elements, from head_ onwards (wrapping)
};

}  // namespace encompass

#endif  // ENCOMPASS_COMMON_RING_QUEUE_H_

// FifoRing: a FIFO that also takes pushes at the front, kept in a
// power-of-two ring that doubles when full. A steady queue never
// allocates (a std::deque allocates a node every few elements). Used by
// SimCore's job queue and EventQueue's timer lanes.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace mdp::sim {

template <typename T>
class FifoRing {
 public:
  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  T& front() noexcept { return slots_[head_]; }
  const T& front() const noexcept { return slots_[head_]; }
  const T& back() const noexcept {
    return slots_[(head_ + size_ - 1) & mask()];
  }
  /// Drops the front element; its slot is reset, so a closure it held is
  /// destroyed now.
  void pop_front() noexcept {
    slots_[head_] = T{};
    head_ = (head_ + 1) & mask();
    --size_;
  }
  void push_back(T&& v) {
    grow_if_full();
    slots_[(head_ + size_) & mask()] = std::move(v);
    ++size_;
  }
  void push_front(T&& v) {
    grow_if_full();
    head_ = (head_ - 1) & mask();
    slots_[head_] = std::move(v);
    ++size_;
  }

 private:
  std::size_t mask() const noexcept { return slots_.size() - 1; }
  void grow_if_full() {
    if (size_ < slots_.size()) return;
    std::vector<T> bigger(slots_.empty() ? 16 : slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i)
      bigger[i] = std::move(slots_[(head_ + i) & mask()]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace mdp::sim

// MpmcRing: bounded multi-producer/multi-consumer lock-free queue using
// per-slot sequence numbers (Vyukov's bounded MPMC algorithm — the same
// family DPDK's rte_ring MP/MC mode belongs to).
//
// Used where several scheduler threads feed one path, or one ingress feeds
// several worker cores, in the real-thread data plane.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>

#include "ring/spsc_ring.hpp"  // for kCacheLine

namespace mdp::ring {

template <typename T>
class MpmcRing {
 public:
  explicit MpmcRing(std::size_t capacity)
      : mask_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity) - 1),
        slots_(std::make_unique<Slot[]>(mask_ + 1)) {
    for (std::size_t i = 0; i <= mask_; ++i)
      slots_[i].sequence.store(i, std::memory_order_relaxed);
  }

  MpmcRing(const MpmcRing&) = delete;
  MpmcRing& operator=(const MpmcRing&) = delete;

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Approximate occupancy.
  std::size_t size() const noexcept {
    std::uint64_t h = enqueue_pos_.load(std::memory_order_acquire);
    std::uint64_t t = dequeue_pos_.load(std::memory_order_acquire);
    return h > t ? static_cast<std::size_t>(h - t) : 0;
  }

  bool try_push(T item) noexcept {
    Slot* slot;
    std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      slot = &slots_[pos & mask_];
      std::uint64_t seq = slot->sequence.load(std::memory_order_acquire);
      std::intptr_t diff = static_cast<std::intptr_t>(seq) -
                           static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed))
          break;
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    slot->value = std::move(item);
    slot->sequence.store(pos + 1, std::memory_order_release);
    return true;
  }

  bool try_pop(T& out) noexcept {
    Slot* slot;
    std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      slot = &slots_[pos & mask_];
      std::uint64_t seq = slot->sequence.load(std::memory_order_acquire);
      std::intptr_t diff = static_cast<std::intptr_t>(seq) -
                           static_cast<std::intptr_t>(pos + 1);
      if (diff == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed))
          break;
      } else if (diff < 0) {
        return false;  // empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    out = std::move(slot->value);
    slot->sequence.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  /// Bulk enqueue of up to `items.size()` items (DPDK rte_ring MP "burst"
  /// semantics): one CAS claims min(free, n) consecutive positions, then
  /// each claimed slot is filled. Returns the number enqueued. A claimed
  /// slot whose previous-cycle consumer is still mid-copy is waited on
  /// briefly — the same progress guarantee as rte_ring's MP mode, bounded
  /// by one in-flight pop per slot.
  std::size_t try_push_burst(std::span<T> items) noexcept {
    std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    std::size_t n;
    for (;;) {
      const std::uint64_t tail = dequeue_pos_.load(std::memory_order_acquire);
      const std::size_t free =
          capacity() - static_cast<std::size_t>(pos - tail);
      n = items.size() < free ? items.size() : free;
      if (n == 0) return 0;
      if (enqueue_pos_.compare_exchange_weak(pos, pos + n,
                                             std::memory_order_relaxed))
        break;
    }
    for (std::size_t i = 0; i < n; ++i) {
      Slot& slot = slots_[(pos + i) & mask_];
      while (slot.sequence.load(std::memory_order_acquire) != pos + i)
        std::this_thread::yield();
      slot.value = std::move(items[i]);
      slot.sequence.store(pos + i + 1, std::memory_order_release);
    }
    return n;
  }

  /// Bulk dequeue of up to `out.size()` items (MC "burst" semantics): one
  /// CAS claims min(available, n) consecutive positions, then each claimed
  /// slot is drained. Returns the number dequeued. Mirrors try_push_burst's
  /// bounded wait for a producer mid-copy on a claimed slot.
  std::size_t try_pop_burst(std::span<T> out) noexcept {
    std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    std::size_t n;
    for (;;) {
      const std::uint64_t head = enqueue_pos_.load(std::memory_order_acquire);
      const std::size_t avail = static_cast<std::size_t>(head - pos);
      n = out.size() < avail ? out.size() : avail;
      if (n == 0) return 0;
      if (dequeue_pos_.compare_exchange_weak(pos, pos + n,
                                             std::memory_order_relaxed))
        break;
    }
    for (std::size_t i = 0; i < n; ++i) {
      Slot& slot = slots_[(pos + i) & mask_];
      while (slot.sequence.load(std::memory_order_acquire) != pos + i + 1)
        std::this_thread::yield();
      out[i] = std::move(slot.value);
      slot.sequence.store(pos + i + mask_ + 1, std::memory_order_release);
    }
    return n;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> sequence;
    T value;
  };

  const std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  alignas(kCacheLine) std::atomic<std::uint64_t> enqueue_pos_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> dequeue_pos_{0};
};

static_assert(alignof(MpmcRing<void*>) == kCacheLine &&
                  sizeof(MpmcRing<void*>) == 3 * kCacheLine,
              "MpmcRing positions must sit on their own cache lines");

}  // namespace mdp::ring

// SpscRing: bounded single-producer/single-consumer lock-free ring, the
// building block of the threaded data plane (one ring per path direction,
// exactly like a DPDK rte_ring in SP/SC mode).
//
// Capacity is rounded up to a power of two so index masking replaces modulo.
// Producer and consumer cursors live on separate cache lines to avoid false
// sharing; acquire/release ordering is the minimal correct protocol.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "stats/cacheline.hpp"

namespace mdp::ring {

/// The fixed 64-byte line every padded layout in the tree uses.
inline constexpr std::size_t kCacheLine = stats::kCacheLineSize;

template <typename T>
class SpscRing {
 public:
  /// @param capacity minimum number of slots (rounded up to a power of two).
  explicit SpscRing(std::size_t capacity)
      : mask_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity) - 1),
        slots_(std::make_unique<T[]>(mask_ + 1)) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Producer-side: number of free slots (conservative).
  std::size_t free_slots() const noexcept {
    return capacity() - size();
  }

  /// Approximate occupancy (exact when called from either endpoint while
  /// the other is quiescent).
  std::size_t size() const noexcept {
    std::uint64_t h = head_.load(std::memory_order_acquire);
    std::uint64_t t = tail_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(h - t);
  }

  bool empty() const noexcept { return size() == 0; }

  /// Enqueue one item. Returns false when full.
  bool try_push(T item) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail > mask_) return false;
    slots_[head & mask_] = std::move(item);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Bulk enqueue; enqueues either all of `items` or nothing (DPDK
  /// "fixed" semantics). Returns the number enqueued (0 or items.size()).
  std::size_t try_push_bulk(std::span<T> items) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (capacity() - (head - tail) < items.size()) return 0;
    for (std::size_t i = 0; i < items.size(); ++i)
      slots_[(head + i) & mask_] = std::move(items[i]);
    head_.store(head + items.size(), std::memory_order_release);
    return items.size();
  }

  /// Bulk enqueue of up to `items.size()` items (DPDK "burst" semantics:
  /// enqueue as many as fit, in order). Returns the number enqueued.
  /// Complements try_push_bulk's all-or-nothing contract; the threaded
  /// data plane's ingress uses this so a nearly-full path ring absorbs
  /// the front of a burst instead of rejecting it whole.
  std::size_t try_push_burst(std::span<T> items) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t free = capacity() - static_cast<std::size_t>(head - tail);
    const std::size_t n = free < items.size() ? free : items.size();
    for (std::size_t i = 0; i < n; ++i)
      slots_[(head + i) & mask_] = std::move(items[i]);
    if (n > 0) head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Dequeue one item. Returns false when empty.
  bool try_pop(T& out) noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail == head) return false;
    out = std::move(slots_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Bulk dequeue of up to `out.size()` items (DPDK "burst" semantics).
  /// Returns the number dequeued.
  std::size_t try_pop_burst(std::span<T> out) noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    std::size_t avail = static_cast<std::size_t>(head - tail);
    std::size_t n = avail < out.size() ? avail : out.size();
    for (std::size_t i = 0; i < n; ++i)
      out[i] = std::move(slots_[(tail + i) & mask_]);
    if (n > 0) tail_.store(tail + n, std::memory_order_release);
    return n;
  }

 private:
  const std::size_t mask_;
  std::unique_ptr<T[]> slots_;
  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};  // producer cursor
  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};  // consumer cursor
};

// mask_ + slots_ share the first line; each cursor owns the next one.
static_assert(alignof(SpscRing<void*>) == kCacheLine &&
                  sizeof(SpscRing<void*>) == 3 * kCacheLine,
              "SpscRing cursors must sit on their own cache lines");

}  // namespace mdp::ring

// EventQueue: the discrete-event core. A min-heap of small POD keys
// (virtual time, insertion sequence, slot) over a slab of callbacks; ties
// in time break by insertion order so runs are fully deterministic for a
// given seed.
//
// The slab is allocated in fixed chunks that never move, so a callback
// runs in place even when it schedules enough events to grow the slab.
// Freed slots are reused LIFO. Together with UniqueFunction's inline
// storage, a steady-state schedule/step cycle allocates nothing.
//
// Lanes keep fixed-delay timers off the heap. A lane is a FIFO of the same
// keys: a timer whose deadline is no earlier than its lane's tail is
// appended there in O(1), any other goes to the heap, so every lane stays
// sorted. step() runs the least (time, sequence) key among the heap top and
// the lane heads, which is exactly the order a heap-only queue would run.
// A timer re-armed with one constant delay (a hedge deadline, a pacing
// gap) therefore never touches the heap.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/fifo_ring.hpp"
#include "sim/time.hpp"
#include "sim/unique_function.hpp"

namespace mdp::sim {

class EventQueue {
 public:
  using Callback = UniqueFunction<void()>;

  /// Handle of a FIFO timer lane (add_lane).
  struct Lane {
    std::uint32_t id;
  };

  TimeNs now() const noexcept { return now_; }

  /// Schedule `cb` at absolute virtual time `at_ns` (clamped to now()).
  void schedule_at(TimeNs at_ns, Callback cb) {
    if (at_ns < now_) at_ns = now_;
    push(Key{at_ns, seq_++, store(std::move(cb))});
  }

  /// Schedule `cb` `delay_ns` after now().
  void schedule_in(TimeNs delay_ns, Callback cb) {
    schedule_at(now_ + delay_ns, std::move(cb));
  }

  /// A new, empty timer lane. Lanes live as long as the queue.
  Lane add_lane() {
    lanes_.emplace_back();
    return Lane{static_cast<std::uint32_t>(lanes_.size() - 1)};
  }

  /// schedule_at through `lane`: runs in exactly the same order, but
  /// costs a FIFO append instead of a heap push when `at_ns` is no
  /// earlier than the lane's last pending deadline.
  void schedule_at(Lane lane, TimeNs at_ns, Callback cb) {
    if (at_ns < now_) at_ns = now_;
    Key k{at_ns, seq_++, store(std::move(cb))};
    FifoRing<Key>& q = lanes_[lane.id];
    if (q.empty() || q.back().at <= at_ns) {
      q.push_back(std::move(k));
      ++laned_;
    } else {
      push(k);
    }
  }

  /// schedule_in through `lane`.
  void schedule_in(Lane lane, TimeNs delay_ns, Callback cb) {
    schedule_at(lane, now_ + delay_ns, std::move(cb));
  }

  bool empty() const noexcept { return heap_.empty() && laned_ == 0; }
  std::size_t size() const noexcept { return heap_.size() + laned_; }
  std::uint64_t events_processed() const noexcept { return processed_; }

  /// Run the next event; returns false if none pending.
  bool step() {
    const std::size_t src = next_source();
    if (src == kNone) return false;
    run_from(src);
    return true;
  }

  /// Run events until the queue is drained.
  void run() {
    while (step()) {
    }
  }

  /// Run events with time <= until_ns; advances now() to until_ns.
  void run_until(TimeNs until_ns) {
    for (std::size_t src; (src = next_source()) != kNone &&
                          head(src).at <= until_ns;)
      run_from(src);
    if (now_ < until_ns) now_ = until_ns;
  }

  /// Discard all pending events WITHOUT executing them. Call this before
  /// tearing down objects the queued closures reference (packet pools,
  /// cores): closures may own packets whose deleters touch the pool, so
  /// they must be destroyed while it is still alive. Not callable from
  /// inside a callback.
  void clear() {
    for (const Key& k : heap_) discard(k);
    heap_.clear();
    for (FifoRing<Key>& q : lanes_)
      while (!q.empty()) {
        discard(q.front());
        q.pop_front();
      }
    laned_ = 0;
  }

 private:
  struct Key {
    TimeNs at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool before(const Key& a, const Key& b) noexcept {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  // Where the next event comes from: a lane index, kHeap or kNone.
  static constexpr std::size_t kHeap = ~std::size_t{0};
  static constexpr std::size_t kNone = kHeap - 1;

  std::size_t next_source() const noexcept {
    std::size_t src = heap_.empty() ? kNone : kHeap;
    if (laned_ == 0) return src;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (lanes_[i].empty()) continue;
      if (src == kNone || before(lanes_[i].front(), head(src))) src = i;
    }
    return src;
  }
  const Key& head(std::size_t src) const noexcept {
    return src == kHeap ? heap_.front() : lanes_[src].front();
  }

  void run_from(std::size_t src) {
    const Key top = head(src);
    if (src == kHeap) {
      pop();
    } else {
      lanes_[src].pop_front();
      --laned_;
    }
    now_ = top.at;
    ++processed_;
    // Run in place (chunks never move), then destroy the closure and
    // recycle its slot.
    Callback& cb = callback(top.slot);
    cb();
    cb = nullptr;
    free_.push_back(top.slot);
  }

  std::uint32_t store(Callback&& cb) {
    const std::uint32_t slot = acquire_slot();
    callback(slot) = std::move(cb);
    return slot;
  }
  void discard(const Key& k) {
    callback(k.slot) = nullptr;
    free_.push_back(k.slot);
  }

  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
  // Binary against 4-ary was measured on the plane's workloads; the
  // 4-ary heap is shallower and keeps a node's children in one or two
  // cache lines.
  static constexpr std::size_t kArity = 4;

  Callback& callback(std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkShift][slot & (kChunkSlots - 1)];
  }

  std::uint32_t acquire_slot() {
    if (free_.empty()) {
      const auto base = static_cast<std::uint32_t>(chunks_.size()) << kChunkShift;
      chunks_.push_back(std::make_unique<Callback[]>(kChunkSlots));
      free_.reserve(free_.size() + kChunkSlots);
      for (std::uint32_t i = kChunkSlots; i-- > 0;) free_.push_back(base + i);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }

  void push(Key k) {
    std::size_t i = heap_.size();
    heap_.push_back(k);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(k, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  // Remove the root: sift the last key down from the top.
  void pop() {
    const Key last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      for (std::size_t c = first + 1; c < end; ++c)
        if (before(heap_[c], heap_[best])) best = c;
      if (!before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }

  std::vector<Key> heap_;
  std::vector<FifoRing<Key>> lanes_;  // each sorted by (at, seq)
  std::size_t laned_ = 0;  // keys pending across all lanes
  std::vector<std::unique_ptr<Callback[]>> chunks_;
  std::vector<std::uint32_t> free_;
  TimeNs now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace mdp::sim

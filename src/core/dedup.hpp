// Deduplicator: the first-copy-wins half of the multipath merge stage
// (core::Merge pairs it with the ReorderBuffer). Every (flow, seq) is
// registered at dispatch time with its expected copy count; the first
// arriving copy passes, later copies are dropped. Entries retire when all
// copies are accounted for (arrived or cancelled), when their flow ends,
// or via the age sweep for copies a lossy wire never delivers.
//
// An entry can also hold a parked hedge: a borrowed pointer to the queued
// original, to be cloned if the hedge timer fires first. Retiring the entry
// disarms the hedge, so the pointer never outlives the copy it names.
//
// The entries live in one flat open-addressing table (linear probing,
// power-of-two slots, backward-shift erase, doubled when half full):
// nothing is allocated per packet, and the table only grows to the peak
// number of pending entries.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace mdp::net {
class Packet;
}

namespace mdp::core {

class Deduplicator {
 public:
  /// All 32 flow-id bits in the high word, the low 32 bits of the
  /// sequence in the low word: distinct (flow, seq) pairs never alias for
  /// seq < 2^32 (the plane's per-flow counters).
  static std::uint64_t key(std::uint32_t flow_id, std::uint64_t seq) noexcept {
    return std::uint64_t{flow_id} << 32 | static_cast<std::uint32_t>(seq);
  }

  Deduplicator() { rehash(kInitialSlots); }

  /// Register a packet about to be dispatched as `copies` copies. A key
  /// already pending keeps its entry.
  void expect(std::uint64_t k, std::uint8_t copies, sim::TimeNs now) {
    if (find(k)) return;
    if ((size_ + 1) * 2 > slots_.size()) rehash(slots_.size() * 2);
    std::size_t i = home(k);
    while (slots_[i].used) i = (i + 1) & mask_;
    slots_[i] = Slot{k, now, nullptr, copies, 0, true};
    ++size_;
  }

  /// A hedge added one more copy in flight.
  void add_expected(std::uint64_t k) {
    if (Slot* s = find(k)) ++s->expected;
  }

  /// A copy arrived. Returns true iff it is the first (should egress).
  bool accept(std::uint64_t k) {
    Slot* s = find(k);
    if (!s) {
      // Unknown: either already retired (late copy after sweep) or never
      // registered. Treat as duplicate — never double-deliver.
      ++late_drops_;
      return false;
    }
    bool first = (s->seen == 0);
    ++s->seen;
    if (!first) ++dup_drops_;
    if (s->seen >= s->expected) erase(s);
    return first;
  }

  /// A copy was filtered in-chain and will never arrive.
  void cancel_one(std::uint64_t k) {
    Slot* s = find(k);
    if (!s) return;
    if (s->expected > 0) --s->expected;
    if (s->seen >= s->expected) erase(s);
  }

  /// True if the first copy has already egressed (hedge check).
  bool completed(std::uint64_t k) const {
    const Slot* s = find(k);
    return !s || s->seen > 0;
  }

  /// Arm a hedge for a pending key (no-op otherwise): `original` is
  /// borrowed until take() or the entry retires.
  void park(std::uint64_t k, net::Packet* original) {
    if (Slot* s = find(k)) s->parked = original;
  }

  /// Disarm the key's hedge: the parked original, or null if none is
  /// parked (never armed, already taken, or the entry retired).
  net::Packet* take(std::uint64_t k) {
    Slot* s = find(k);
    return s ? std::exchange(s->parked, nullptr) : nullptr;
  }

  /// Drop entries older than `max_age` (copies lost in-chain). Returns
  /// the number swept.
  std::size_t sweep(sim::TimeNs now, sim::TimeNs max_age) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < slots_.size();) {
      Slot& s = slots_[i];
      if (s.used && now - s.created_ns > max_age) {
        // The backward shift may move a later entry into slot i (or an
        // already kept one from the table's start): look at i again.
        erase(&s);
        ++n;
      } else {
        ++i;
      }
    }
    swept_ += n;
    return n;
  }

  /// Flow completed: retire its pending entries with seq < `seq_end` (the
  /// flow's next sequence number; every seq it ever registered). Any copy
  /// still in flight then counts as a late drop on arrival (and is
  /// released by the caller — never double-delivered, never leaked).
  /// Probes one key per sequence, so the cost follows the flow's length,
  /// not the table's size. Returns the number of entries released.
  std::size_t release_flow(std::uint32_t flow_id, std::uint64_t seq_end) {
    std::size_t n = 0;
    for (std::uint64_t seq = 0; seq < seq_end && size_ > 0; ++seq)
      if (Slot* s = find(key(flow_id, seq))) {
        erase(s);
        ++n;
      }
    return n;
  }

  std::size_t pending() const noexcept { return size_; }
  std::uint64_t dup_drops() const noexcept { return dup_drops_; }
  std::uint64_t late_drops() const noexcept { return late_drops_; }
  std::uint64_t swept() const noexcept { return swept_; }

 private:
  struct Slot {
    std::uint64_t key;
    sim::TimeNs created_ns;
    net::Packet* parked;  ///< hedge armed on this queued original
    std::uint8_t expected;
    std::uint8_t seen;
    bool used;
  };

  static constexpr std::size_t kInitialSlots = 64;

  // Fibonacci hashing: the multiply mixes every key bit into the top
  // bits, which pick the slot.
  std::size_t home(std::uint64_t k) const noexcept {
    return static_cast<std::size_t>((k * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  Slot* find(std::uint64_t k) {
    for (std::size_t i = home(k);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.key == k) return &s;
    }
  }
  const Slot* find(std::uint64_t k) const {
    return const_cast<Deduplicator*>(this)->find(k);
  }

  // Backward-shift deletion: pull each later entry of the probe run back
  // into the hole unless that would move it before its home slot, so
  // lookups never need tombstones.
  void erase(Slot* s) {
    std::size_t hole = static_cast<std::size_t>(s - slots_.data());
    for (std::size_t j = (hole + 1) & mask_; slots_[j].used;
         j = (j + 1) & mask_) {
      const std::size_t h = home(slots_[j].key);
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].used = false;
    --size_;
  }

  void rehash(std::size_t slots) {
    std::vector<Slot> old(slots, Slot{});
    old.swap(slots_);
    mask_ = slots - 1;
    shift_ = 64;
    for (std::size_t s = slots; s > 1; s >>= 1) --shift_;
    for (const Slot& s : old) {
      if (!s.used) continue;
      std::size_t i = home(s.key);
      while (slots_[i].used) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
  std::uint64_t dup_drops_ = 0;
  std::uint64_t late_drops_ = 0;
  std::uint64_t swept_ = 0;
};

}  // namespace mdp::core

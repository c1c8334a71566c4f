// Deduplicator: the first-copy-wins half of the multipath merge stage
// (core::Merge pairs it with the ReorderBuffer). Every (flow, seq) is
// registered at dispatch time with its expected copy count; the first
// arriving copy passes, later copies are dropped. Entries retire when all
// copies are accounted for (arrived or cancelled), or via the age sweep
// for copies a lossy wire never delivers.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "sim/time.hpp"

namespace mdp::core {

class Deduplicator {
 public:
  /// All 32 flow-id bits in the high word, the low 32 bits of the
  /// sequence in the low word: distinct (flow, seq) pairs never alias for
  /// seq < 2^32 (the plane's per-flow counters).
  static std::uint64_t key(std::uint32_t flow_id, std::uint64_t seq) noexcept {
    return std::uint64_t{flow_id} << 32 | static_cast<std::uint32_t>(seq);
  }

  /// Register a packet about to be dispatched as `copies` copies.
  void expect(std::uint64_t k, std::uint8_t copies, sim::TimeNs now) {
    entries_.emplace(k, Entry{copies, 0, now});
  }

  /// A hedge added one more copy in flight.
  void add_expected(std::uint64_t k) {
    auto it = entries_.find(k);
    if (it != entries_.end()) ++it->second.expected;
  }

  /// A copy arrived. Returns true iff it is the first (should egress).
  bool accept(std::uint64_t k) {
    auto it = entries_.find(k);
    if (it == entries_.end()) {
      // Unknown: either already retired (late copy after sweep) or never
      // registered. Treat as duplicate — never double-deliver.
      ++late_drops_;
      return false;
    }
    Entry& e = it->second;
    bool first = (e.seen == 0);
    ++e.seen;
    if (!first) ++dup_drops_;
    if (e.seen >= e.expected) entries_.erase(it);
    return first;
  }

  /// A copy was filtered in-chain and will never arrive.
  void cancel_one(std::uint64_t k) {
    auto it = entries_.find(k);
    if (it == entries_.end()) return;
    Entry& e = it->second;
    if (e.expected > 0) --e.expected;
    if (e.seen >= e.expected) entries_.erase(it);
  }

  /// True if the first copy has already egressed (hedge check).
  bool completed(std::uint64_t k) const {
    auto it = entries_.find(k);
    return it == entries_.end() || it->second.seen > 0;
  }

  /// Drop entries older than `max_age` (copies lost in-chain). Returns
  /// the number swept.
  std::size_t sweep(sim::TimeNs now, sim::TimeNs max_age) {
    std::size_t n = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (now - it->second.created_ns > max_age) {
        it = entries_.erase(it);
        ++n;
      } else {
        ++it;
      }
    }
    swept_ += n;
    return n;
  }

  /// Flow completed: retire its pending per-sequence entries. Any copy
  /// still in flight then counts as a late drop on arrival (and is
  /// released by the caller — never double-delivered, never leaked).
  /// Matches on the key's high word, so every 32-bit flow id. Returns the
  /// number of entries released.
  std::size_t release_flow(std::uint32_t flow_id) {
    std::size_t n = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (static_cast<std::uint32_t>(it->first >> 32) == flow_id) {
        it = entries_.erase(it);
        ++n;
      } else {
        ++it;
      }
    }
    return n;
  }

  std::size_t pending() const noexcept { return entries_.size(); }
  std::uint64_t dup_drops() const noexcept { return dup_drops_; }
  std::uint64_t late_drops() const noexcept { return late_drops_; }
  std::uint64_t swept() const noexcept { return swept_; }

 private:
  struct Entry {
    std::uint8_t expected;
    std::uint8_t seen;
    sim::TimeNs created_ns;
  };
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::uint64_t dup_drops_ = 0;
  std::uint64_t late_drops_ = 0;
  std::uint64_t swept_ = 0;
};

}  // namespace mdp::core

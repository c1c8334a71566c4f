// Merge: the multipath egress merge stage. The paper's merge point is one
// rule: the first copy of each (flow, seq) wins (Deduplicator), then each
// flow's winners are put back in sequence (ReorderBuffer) and emitted.
// Merge owns both halves, keyed by (flow, seq), so no caller wires them by
// hand. receive() hands the losing copies back to the caller for its own
// accounting (counters, late-copy evidence, recorder events) before they
// recycle. Both clocks come from the resequencer's EventQueue.
#pragma once

#include <cstdint>
#include <span>

#include "core/dedup.hpp"
#include "core/reorder.hpp"

namespace mdp::core {

class Merge {
 public:
  using Emit = ReorderBuffer::Emit;

  Merge(sim::EventQueue& eq, ReorderConfig cfg, Emit emit)
      : eq_(eq), reorder_(eq, cfg, std::move(emit)) {}

  // --- dispatch side ----------------------------------------------------------
  /// (flow, seq) is about to leave as `copies` copies.
  void expect(std::uint32_t flow, std::uint64_t seq, std::uint8_t copies) {
    dedup_.expect(Deduplicator::key(flow, seq), copies, eq_.now());
  }
  /// A hedge put one more copy in flight.
  void add_copy(std::uint32_t flow, std::uint64_t seq) {
    dedup_.add_expected(Deduplicator::key(flow, seq));
  }
  /// Arm a hedge on (flow, seq): `original` is the queued copy, borrowed
  /// (not owned) until take_hedge() or until the entry retires (arrival,
  /// cancel_copy, end_flow, sweep), whichever comes first. The caller must
  /// keep `original` alive and unmodified until then.
  void park_hedge(std::uint32_t flow, std::uint64_t seq,
                  net::Packet* original) {
    dedup_.park(Deduplicator::key(flow, seq), original);
  }
  /// The hedge's timer fired: the still-queued original to clone, or null
  /// if the hedge was disarmed meanwhile (its entry retired).
  net::Packet* take_hedge(std::uint32_t flow, std::uint64_t seq) {
    return dedup_.take(Deduplicator::key(flow, seq));
  }
  /// A copy will never arrive (chain filter, queue drop, pool exhaustion).
  void cancel_copy(std::uint32_t flow, std::uint64_t seq) {
    dedup_.cancel_one(Deduplicator::key(flow, seq));
  }
  /// True once a first copy has arrived (or the entry retired).
  bool delivered(std::uint32_t flow, std::uint64_t seq) const {
    return dedup_.completed(Deduplicator::key(flow, seq));
  }

  // --- receive side -----------------------------------------------------------
  /// One arriving copy (anno().flow_id / seq valid). A first copy goes to
  /// the resequencer and null comes back; a duplicate or late copy is
  /// handed back to the caller.
  net::PacketPtr receive(net::PacketPtr pkt);

  /// A drained burst, in arrival order: exactly a receive() per non-null
  /// slot. First copies leave their slots (null afterwards); losing copies
  /// stay put for the caller. Returns the number of first copies.
  std::size_t receive(std::span<net::PacketPtr> burst);

  // --- housekeeping -----------------------------------------------------------
  /// Retire dedup entries older than `max_age` (copies lost in flight).
  std::size_t sweep(sim::TimeNs max_age) {
    return dedup_.sweep(eq_.now(), max_age);
  }
  /// Flow completed: retire its dedup entries (every seq below `seq_end`,
  /// the flow's next sequence number) and its resequencing window
  /// (deferred while the resequencer is emitting, so this may be called
  /// from the emit callback). Copies still in flight become late drops.
  /// The flow id must not be reused afterwards.
  void end_flow(std::uint32_t flow_id, std::uint64_t seq_end) {
    dedup_.release_flow(flow_id, seq_end);
    reorder_.end_flow(flow_id);
  }
  /// Release everything held for resequencing now (path down, teardown).
  std::size_t flush_all() { return reorder_.flush_all(); }

  const Deduplicator& dedup() const noexcept { return dedup_; }
  const ReorderBuffer& reorder() const noexcept { return reorder_; }

 private:
  sim::EventQueue& eq_;
  Deduplicator dedup_;
  ReorderBuffer reorder_;
};

}  // namespace mdp::core

// ReorderBuffer: per-flow resequencer at the multipath egress.
//
// Multipath dispatch can deliver a flow's packets out of order (different
// paths drain at different speeds). The buffer holds early packets until
// their predecessors arrive, releasing in sequence; a timeout bounds the
// dwell when a predecessor was dropped in-chain, after which the window
// advances past the hole.
//
// When disabled it still *detects* out-of-order deliveries (Fig 10's
// "no reorder buffer" series) but emits immediately.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sim/event_queue.hpp"
#include "stats/histogram.hpp"

namespace mdp::core {

struct ReorderConfig {
  bool enabled = true;
  sim::TimeNs timeout_ns = 200'000;  ///< max dwell waiting for a hole
};

class ReorderBuffer {
 public:
  using Emit = std::function<void(net::PacketPtr)>;

  ReorderBuffer(sim::EventQueue& eq, ReorderConfig cfg, Emit emit)
      : eq_(eq), cfg_(cfg), emit_(std::move(emit)) {}

  /// Hand over a deduplicated packet (anno.flow_id / anno.seq valid).
  void submit(net::PacketPtr pkt);

  /// Path-down / teardown flush: release every buffered packet NOW, in
  /// per-flow seq order, advancing each flow's window past its holes
  /// (predecessors stranded on a dead path will never arrive, so waiting
  /// out the timeout only adds tail latency). Ownership moves through
  /// emit_ — the consumer's drop recycles each PacketPtr into its pool —
  /// and all dwell/arrival bookkeeping is cleared, so a pool-leak audit
  /// (PacketPool::in_use() == 0 at quiesce) passes without manual
  /// inspection. Returns the number of packets released.
  std::size_t flush_all();

  /// Flow completed: drop its window (packets still held leave now, in seq
  /// order, counted as flushed). Safe to call from inside the emit
  /// callback: the erase then waits until the submit, timeout or flush
  /// that is emitting returns. The flow id must not be reused afterwards —
  /// a reused id would start a fresh window at seq 0.
  void end_flow(std::uint32_t flow_id);

  // --- stats --------------------------------------------------------------
  std::uint64_t in_order() const noexcept { return in_order_; }
  std::uint64_t out_of_order() const noexcept { return out_of_order_; }
  std::uint64_t timeout_releases() const noexcept {
    return timeout_releases_;
  }
  std::uint64_t late_after_skip() const noexcept { return late_after_skip_; }
  std::uint64_t flushed() const noexcept { return flushed_; }
  std::size_t buffered() const noexcept { return buffered_count_; }
  /// Flows with a live window (retired by end_flow).
  std::size_t tracked_flows() const noexcept { return flows_.size(); }
  const stats::LatencyHistogram& dwell() const noexcept { return dwell_; }
  double ooo_fraction() const noexcept {
    std::uint64_t total = in_order_ + out_of_order_;
    return total ? static_cast<double>(out_of_order_) /
                       static_cast<double>(total)
                 : 0.0;
  }

 private:
  struct Held {
    net::PacketPtr pkt;
    sim::TimeNs arrived_ns;
  };
  struct FlowState {
    std::uint64_t next_expected = 0;
    std::map<std::uint64_t, Held> pending;  // seq-ordered
    bool timer_armed = false;
  };
  /// Marks an entry point that may emit while holding a FlowState&;
  /// end_flow requests made meanwhile are erased when the outermost one
  /// returns.
  struct Busy;

  std::size_t drain(FlowState& st);  // returns the number released
  std::size_t release_held(FlowState& st);
  void arm_timer(std::uint32_t flow_id, FlowState& st);
  void on_timeout(std::uint32_t flow_id);
  void release(FlowState& st, net::PacketPtr pkt, sim::TimeNs arrived_ns);
  void retire(std::uint32_t flow_id);

  sim::EventQueue& eq_;
  ReorderConfig cfg_;
  Emit emit_;
  std::unordered_map<std::uint32_t, FlowState> flows_;
  std::size_t busy_depth_ = 0;
  std::vector<std::uint32_t> ended_;  // end_flow requests made while busy
  std::uint64_t in_order_ = 0;
  std::uint64_t out_of_order_ = 0;
  std::uint64_t timeout_releases_ = 0;
  std::uint64_t late_after_skip_ = 0;
  std::uint64_t flushed_ = 0;
  std::size_t buffered_count_ = 0;
  stats::LatencyHistogram dwell_;
};

}  // namespace mdp::core

// RpcWorkload: flow-level workload for flow-completion-time experiments.
//
// Requests (flows) arrive Poisson; each flow's size is drawn from a
// flow-size CDF, segmented into MSS-sized packets injected with a small
// serialization gap. The experiment calls on_packet_egress() for every
// packet leaving the data plane; a flow completes when its last packet
// egresses, and its FCT lands in the short-/mid-/long-flow histogram.
#pragma once

#include <functional>
#include <unordered_map>

#include "net/packet_builder.hpp"
#include "net/packet_pool.hpp"
#include "sim/distributions.hpp"
#include "sim/event_queue.hpp"
#include "stats/histogram.hpp"

namespace mdp::workload {

struct RpcWorkloadConfig {
  std::uint64_t seed = 7;
  double mean_interarrival_ns = 200'000;  ///< flow arrival rate
  std::size_t mss = 1448;                 ///< payload bytes per packet
  sim::TimeNs pacing_gap_ns = 1'000;      ///< gap between a flow's packets
  std::size_t max_packets_per_flow = 512; ///< elephants truncated (sim cap)
  double short_flow_cutoff_bytes = 100'000;
};

class RpcWorkload {
 public:
  using Sink = std::function<void(net::PacketPtr)>;
  using FlowDone = std::function<void(std::uint32_t flow_id)>;

  RpcWorkload(sim::EventQueue& eq, net::PacketPool& pool,
              RpcWorkloadConfig cfg, sim::DistributionPtr flow_sizes,
              Sink sink);

  /// Launch `num_flows` flow arrivals.
  void start(std::uint64_t num_flows);

  /// Notify that a packet of `flow_id` left the data plane at `now_ns`.
  void on_packet_egress(std::uint32_t flow_id, sim::TimeNs now_ns);

  /// Invoked once per completed flow, after its FCT is recorded — lets
  /// the plane retire per-flow replication/dedup state promptly
  /// (MdpDataPlane::end_flow).
  void set_flow_done(FlowDone fn) { flow_done_ = std::move(fn); }

  const stats::LatencyHistogram& short_fct() const noexcept {
    return short_fct_;
  }
  const stats::LatencyHistogram& long_fct() const noexcept {
    return long_fct_;
  }
  const stats::LatencyHistogram& all_fct() const noexcept { return all_fct_; }
  std::uint64_t flows_started() const noexcept { return flows_started_; }
  std::uint64_t flows_completed() const noexcept { return flows_completed_; }
  /// Flows whose packets were partially lost (never completed).
  std::uint64_t flows_incomplete() const noexcept {
    return flows_started_ - flows_completed_;
  }

 private:
  void schedule_next_flow();
  void launch_flow();
  void emit_packet(std::uint32_t flow_id, std::uint32_t pkt_idx);

  struct FlowState {
    std::uint32_t packets_expected = 0;
    std::uint32_t packets_done = 0;
    sim::TimeNs start_ns = 0;
    double bytes = 0;
  };

  sim::EventQueue& eq_;
  net::PacketPool& pool_;
  RpcWorkloadConfig cfg_;
  sim::DistributionPtr flow_sizes_;
  Sink sink_;
  FlowDone flow_done_;
  sim::Rng rng_;
  sim::Exponential interarrival_;
  // Next-packet timers: one fixed gap puts them in arming order.
  sim::EventQueue::Lane pacing_lane_;
  std::unordered_map<std::uint32_t, FlowState> flows_;
  std::uint64_t remaining_ = 0;
  std::uint64_t flows_started_ = 0;
  std::uint64_t flows_completed_ = 0;
  std::uint32_t next_flow_id_ = 1;
  stats::LatencyHistogram short_fct_;
  stats::LatencyHistogram long_fct_;
  stats::LatencyHistogram all_fct_;
};

}  // namespace mdp::workload

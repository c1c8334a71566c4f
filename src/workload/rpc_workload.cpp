#include "workload/rpc_workload.hpp"

#include <algorithm>

namespace mdp::workload {

RpcWorkload::RpcWorkload(sim::EventQueue& eq, net::PacketPool& pool,
                         RpcWorkloadConfig cfg,
                         sim::DistributionPtr flow_sizes, Sink sink)
    : eq_(eq),
      pool_(pool),
      cfg_(cfg),
      flow_sizes_(std::move(flow_sizes)),
      sink_(std::move(sink)),
      rng_(cfg.seed),
      interarrival_(cfg.mean_interarrival_ns),
      pacing_lane_(eq.add_lane()) {}

void RpcWorkload::start(std::uint64_t num_flows) {
  remaining_ = num_flows;
  schedule_next_flow();
}

void RpcWorkload::schedule_next_flow() {
  if (remaining_ == 0) return;
  auto gap = static_cast<sim::TimeNs>(
      std::max(1.0, interarrival_.sample(rng_)));
  eq_.schedule_in(gap, [this] {
    if (remaining_ == 0) return;
    --remaining_;
    launch_flow();
    schedule_next_flow();
  });
}

void RpcWorkload::launch_flow() {
  std::uint32_t flow_id = next_flow_id_++;
  double bytes = flow_sizes_->sample(rng_);
  auto pkts = static_cast<std::uint32_t>(
      std::clamp<double>(std::ceil(bytes / cfg_.mss), 1.0,
                         static_cast<double>(cfg_.max_packets_per_flow)));
  FlowState st;
  st.packets_expected = pkts;
  st.start_ns = eq_.now();
  st.bytes = bytes;
  flows_.emplace(flow_id, st);
  ++flows_started_;
  emit_packet(flow_id, 0);
}

void RpcWorkload::emit_packet(std::uint32_t flow_id, std::uint32_t pkt_idx) {
  auto it = flows_.find(flow_id);
  if (it == flows_.end()) return;
  const FlowState& st = it->second;
  // Read before the sink runs: an egress inside it may retire the flow.
  const std::uint32_t packets_expected = st.packets_expected;

  net::BuildSpec spec;
  spec.flow.src_ip = 0x0b000000 | (flow_id & 0x00ffffff);
  spec.flow.dst_ip = 0x0a006401;
  spec.flow.src_port = static_cast<std::uint16_t>(1024 + (flow_id % 60000));
  spec.flow.dst_port = 80;
  // Last packet may be short.
  double remaining_bytes =
      st.bytes - static_cast<double>(pkt_idx) * cfg_.mss;
  std::size_t payload = cfg_.mss;
  if (remaining_bytes < cfg_.mss)
    payload = std::max<std::size_t>(
        18, static_cast<std::size_t>(std::max(1.0, remaining_bytes)));
  spec.payload_len = payload;
  net::PacketPtr pkt = net::build_udp(pool_, spec);
  if (pkt) {
    auto& a = pkt->anno();
    a.flow_id = flow_id;
    a.ingress_ns = eq_.now();
    a.flow_bytes = static_cast<std::uint32_t>(
        std::min<double>(st.bytes, 4e9));
    // Short flows are the latency-critical ones in FCT experiments.
    a.traffic_class = st.bytes <= cfg_.short_flow_cutoff_bytes
                          ? net::TrafficClass::kLatencyCritical
                          : net::TrafficClass::kBestEffort;
    sink_(std::move(pkt));
  }
  std::uint32_t next = pkt_idx + 1;
  if (next < packets_expected) {
    eq_.schedule_in(pacing_lane_, cfg_.pacing_gap_ns,
                    [this, flow_id, next] { emit_packet(flow_id, next); });
  }
}

void RpcWorkload::on_packet_egress(std::uint32_t flow_id,
                                   sim::TimeNs now_ns) {
  auto it = flows_.find(flow_id);
  if (it == flows_.end()) return;
  FlowState& st = it->second;
  if (++st.packets_done < st.packets_expected) return;

  sim::TimeNs fct = now_ns - st.start_ns;
  all_fct_.record(fct);
  if (st.bytes <= cfg_.short_flow_cutoff_bytes) {
    short_fct_.record(fct);
  } else {
    long_fct_.record(fct);
  }
  ++flows_completed_;
  flows_.erase(it);
  if (flow_done_) flow_done_(flow_id);
}

}  // namespace mdp::workload

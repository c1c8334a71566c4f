// MdpDataPlane: the multipath last mile, assembled.
//
//                      +-- path 0: SimCore --> chain replica --+
//   ingress -> sched --+-- path 1: SimCore --> chain replica --+--> merge
//                      +-- ...           |                     | (dedup +
//                                        v                     |  reorder)
//                      per-plane NF state (NAT, LB, conntrack) +---> egress
//
// Each path is one simulated worker core (queueing model, see SimCore)
// running its own functional replica of the NF chain (real Click elements:
// the firewall really filters, the NAT really rewrites). The replicas'
// stateful elements share one per-flow state store per NF, owned by path
// 0's chain (nf::build_chain replica_of): whichever path a packet or its
// copy takes, its flow has one NAT binding, one LB backend and one
// tracked connection. The service time charged on the core is the chain's
// cost-model time with lognormal jitter; when the job completes, the
// packet is pushed through the chain replica for its functional effect,
// then merged by core::Merge (first-copy-wins dedup, per-flow
// resequencing), and finally handed to the egress callback. end_flow
// retires the plane's own per-flow entries (replication decision, dedup
// entries, resequencing window, sequence counter); per-flow NF state
// (NAT, LB, conntrack) follows the NF tables' own expiry.
//
// A single-copy packet may be hedged: its merge entry holds a borrowed
// pointer to the queued original, which is cloned onto another path only
// if the hedge deadline passes first. Until its completion runs the chain
// the original is unchanged, and whatever retires the merge entry
// (arrival, drop, filter, end_flow) disarms the hedge.
//
// Interference is attached from outside (see sim::InterferenceModel) onto
// any subset of the path cores — that is the "noisy neighbor" of the
// experiments.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "click/router.hpp"
#include "core/flow_replicator.hpp"
#include "core/merge.hpp"
#include "core/path_monitor.hpp"
#include "core/scheduler.hpp"
#include "net/packet_pool.hpp"
#include "nf/chain.hpp"
#include "sim/distributions.hpp"
#include "sim/event_queue.hpp"
#include "sim/sim_core.hpp"
#include "stats/counters.hpp"
#include "trace/tracer.hpp"

namespace mdp::core {

/// Fixed hot-path counter set bumped per packet (enum-indexed; see
/// stats::EnumCounters). Ad-hoc/cold counters stay on the string API.
enum class DpCounter : std::uint8_t {
  kIngress = 0,
  kEgress,
  kDispatched,
  kReplicas,
  kFlowReplicas,
  kHedges,
  kDupDropped,
  kQueueDrops,
  kChainFiltered,
  kCount,
};

const char* dp_counter_name(DpCounter c) noexcept;

struct DataPlaneConfig {
  std::size_t num_paths = 4;
  std::string chain = "fw-nat-lb";  ///< nf::ChainSpec preset name
  /// Lognormal sigma on the per-packet service time (0 = deterministic).
  double service_jitter_sigma = 0.25;
  /// Additional service cost per payload byte (models touch cost).
  double per_byte_ns = 0.15;
  /// Dispatch latency-critical packets ahead of queued best-effort work
  /// on their path core (strict priority). The classic alternative to
  /// multipath — helps against queueing but not against CPU theft, which
  /// stalls the whole core regardless of queue order (Fig 12 ablation).
  bool lc_priority = false;
  /// Per-path ingress queue bound (jobs waiting on the core). 0 =
  /// unbounded. Real vNIC/vhost queues are bounded; overload then shows
  /// up as drops instead of unbounded delay.
  std::size_t path_queue_capacity = 0;
  ReorderConfig reorder{};
  /// Flow-granularity replication (RepNet), fixed when the plane is
  /// built. Disabled by default. When enabled, a replicated flow's
  /// packets travel as flow replicas and every other packet may still be
  /// hedged.
  FlowReplicatorConfig flow_repl{};
  std::uint64_t seed = 42;
};

class MdpDataPlane final : public PathContext {
 public:
  using Egress = std::function<void(net::PacketPtr)>;

  MdpDataPlane(sim::EventQueue& eq, net::PacketPool& pool,
               DataPlaneConfig cfg, SchedulerPtr scheduler);
  ~MdpDataPlane() override;

  /// Egress sink for merged, in-order traffic. anno().egress_ns is set.
  void set_egress(Egress egress) { egress_ = std::move(egress); }

  /// Entry point: one packet from the NIC/workload into the last mile.
  void ingress(net::PacketPtr pkt);

  /// Access a path's core, e.g. to attach an InterferenceModel.
  sim::SimCore& core(std::size_t path) { return *paths_[path].core; }
  /// Mark a path administratively up/down (failure injection).
  void set_path_up(std::size_t path, bool up) { paths_[path].up = up; }

  /// Flow completed (workload signal): forget its replication decision,
  /// its merge state (dedup entries, resequencing window) and its
  /// sequence counter. Copies still in flight become late drops —
  /// released, never double-delivered. May be called from the egress
  /// callback. A flow id must not be reused after end_flow: its sequence
  /// would restart at 0 (RpcWorkload allocates ids in increasing order).
  void end_flow(std::uint32_t flow_id) {
    if (replicator_) replicator_->erase(flow_id);
    auto it = next_seq_.find(flow_id);
    merge_.end_flow(flow_id, it != next_seq_.end() ? it->second : 0);
    if (it != next_seq_.end()) next_seq_.erase(it);
  }

  // --- PathContext (the scheduler's view) -----------------------------------
  std::size_t num_paths() const override { return paths_.size(); }
  bool up(std::size_t path) const override { return paths_[path].up; }
  /// Schedulers see the *observable* backlog: their own queued packets.
  /// Interference in progress is invisible at dispatch time, exactly as a
  /// hypervisor-preempted core looks to a vSwitch dispatcher.
  sim::TimeNs backlog_ns(std::size_t path) const override {
    return paths_[path].core->visible_backlog_ns();
  }
  std::size_t queue_depth(std::size_t path) const override {
    return paths_[path].core->queue_depth();
  }
  std::uint64_t inflight(std::size_t path) const override {
    return monitor_.inflight(path);
  }
  double ewma_latency_ns(std::size_t path) const override {
    return monitor_.ewma_latency_ns(path);
  }
  sim::TimeNs now() const override { return eq_.now(); }

  /// Attach (or detach with nullptr) a stage tracer. Spans are stamped
  /// only while a tracer is attached and enabled; the disabled cost is
  /// one pointer test per stage.
  void set_tracer(trace::Tracer* tracer) noexcept { tracer_ = tracer; }
  trace::Tracer* tracer() const noexcept { return tracer_; }

  // --- introspection ----------------------------------------------------------
  PathMonitor& monitor() noexcept { return monitor_; }
  const PathMonitor& monitor() const noexcept { return monitor_; }
  const Deduplicator& dedup() const noexcept { return merge_.dedup(); }
  const ReorderBuffer& reorder() const noexcept { return merge_.reorder(); }
  /// Mutable access for control-plane actuation (Merge::flush_all when
  /// draining a quarantined path; see ctrl::SimPlaneActuator).
  Merge& merge() noexcept { return merge_; }
  /// Flows holding a sequence counter (retired by end_flow).
  std::size_t seq_tracked_flows() const noexcept { return next_seq_.size(); }
  Scheduler& scheduler() noexcept { return *scheduler_; }
  /// nullptr unless cfg.flow_repl.enabled. Mutable so owners can wire
  /// the per-tenant token hook (ctrl::TenantAdmission).
  FlowReplicator* flow_replicator() noexcept { return replicator_.get(); }
  const FlowReplicator* flow_replicator() const noexcept {
    return replicator_.get();
  }
  /// Materialized view of hot-path (enum) + ad-hoc (string) counters.
  stats::CounterSet counters() const;
  const stats::EnumCounters<DpCounter>& fast_counters() const noexcept {
    return fast_counters_;
  }
  /// Register every data-plane metric (counters, per-path telemetry,
  /// dedup/reorder stats, dwell histogram) with a StatsRegistry. The
  /// registry's snapshot() must not outlive this data plane.
  void register_stats(trace::StatsRegistry& reg) const;
  const DataPlaneConfig& config() const noexcept { return cfg_; }
  sim::TimeNs chain_cost_ns() const noexcept { return chain_cost_ns_; }
  click::Router& router() noexcept { return router_; }

  std::uint64_t ingress_count() const noexcept { return ingress_count_; }
  std::uint64_t egress_count() const noexcept { return egress_count_; }

  // --- duplicate-byte accounting (FCT benchmarks) -----------------------------
  /// Payload bytes that entered at ingress (one count per packet).
  std::uint64_t ingress_bytes() const noexcept { return ingress_bytes_; }
  /// Payload bytes spent on redundant copies (scheduler replicas, flow
  /// replicas, and fired hedges).
  std::uint64_t extra_copy_bytes() const noexcept { return extra_copy_bytes_; }
  /// Fraction of all transmitted bytes that were duplicates.
  double duplicate_byte_fraction() const noexcept {
    const std::uint64_t total = ingress_bytes_ + extra_copy_bytes_;
    return total ? static_cast<double>(extra_copy_bytes_) /
                       static_cast<double>(total)
                 : 0.0;
  }

 private:
  struct Path {
    std::unique_ptr<sim::SimCore> core;
    click::Element* chain_head = nullptr;
    bool up = true;
  };

  void dispatch(std::uint16_t path, net::PacketPtr pkt);
  void on_path_complete(std::uint16_t path, net::PacketPtr pkt);
  void on_egress(net::PacketPtr pkt);
  void arm_hedge(std::uint16_t original_path, sim::TimeNs timeout,
                 net::Packet& original);
  sim::TimeNs service_time(const net::Packet& pkt);

  sim::EventQueue& eq_;
  net::PacketPool& pool_;
  DataPlaneConfig cfg_;
  SchedulerPtr scheduler_;
  click::Router router_;
  std::vector<Path> paths_;
  PathMonitor monitor_;
  Merge merge_;
  // Hedge deadlines: a fixed timeout puts them in arming order.
  sim::EventQueue::Lane hedge_lane_;
  std::unique_ptr<FlowReplicator> replicator_;
  Egress egress_;
  sim::Rng rng_;
  sim::LogNormal jitter_;
  sim::TimeNs chain_cost_ns_ = 0;
  stats::EnumCounters<DpCounter> fast_counters_;
  trace::Tracer* tracer_ = nullptr;
  std::unordered_map<std::uint32_t, std::uint64_t> next_seq_;
  std::uint64_t ingress_count_ = 0;
  std::uint64_t egress_count_ = 0;
  std::uint64_t ingress_bytes_ = 0;
  std::uint64_t extra_copy_bytes_ = 0;
  bool egress_consumed_ = false;  // set by PathEgress during a chain push
  PathVec select_buf_;
};

}  // namespace mdp::core

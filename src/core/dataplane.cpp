#include "core/dataplane.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "core/path_egress.hpp"

namespace mdp::core {

const char* dp_counter_name(DpCounter c) noexcept {
  switch (c) {
    case DpCounter::kIngress: return "ingress";
    case DpCounter::kEgress: return "egress";
    case DpCounter::kDispatched: return "dispatched";
    case DpCounter::kReplicas: return "replicas";
    case DpCounter::kFlowReplicas: return "flow_replicas";
    case DpCounter::kHedges: return "hedges";
    case DpCounter::kDupDropped: return "dup_dropped";
    case DpCounter::kQueueDrops: return "queue_drops";
    case DpCounter::kChainFiltered: return "chain_filtered";
    case DpCounter::kCount: break;
  }
  return "?";
}

MdpDataPlane::MdpDataPlane(sim::EventQueue& eq, net::PacketPool& pool,
                           DataPlaneConfig cfg, SchedulerPtr scheduler)
    : eq_(eq),
      pool_(pool),
      cfg_(cfg),
      scheduler_(std::move(scheduler)),
      router_(click::Router::Context{&eq, &pool}),
      monitor_(cfg.num_paths),
      merge_(eq, cfg.reorder,
             [this](net::PacketPtr pkt) { on_egress(std::move(pkt)); }),
      hedge_lane_(eq.add_lane()),
      rng_(cfg.seed),
      // Unit-mean lognormal: mu = -sigma^2/2.
      jitter_(-cfg.service_jitter_sigma * cfg.service_jitter_sigma / 2,
              cfg.service_jitter_sigma) {
  if (cfg_.num_paths == 0) throw std::invalid_argument("num_paths == 0");
  if (!scheduler_) throw std::invalid_argument("null scheduler");

  if (cfg_.flow_repl.enabled)
    replicator_ = std::make_unique<FlowReplicator>(cfg_.flow_repl);

  nf::ChainSpec spec = nf::ChainSpec::preset(cfg_.chain);
  std::string err;
  // Path 0's chain owns the per-flow NF state; paths 1..k-1 bind to it.
  std::optional<nf::BuiltChain> first;
  paths_.reserve(cfg_.num_paths);
  for (std::size_t p = 0; p < cfg_.num_paths; ++p) {
    Path path;
    path.core = std::make_unique<sim::SimCore>(
        eq_, "path" + std::to_string(p));
    auto built = nf::build_chain(router_, "path" + std::to_string(p), spec,
                                 &err, first ? &*first : nullptr);
    if (!built)
      throw std::runtime_error("chain build failed: " + err);
    path.chain_head = built->head;
    chain_cost_ns_ = built->cost_ns;

    auto pid = static_cast<std::uint16_t>(p);
    click::Element* egress_elem = router_.adopt(
        std::make_unique<PathEgress>([this, pid](net::PacketPtr pkt) {
          egress_consumed_ = true;
          on_path_complete(pid, std::move(pkt));
        }),
        "path" + std::to_string(p) + "_egress");
    if (!router_.connect(built->tail, 0, egress_elem, 0, &err))
      throw std::runtime_error("egress wiring failed: " + err);
    if (!first) first = std::move(built);
    paths_.push_back(std::move(path));
  }
  if (!router_.initialize(&err))
    throw std::runtime_error("router init failed: " + err);
}

MdpDataPlane::~MdpDataPlane() = default;

sim::TimeNs MdpDataPlane::service_time(const net::Packet& pkt) {
  double base = static_cast<double>(chain_cost_ns_);
  if (cfg_.service_jitter_sigma > 0) base *= jitter_.sample(rng_);
  base += cfg_.per_byte_ns * static_cast<double>(pkt.length());
  return base < 1 ? 1 : static_cast<sim::TimeNs>(base);
}

void MdpDataPlane::ingress(net::PacketPtr pkt) {
  ++ingress_count_;
  fast_counters_.inc(DpCounter::kIngress);
  auto& a = pkt->anno();
  if (a.ingress_ns == 0) a.ingress_ns = eq_.now();
  a.seq = next_seq_[a.flow_id]++;
  ingress_bytes_ += pkt->length();

  // Flow-granularity replication first: a replicated flow's packets go
  // to its stable disjoint path set and never consult the scheduler.
  bool flow_replicated = false;
  select_buf_.clear();
  if (replicator_)
    flow_replicated = replicator_->route(*pkt, *this, select_buf_);
  if (!flow_replicated) {
    select_buf_.clear();
    scheduler_->select(*pkt, *this, rng_, select_buf_);
    if (select_buf_.empty()) select_buf_.push_back(first_up_path(*this));
  }

#if MDP_TRACE_ENABLED
  // Activate the span before cloning so every copy inherits the ingress
  // boundary and decision metadata.
  if (tracer_ && tracer_->enabled()) {
    auto& sp = a.span;
    sp.active = true;
    sp.ingress_ns = a.ingress_ns;
    sp.flow_id = a.flow_id;
    sp.seq = a.seq;
    sp.traffic_class = static_cast<std::uint8_t>(a.traffic_class);
    sp.num_copies = static_cast<std::uint8_t>(select_buf_.size());
  }
#endif

  merge_.expect(a.flow_id, a.seq,
                static_cast<std::uint8_t>(select_buf_.size()));
  if (select_buf_.size() > 1)
    fast_counters_.inc(flow_replicated ? DpCounter::kFlowReplicas
                                       : DpCounter::kReplicas,
                       select_buf_.size() - 1);

  // Hedging: single-copy packets may get a late second copy. The original
  // is parked by reference in its merge entry and cloned only if the
  // timer fires first; until its completion runs the chain it stays
  // exactly as it was at ingress.
  if (select_buf_.size() == 1) {
    sim::TimeNs timeout = scheduler_->hedge_timeout_ns(*pkt, *this);
    if (timeout > 0) arm_hedge(select_buf_[0], timeout, *pkt);
  }

  // Dispatch copies: clones first (the original is consumed last).
  for (std::size_t i = 1; i < select_buf_.size(); ++i) {
    net::PacketPtr copy = pool_.clone(*pkt);
    if (!copy) {
      merge_.cancel_copy(a.flow_id, a.seq);
      continue;
    }
    copy->anno().copy_index = static_cast<std::uint8_t>(i);
    copy->anno().is_replica = true;
    extra_copy_bytes_ += copy->length();
    dispatch(select_buf_[i], std::move(copy));
  }
  pkt->anno().copy_index = 0;
  pkt->anno().is_replica = false;
  dispatch(select_buf_[0], std::move(pkt));
}

void MdpDataPlane::dispatch(std::uint16_t path, net::PacketPtr pkt) {
  auto& a = pkt->anno();
  if (cfg_.path_queue_capacity > 0 &&
      paths_[path].core->queue_depth() >= cfg_.path_queue_capacity) {
    // Tail drop at the path queue: release the dedup slot so merged
    // delivery of surviving copies still works.
    merge_.cancel_copy(a.flow_id, a.seq);
    fast_counters_.inc(DpCounter::kQueueDrops);
    return;
  }
  a.dispatch_ns = eq_.now();
  a.path_id = path;
  monitor_.on_dispatch(path);
  fast_counters_.inc(DpCounter::kDispatched);

  sim::TimeNs service = service_time(*pkt);
#if MDP_TRACE_ENABLED
  if (a.span.active) {
    a.span.dispatch_ns = a.dispatch_ns;
    a.span.path_id = path;
    a.span.hedged = a.hedged;
  }
#endif
  bool jump_queue =
      cfg_.lc_priority &&
      a.traffic_class == net::TrafficClass::kLatencyCritical;
  paths_[path].core->submit(
      service,
      [this, path, service, pkt = std::move(pkt)](sim::TimeNs done_at)
          mutable {
        (void)service;
#if MDP_TRACE_ENABLED
        // The core is FIFO and non-preemptive, so service started exactly
        // `service` before completion; everything since dispatch was
        // queue wait.
        if (pkt->anno().span.active) {
          pkt->anno().span.service_start_ns = done_at - service;
          pkt->anno().span.service_end_ns = done_at;
        }
#else
        (void)done_at;
#endif
        // Push through the real chain replica; PathEgress sets the flag.
        // If the chain filtered the packet (firewall deny, DPI drop), the
        // copy will never reach the merge stage — release its dedup slot.
        const std::uint32_t flow = pkt->anno().flow_id;
        const std::uint64_t seq = pkt->anno().seq;
        egress_consumed_ = false;
        paths_[path].chain_head->push(0, std::move(pkt));
        if (!egress_consumed_) {
          monitor_.on_filtered(path);
          merge_.cancel_copy(flow, seq);
          fast_counters_.inc(DpCounter::kChainFiltered);
        }
      },
      jump_queue);
}

void MdpDataPlane::on_path_complete(std::uint16_t path, net::PacketPtr pkt) {
  auto& a = pkt->anno();
  sim::TimeNs latency = eq_.now() - a.dispatch_ns;
  monitor_.on_complete(path, latency);
  scheduler_->on_complete(path, latency);

#if MDP_TRACE_ENABLED
  // In sim mode the chain traversal and merge decision are instantaneous,
  // so these boundaries coincide with service_end; a real data plane
  // would stamp measurable chain/merge time here.
  if (a.span.active) {
    a.span.chain_done_ns = eq_.now();
    a.span.merge_ns = eq_.now();
  }
#endif

  // A duplicate copy comes back and recycles here.
  if (merge_.receive(std::move(pkt)))
    fast_counters_.inc(DpCounter::kDupDropped);
}

void MdpDataPlane::on_egress(net::PacketPtr pkt) {
  pkt->anno().egress_ns = eq_.now();
  ++egress_count_;
  fast_counters_.inc(DpCounter::kEgress);
#if MDP_TRACE_ENABLED
  if (tracer_) {
    pkt->anno().span.egress_ns = eq_.now();
    tracer_->on_egress(pkt->anno().span);
  }
#endif
  if (egress_) egress_(std::move(pkt));
}

void MdpDataPlane::arm_hedge(std::uint16_t original_path, sim::TimeNs timeout,
                             net::Packet& original) {
  const std::uint32_t flow = original.anno().flow_id;
  const std::uint64_t seq = original.anno().seq;
  merge_.park_hedge(flow, seq, &original);
  eq_.schedule_in(hedge_lane_, timeout, [this, flow, seq, original_path] {
    // Null once the merge entry retired: the original arrived, was
    // dropped or filtered, or its flow ended.
    net::Packet* parked = merge_.take_hedge(flow, seq);
    if (!parked) return;
    net::PacketPtr copy = pool_.clone(*parked);
    if (!copy) return;
    auto& a = copy->anno();
    a.hedged = true;
    a.is_replica = true;
    a.copy_index = 1;
    // Best alternate: least-backlogged up path that is not the original.
    PathVec two;
    k_least_backlog_paths(*this, 2, two);
    std::uint16_t alt = original_path;
    for (std::uint16_t cand : two) {
      if (cand != original_path) {
        alt = cand;
        break;
      }
    }
    merge_.add_copy(flow, seq);
    fast_counters_.inc(DpCounter::kHedges);
    extra_copy_bytes_ += copy->length();
    dispatch(alt, std::move(copy));
  });
}

stats::CounterSet MdpDataPlane::counters() const {
  stats::CounterSet out;
  for (std::size_t i = 0; i < stats::EnumCounters<DpCounter>::kSize; ++i) {
    auto c = static_cast<DpCounter>(i);
    std::uint64_t v = fast_counters_.get(c);
    if (v) out.inc(dp_counter_name(c), v);
  }
  return out;
}

void MdpDataPlane::register_stats(trace::StatsRegistry& reg) const {
  for (std::size_t i = 0; i < stats::EnumCounters<DpCounter>::kSize; ++i) {
    auto c = static_cast<DpCounter>(i);
    reg.add_counter(std::string("dp.") + dp_counter_name(c),
                    [this, c] { return fast_counters_.get(c); });
  }

  for (std::size_t p = 0; p < paths_.size(); ++p) {
    std::string pre = "path" + std::to_string(p) + ".";
    reg.add_counter(pre + "dispatched",
                    [this, p] { return monitor_.dispatched(p); });
    reg.add_counter(pre + "completed",
                    [this, p] { return monitor_.completed(p); });
    reg.add_counter(pre + "filtered",
                    [this, p] { return monitor_.filtered(p); });
    reg.add_counter(pre + "inflight_underflows",
                    [this, p] { return monitor_.underflows(p); });
    reg.add_counter(pre + "busy_ns", [this, p] {
      return static_cast<std::uint64_t>(paths_[p].core->busy_ns());
    });
    reg.add_gauge(pre + "ewma_latency_ns",
                  [this, p] { return monitor_.ewma_latency_ns(p); });
    reg.add_gauge(pre + "max_latency_ns", [this, p] {
      return static_cast<double>(monitor_.max_latency_ns(p));
    });
    reg.add_gauge(pre + "queue_depth", [this, p] {
      return static_cast<double>(paths_[p].core->queue_depth());
    });
    reg.add_gauge(pre + "up",
                  [this, p] { return paths_[p].up ? 1.0 : 0.0; });
  }
  reg.add_counter("paths.inflight_underflows",
                  [this] { return monitor_.inflight_underflows(); });

  reg.add_counter("dp.ingress_bytes", [this] { return ingress_bytes_; });
  reg.add_counter("dp.extra_copy_bytes",
                  [this] { return extra_copy_bytes_; });
  if (replicator_) {
    reg.add_counter("repl.flows_seen",
                    [this] { return replicator_->flows_seen(); });
    reg.add_counter("repl.flows_replicated",
                    [this] { return replicator_->flows_replicated(); });
    reg.add_counter("repl.size_gated",
                    [this] { return replicator_->size_gated(); });
    reg.add_counter("repl.token_denied",
                    [this] { return replicator_->token_denied(); });
    reg.add_counter("repl.path_starved",
                    [this] { return replicator_->path_starved(); });
    reg.add_gauge("repl.tracked", [this] {
      return static_cast<double>(replicator_->tracked());
    });
  }

  const Deduplicator& dd = merge_.dedup();
  reg.add_counter("dedup.dup_drops", [&dd] { return dd.dup_drops(); });
  reg.add_counter("dedup.late_drops", [&dd] { return dd.late_drops(); });
  reg.add_gauge("dedup.pending",
                [&dd] { return static_cast<double>(dd.pending()); });

  const ReorderBuffer& ro = merge_.reorder();
  reg.add_counter("reorder.in_order", [&ro] { return ro.in_order(); });
  reg.add_counter("reorder.out_of_order",
                  [&ro] { return ro.out_of_order(); });
  reg.add_counter("reorder.timeout_releases",
                  [&ro] { return ro.timeout_releases(); });
  reg.add_counter("reorder.late_after_skip",
                  [&ro] { return ro.late_after_skip(); });
  reg.add_gauge("reorder.buffered",
                [&ro] { return static_cast<double>(ro.buffered()); });
  reg.add_histogram("reorder.dwell", &ro.dwell());
}

}  // namespace mdp::core

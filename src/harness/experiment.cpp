#include "harness/experiment.hpp"

#include <algorithm>
#include <stdexcept>

#include "harness/report.hpp"
#include "net/headers.hpp"
#include "nf/chain.hpp"
#include "telem/snapshot_exporter.hpp"
#include "workload/flow_size.hpp"

namespace mdp::harness {

namespace {

core::SchedulerPtr build_policy(const ScenarioConfig& cfg) {
  if (cfg.make_policy) return cfg.make_policy();
  auto s = core::make_scheduler(cfg.policy);
  if (!s) throw std::invalid_argument("unknown policy '" + cfg.policy + "'");
  return s;
}

struct Assembled {
  sim::EventQueue eq;
  net::PacketPool pool{4096, 2048, /*allow_growth=*/true};
  std::unique_ptr<core::MdpDataPlane> dp;
  std::vector<std::unique_ptr<sim::InterferenceModel>> noise;

  ~Assembled() {
    // Undrained events (saturated scenarios stop at the quiet heuristic,
    // and interference self-reschedules forever) hold closures that own
    // packets; destroy them while the pool and data plane still exist.
    eq.clear();
  }

  explicit Assembled(const ScenarioConfig& cfg) {
    core::DataPlaneConfig dpc = cfg.dp;
    dpc.num_paths = cfg.num_paths;
    dpc.chain = cfg.chain;
    dpc.seed = cfg.seed * 7919 + 13;
    dp = std::make_unique<core::MdpDataPlane>(eq, pool, dpc,
                                              build_policy(cfg));
    if (cfg.interference) {
      std::vector<std::size_t> targets = cfg.interference_paths;
      if (targets.empty())
        for (std::size_t p = 0; p < cfg.num_paths; ++p)
          targets.push_back(p);
      for (std::size_t p : targets) {
        noise.push_back(std::make_unique<sim::InterferenceModel>(
            eq, dp->core(p), cfg.interference_cfg,
            cfg.seed * 104729 + p * 31 + 1));
        noise.back()->start();
      }
    }
  }
};

/// Drive the event queue in slices until the workload finished and egress
/// has gone quiet (everything drained or stuck behind a cap).
template <typename DonePredicate>
void drive(sim::EventQueue& eq, DonePredicate done) {
  constexpr sim::TimeNs kSlice = 20 * sim::kMillisecond;
  constexpr sim::TimeNs kHorizon = 600 * sim::kSecond;
  while (eq.now() < kHorizon) {
    eq.run_until(eq.now() + kSlice);
    if (done()) break;
  }
}

}  // namespace

double mean_service_ns(const ScenarioConfig& cfg) {
  // The chain cost MdpDataPlane charges per packet is the BuiltChain's
  // cost_ns. build_chain computes it before the router initializes, so
  // the probe allocates no NF table.
  click::Router probe;
  std::string err;
  const auto built = nf::build_chain(
      probe, "probe", nf::ChainSpec::preset(cfg.chain), &err);
  if (!built) throw std::runtime_error("chain build failed: " + err);
  double frame = net::kEthernetHeaderLen + net::kIpv4MinHeaderLen +
                 net::kUdpHeaderLen + cfg.mean_payload;
  return static_cast<double>(built->cost_ns) + cfg.dp.per_byte_ns * frame;
}

ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  Assembled a(cfg);
  ScenarioResult res;
  res.chain_cost_ns = a.dp->chain_cost_ns();
  res.offered_load = cfg.load;

  // Registry lives for the whole run (not just the end-of-run snapshot)
  // so the telemetry exporter can harvest per-tick counter deltas.
  trace::StatsRegistry reg;
  a.dp->register_stats(reg);

  // --- stage tracing -------------------------------------------------------
  std::unique_ptr<trace::Tracer> tracer;
  if (cfg.trace) {
    trace::TracerConfig tc;
    tc.reservoir = cfg.reservoir;
    if (tc.reservoir.seed == 0) tc.reservoir.seed = cfg.seed;
    // Start disabled when there is a warmup phase: spans activate at
    // ingress, so enabling at the warmup boundary (below) means the trace
    // covers packets ingressed during the measured phase.
    tc.enabled = cfg.warmup_packets == 0;
    tracer = std::make_unique<trace::Tracer>(tc);
    a.dp->set_tracer(tracer.get());
    tracer->register_with(reg, "trace");
  }

  // --- control plane -------------------------------------------------------
  // Observation: every egress latency feeds the SloMonitor under the path
  // that served the packet. Decision/actuation: the Controller ticks on
  // the event queue (the sim-plane analog of the caller-thread tick) and
  // actuates through a SimPlaneActuator — masking via set_path_up, drains
  // via Merge::flush_all, probation probes onto the path cores.
  std::unique_ptr<ctrl::SloMonitor> slo_mon;
  std::unique_ptr<ctrl::SimPlaneActuator> actuator;
  std::unique_ptr<ctrl::Controller> controller;
  std::unique_ptr<telem::SnapshotExporter> telem_exporter;
  if (cfg.ctrl_enabled) {
    slo_mon = std::make_unique<ctrl::SloMonitor>(cfg.num_paths,
                                                 cfg.ctrl.slo_target_ns);
    actuator =
        std::make_unique<ctrl::SimPlaneActuator>(a.eq, *a.dp, *slo_mon);
    controller =
        std::make_unique<ctrl::Controller>(cfg.ctrl, *actuator, *slo_mon);
    controller->register_stats(reg);
    slo_mon->register_stats(reg);
    if (cfg.telem_enabled) {
      telem::SnapshotExporter::Config tec;
      tec.capacity_ticks = cfg.telem_capacity_ticks;
      tec.registry = &reg;
      telem_exporter = std::make_unique<telem::SnapshotExporter>(tec);
      controller->set_telem_exporter(telem_exporter.get());
    }
    struct CtrlTicker {
      static void arm(sim::EventQueue& eq, ctrl::Controller& c,
                      sim::TimeNs period) {
        eq.schedule_in(period, [&eq, &c, period] {
          c.tick(static_cast<std::uint64_t>(eq.now()));
          arm(eq, c, period);
        });
      }
    };
    CtrlTicker::arm(a.eq, *controller,
                    cfg.ctrl_tick_interval_ns > 0 ? cfg.ctrl_tick_interval_ns
                                                  : sim::kMillisecond);
  }

  // --- egress instrumentation ---------------------------------------------
  std::uint64_t measured_first_ns = 0;
  std::uint64_t measured_last_ns = 0;
  a.dp->set_egress([&](net::PacketPtr pkt) {
    const auto& an = pkt->anno();
    if (slo_mon) {
      // Prefer stage evidence when the tracer stamped a span (post-warmup
      // with cfg.trace): the controller's decisions then carry a
      // dominant-stage verdict, not just a scalar.
#if MDP_TRACE_ENABLED
      if (an.span.active)
        slo_mon->observe_span(an.path_id, an.span);
      else
#endif
        slo_mon->observe(an.path_id, an.egress_ns - an.ingress_ns);
    }
    if (a.dp->egress_count() <= cfg.warmup_packets) return;
    if (tracer && !tracer->enabled()) tracer->set_enabled(true);
    sim::TimeNs lat = an.egress_ns - an.ingress_ns;
    res.latency.record(lat);
    if (an.traffic_class == net::TrafficClass::kLatencyCritical)
      res.lc_latency.record(lat);
    ++res.measured;
    if (measured_first_ns == 0) measured_first_ns = an.egress_ns;
    measured_last_ns = an.egress_ns;
  });

  // --- load calibration ------------------------------------------------------
  double svc = mean_service_ns(cfg);
  double mean_gap =
      svc / (static_cast<double>(cfg.num_paths) * cfg.load);

  workload::ArrivalPtr arrivals;
  if (cfg.bursty_arrivals) {
    workload::MmppConfig m = cfg.mmpp;
    // Choose base gap so the long-run MMPP rate hits the requested load.
    double p_hi =
        m.mean_hi_dwell_ns / (m.mean_hi_dwell_ns + m.mean_lo_dwell_ns);
    double rate_scale = (1 - p_hi) + p_hi * m.burst_factor;
    m.base_gap_ns = mean_gap * rate_scale;
    arrivals = std::make_unique<workload::MmppArrivals>(m);
  } else {
    arrivals = std::make_unique<workload::PoissonArrivals>(mean_gap);
  }

  workload::TrafficGenConfig tg;
  tg.seed = cfg.seed;
  tg.num_flows = cfg.num_flows;
  tg.latency_critical_fraction = cfg.lc_fraction;
  tg.mean_payload = cfg.mean_payload;
  workload::TrafficGen gen(
      a.eq, a.pool, tg, std::move(arrivals),
      [&](net::PacketPtr pkt) { a.dp->ingress(std::move(pkt)); });

  // --- queue-depth sampling ----------------------------------------------------
  if (cfg.sample_queues_interval_ns > 0) {
    for (std::size_t p = 0; p < cfg.num_paths; ++p)
      res.queue_depth_series.emplace_back(cfg.sample_queues_interval_ns,
                                          "path" + std::to_string(p));
    // Self-rescheduling sampler; stops mattering once we stop driving.
    struct Sampler {
      static void arm(sim::EventQueue& eq, core::MdpDataPlane& dp,
                      std::vector<stats::TimeSeries>& series,
                      sim::TimeNs period) {
        eq.schedule_in(period, [&eq, &dp, &series, period] {
          for (std::size_t p = 0; p < series.size(); ++p)
            series[p].observe_max(eq.now(),
                                  static_cast<double>(dp.queue_depth(p)));
          arm(eq, dp, series, period);
        });
      }
    };
    Sampler::arm(a.eq, *a.dp, res.queue_depth_series,
                 cfg.sample_queues_interval_ns);
  }

  // --- run ---------------------------------------------------------------------
  gen.start(cfg.packets);
  std::uint64_t last_egress = 0;
  drive(a.eq, [&] {
    if (gen.emitted() < cfg.packets) return false;
    bool quiet = a.dp->egress_count() == last_egress;
    last_egress = a.dp->egress_count();
    return quiet;  // one extra slice after the last egress movement
  });

  // --- results -------------------------------------------------------------------
  res.emitted = gen.emitted();
  res.egressed = a.dp->egress_count();
  res.sim_duration_ns = a.eq.now();
  const auto& c = a.dp->counters();
  std::uint64_t dispatched = c.get("dispatched");
  res.duplicate_fraction =
      dispatched ? static_cast<double>(c.get("dup_dropped")) /
                       static_cast<double>(dispatched)
                 : 0;
  res.replica_fraction =
      res.emitted ? static_cast<double>(c.get("replicas") + c.get("hedges")) /
                        static_cast<double>(res.emitted)
                  : 0;
  res.hedges = c.get("hedges");
  res.chain_filtered = c.get("chain_filtered");
  res.queue_drops = c.get("queue_drops");
  res.ooo_fraction = a.dp->reorder().ooo_fraction();
  res.reorder_timeout_releases = a.dp->reorder().timeout_releases();
  res.reorder_dwell.merge(a.dp->reorder().dwell());
  // Utilization over the active window (up to the last egress), not the
  // idle drain slices the driver adds after the workload completes.
  sim::TimeNs active_ns = measured_last_ns ? measured_last_ns : a.eq.now();
  for (std::size_t p = 0; p < cfg.num_paths; ++p) {
    res.per_path_dispatched.push_back(a.dp->monitor().dispatched(p));
    res.per_path_utilization.push_back(
        active_ns ? static_cast<double>(a.dp->core(p).busy_ns()) /
                        static_cast<double>(active_ns)
                  : 0);
  }
  if (measured_last_ns > measured_first_ns && res.measured > 1)
    res.achieved_mpps = static_cast<double>(res.measured - 1) * 1e3 /
                        static_cast<double>(measured_last_ns -
                                            measured_first_ns);

  // --- metric snapshot ------------------------------------------------------
  if (controller) {
    res.ctrl_report = controller->report_json();
    res.ctrl_quarantines = controller->quarantines();
    res.ctrl_reinstatements = controller->reinstatements();
  }
  if (telem_exporter) {
    res.telem_report = telem_exporter->to_json();
    if (!cfg.telem_prometheus_path.empty())
      write_text_file(cfg.telem_prometheus_path,
                      telem_exporter->to_prometheus());
  }
  for (const auto& ts : res.queue_depth_series) reg.add_time_series(&ts);
  res.stats = reg.snapshot();
  if (tracer) res.trace = tracer->report();
  return res;
}

RpcScenarioResult run_rpc_scenario(const ScenarioConfig& cfg,
                                   const std::string& workload_name,
                                   std::uint64_t num_rpc_flows) {
  Assembled a(cfg);
  auto sizes = workload::flow_sizes_by_name(workload_name);
  if (!sizes)
    throw std::invalid_argument("unknown workload '" + workload_name + "'");

  // Calibrate flow interarrival so packet rate ~= requested load.
  double svc = mean_service_ns(cfg);
  double pkt_rate = static_cast<double>(cfg.num_paths) * cfg.load / svc;
  workload::RpcWorkloadConfig rc;
  rc.seed = cfg.seed;
  double mean_flow_bytes = sizes->mean();
  double mean_pkts =
      std::min<double>(std::max(1.0, mean_flow_bytes / rc.mss),
                       static_cast<double>(rc.max_packets_per_flow));
  rc.mean_interarrival_ns = mean_pkts / pkt_rate;

  workload::RpcWorkload* rpc_ptr = nullptr;
  a.dp->set_egress([&](net::PacketPtr pkt) {
    if (rpc_ptr)
      rpc_ptr->on_packet_egress(pkt->anno().flow_id, a.eq.now());
  });
  workload::RpcWorkload rpc(
      a.eq, a.pool, rc, std::move(sizes),
      [&](net::PacketPtr pkt) { a.dp->ingress(std::move(pkt)); });
  rpc_ptr = &rpc;
  // Retire per-flow replication/dedup state as soon as a flow completes;
  // copies still in flight become late drops, never double-deliveries.
  rpc.set_flow_done(
      [&](std::uint32_t flow_id) { a.dp->end_flow(flow_id); });

  rpc.start(num_rpc_flows);
  std::uint64_t last_done = 0;
  drive(a.eq, [&] {
    if (rpc.flows_started() < num_rpc_flows) return false;
    bool quiet = rpc.flows_completed() == last_done;
    last_done = rpc.flows_completed();
    return quiet;
  });

  RpcScenarioResult out;
  out.short_fct.merge(rpc.short_fct());
  out.long_fct.merge(rpc.long_fct());
  out.all_fct.merge(rpc.all_fct());
  out.flows_started = rpc.flows_started();
  out.flows_completed = rpc.flows_completed();
  out.ingress_bytes = a.dp->ingress_bytes();
  out.extra_copy_bytes = a.dp->extra_copy_bytes();
  out.duplicate_byte_fraction = a.dp->duplicate_byte_fraction();
  if (const core::FlowReplicator* r = a.dp->flow_replicator())
    out.flows_replicated = r->flows_replicated();
  out.hedges_fired =
      a.dp->fast_counters().get(core::DpCounter::kHedges);
  return out;
}

}  // namespace mdp::harness

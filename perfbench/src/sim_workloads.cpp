// The two discrete-event workloads. Each repetition assembles the sim plane
// from the same public pieces, in the same order, as harness::run_scenario
// (sim_noisy_neighbor) or harness::run_rpc_scenario (sim_flow_churn), so
// construction can be timed apart from the run; check_parity() proves the
// assembly reproduces the harness bit for bit.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>

#include "click/router.hpp"
#include "common.hpp"
#include "core/dataplane.hpp"
#include "core/dedup.hpp"
#include "core/reorder.hpp"
#include "ctrl/actuator.hpp"
#include "ctrl/controller.hpp"
#include "harness/experiment.hpp"
#include "net/packet_builder.hpp"
#include "nf/chain.hpp"
#include "sim/interference.hpp"
#include "telem/snapshot_exporter.hpp"
#include "trace/registry.hpp"
#include "workload/flow_size.hpp"
#include "workload/rpc_workload.hpp"
#include "workload/traffic_gen.hpp"

namespace perfbench {
namespace {

using namespace mdp;

// --- workload definitions ----------------------------------------------------

/// Inputs the timed phase cycles over (sub-seeds of kTimingSeed below).
/// Every timed cycle repeats the same work, so cycles differ only by host
/// noise.
constexpr std::size_t kTimedSubSeeds = 2;

/// Sub-seeds the model metrics pool. The p99.9 of one 200k-packet run
/// swings by tens of percent between seeds; pooling twelve independent
/// theft histories brings the spread across seeds to a few percent.
constexpr std::size_t kModelSubSeeds = 12;
/// Packets per noisy-neighbor repetition (the first tenth is warmup).
constexpr std::uint64_t kNoisyPackets = 200'000;
/// Flows per churn repetition. Repetitions are kept short so the timed
/// phase gets many of them (see run_sim).
constexpr std::uint64_t kChurnFlows = 4'000;
/// Flow-size CDF of the churn workload (most flows are a packet or two,
/// most bytes are in MSS-sized elephants) and the replication cutoff.
constexpr const char* kChurnSizes = "datamining";
constexpr std::uint32_t kChurnCutoff = 30'000;

std::uint64_t sub_seed(std::uint64_t seed, std::size_t i) {
  return (seed % 1'000'000) * 64 + i + 1;
}

/// The timed phase runs the same inputs in every run, whatever --seed
/// is: churn's cost per packet moves by about 15 % with the packet mix of
/// the sampled flows (its flow sizes are heavy-tailed), which would hide
/// code changes of that size. --seed varies the model inputs.
constexpr std::uint64_t kTimingSeed = 0;

sim::InterferenceConfig theft() {
  sim::InterferenceConfig ic;
  ic.duty_cycle = 0.1;
  ic.mean_burst_ns = 5'000;
  ic.burst_alpha = 1.3;
  ic.max_burst_ns = 100'000;
  ic.pareto_bursts = true;
  return ic;
}

harness::ScenarioConfig noisy_config(std::uint64_t seed,
                                     std::uint64_t packets) {
  harness::ScenarioConfig cfg;
  cfg.policy = "adaptive";
  cfg.num_paths = 4;
  cfg.chain = "fw-nat-lb";
  cfg.load = 0.6;
  cfg.packets = packets;
  cfg.warmup_packets = packets / 10;
  cfg.num_flows = 256;
  cfg.lc_fraction = 0.1;
  cfg.mean_payload = 200;
  cfg.interference = true;
  cfg.interference_cfg = theft();
  cfg.ctrl_enabled = true;
  cfg.telem_enabled = true;
  cfg.seed = seed;
  return cfg;
}

harness::ScenarioConfig churn_config(std::uint64_t seed) {
  harness::ScenarioConfig cfg;
  // RSS spreading with a 400 us packet-hedge deadline, plus RepNet flow
  // replication of every flow under the cutoff onto two paths. The
  // offered load is kept low enough that it stays below saturation after
  // the replicated flows double their packets.
  cfg.policy = "rss:400000";
  cfg.num_paths = 4;
  cfg.chain = "fw-nat-lb";
  cfg.load = 0.35;
  cfg.interference = true;
  cfg.interference_cfg = theft();
  cfg.dp.flow_repl.enabled = true;
  cfg.dp.flow_repl.size_cutoff_bytes = kChurnCutoff;
  cfg.dp.flow_repl.replicas = 2;
  cfg.seed = seed;
  return cfg;
}

// --- model output ------------------------------------------------------------

/// Everything a repetition reports on the model clock. Two runs of the
/// same configuration and seed must produce identical summaries.
struct ModelSummary {
  stats::LatencyHistogram latency;     ///< packet latency (measured phase)
  stats::LatencyHistogram lc_latency;  ///< latency-critical packets
  stats::LatencyHistogram all_fct;     ///< churn only
  stats::LatencyHistogram short_fct;   ///< churn only
  std::uint64_t generated = 0;         ///< packets built by the workload
  std::uint64_t delivered = 0;         ///< packets egressed
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t ingress_bytes = 0;
  std::uint64_t extra_copy_bytes = 0;
  std::uint64_t hedges = 0;
  std::uint64_t sim_end_ns = 0;
};

bool same_hist(const stats::LatencyHistogram& a,
               const stats::LatencyHistogram& b) {
  return a.count() == b.count() && a.sum() == b.sum() &&
         a.min() == b.min() && a.max() == b.max() && a.cdf() == b.cdf();
}

bool same_model(const ModelSummary& a, const ModelSummary& b) {
  return same_hist(a.latency, b.latency) &&
         same_hist(a.lc_latency, b.lc_latency) &&
         same_hist(a.all_fct, b.all_fct) &&
         same_hist(a.short_fct, b.short_fct) &&
         a.generated == b.generated && a.delivered == b.delivered &&
         a.flows_started == b.flows_started &&
         a.flows_completed == b.flows_completed &&
         a.ingress_bytes == b.ingress_bytes &&
         a.extra_copy_bytes == b.extra_copy_bytes && a.hedges == b.hedges &&
         a.sim_end_ns == b.sim_end_ns;
}

double dup_byte_frac(const ModelSummary& m) {
  const double total =
      static_cast<double>(m.ingress_bytes + m.extra_copy_bytes);
  return total > 0 ? static_cast<double>(m.extra_copy_bytes) / total : 0;
}

// --- traced-run instrumentation ----------------------------------------------

/// Live spans and samples of a traced repetition, plus the recorded
/// streams the replays of hook-less layers run on.
struct Tracing {
  SpanLedger* ledger = nullptr;
  int run_id = -1, ingress_id = -1, select_id = -1, egress_id = -1,
      observe_id = -1, tick_id = -1, end_flow_id = -1;
  std::size_t pool_peak = 0;
  std::size_t heap_peak = 0;
  double heap_depth_sum = 0;
  std::uint64_t heap_samples = 0;
  std::size_t dedup_pending_peak = 0;
  std::uint64_t select_calls = 0;
  std::uint64_t end_flow_calls = 0;
  std::uint64_t ticks = 0;
  // Recorded streams (first kRecord entries).
  static constexpr std::size_t kRecord = 100'000;
  struct GenRec {
    net::FlowKey flow;
    std::uint32_t payload;
  };
  std::vector<GenRec> generated;
  struct EgressRec {
    std::uint32_t flow;
    std::uint64_t seq;
  };
  std::vector<EgressRec> egressed;

  explicit Tracing(SpanLedger* l) : ledger(l) {
    run_id = l->layer("sim.run");
    ingress_id = l->layer("core.ingress");
    select_id = l->layer("core.sched.select");
    egress_id = l->layer("egress");
    observe_id = l->layer("ctrl.observe");
    tick_id = l->layer("ctrl.tick");
    end_flow_id = l->layer("core.end_flow");
  }
};

/// Scheduler decorator that times select() into the ledger; everything
/// else forwards unchanged, so model output is untouched.
class TimedScheduler final : public core::Scheduler {
 public:
  TimedScheduler(core::SchedulerPtr inner, Tracing& tr)
      : inner_(std::move(inner)), tr_(tr) {}
  std::string name() const override { return inner_->name(); }
  void select(const net::Packet& pkt, const core::PathContext& ctx,
              sim::Rng& rng, core::PathVec& out) override {
    const std::uint64_t t0 = wall_ns();
    inner_->select(pkt, ctx, rng, out);
    tr_.ledger->record(tr_.select_id, t0, wall_ns(), tr_.ingress_id,
                       pkt.anno().flow_id);
    ++tr_.select_calls;
  }
  void select_batch(std::span<const net::Packet* const> pkts,
                    const core::PathContext& ctx, sim::Rng& rng,
                    std::vector<core::PathVec>& out) override {
    inner_->select_batch(pkts, ctx, rng, out);
  }
  sim::TimeNs hedge_timeout_ns(const net::Packet& pkt,
                               const core::PathContext& ctx) const override {
    return inner_->hedge_timeout_ns(pkt, ctx);
  }
  void on_complete(std::uint16_t path, sim::TimeNs latency_ns) override {
    inner_->on_complete(path, latency_ns);
  }
  bool set_replication(std::size_t replicas) override {
    return inner_->set_replication(replicas);
  }
  bool set_hedge_timeout_ns(sim::TimeNs timeout_ns) override {
    return inner_->set_hedge_timeout_ns(timeout_ns);
  }

 private:
  core::SchedulerPtr inner_;
  Tracing& tr_;
};

// --- one repetition ----------------------------------------------------------

/// One assembled sim plane. The constructor is the set-up (timed as
/// setup_s); run() is the timed phase. Member order and the order of
/// every schedule call mirror harness::run_scenario / run_rpc_scenario.
class SimRep {
 public:
  SimRep(const harness::ScenarioConfig& cfg, bool rpc,
         std::uint64_t rpc_flows, DeliveryOracle* oracle, Tracing* tr)
      : cfg_(cfg), rpc_mode_(rpc), rpc_flows_(rpc_flows), oracle_(oracle),
        tr_(tr) {
    core::DataPlaneConfig dpc = cfg.dp;
    dpc.num_paths = cfg.num_paths;
    dpc.chain = cfg.chain;
    dpc.seed = cfg.seed * 7919 + 13;
    core::SchedulerPtr sched = core::make_scheduler(cfg.policy);
    if (tr_) sched = std::make_unique<TimedScheduler>(std::move(sched), *tr_);
    dp_ = std::make_unique<core::MdpDataPlane>(eq_, pool_, dpc,
                                               std::move(sched));
    if (cfg.interference) {
      for (std::size_t p = 0; p < cfg.num_paths; ++p) {
        noise_.push_back(std::make_unique<sim::InterferenceModel>(
            eq_, dp_->core(p), cfg.interference_cfg,
            cfg.seed * 104729 + p * 31 + 1));
        noise_.back()->start();
      }
    }
    if (rpc_mode_)
      setup_rpc();
    else
      setup_packets();
  }

  ~SimRep() { eq_.clear(); }
  SimRep(const SimRep&) = delete;
  SimRep& operator=(const SimRep&) = delete;

  void run() {
    if (rpc_mode_) {
      rpc_->start(rpc_flows_);
      std::uint64_t last_done = 0;
      drive([&] {
        if (rpc_->flows_started() < rpc_flows_) return false;
        const bool quiet = rpc_->flows_completed() == last_done;
        last_done = rpc_->flows_completed();
        return quiet;
      });
    } else {
      gen_->start(cfg_.packets);
      std::uint64_t last_egress = 0;
      drive([&] {
        if (gen_->emitted() < cfg_.packets) return false;
        const bool quiet = dp_->egress_count() == last_egress;
        last_egress = dp_->egress_count();
        return quiet;
      });
    }
    m_.delivered = dp_->egress_count();
    m_.ingress_bytes = dp_->ingress_bytes();
    m_.extra_copy_bytes = dp_->extra_copy_bytes();
    m_.hedges = dp_->fast_counters().get(core::DpCounter::kHedges);
    m_.sim_end_ns = eq_.now();
    if (rpc_mode_) {
      m_.all_fct.merge(rpc_->all_fct());
      m_.short_fct.merge(rpc_->short_fct());
      m_.flows_started = rpc_->flows_started();
      m_.flows_completed = rpc_->flows_completed();
    }
  }

  const ModelSummary& model() const { return m_; }
  /// Wall time of each 1 ms model-time step of run(), in order. The
  /// steps of a given input do the same work in every repetition.
  const std::vector<std::uint64_t>& slice_ns() const { return slice_ns_; }
  core::MdpDataPlane& dp() { return *dp_; }
  net::PacketPool& pool() { return pool_; }
  sim::EventQueue& eq() { return eq_; }
  const ctrl::Controller* controller() const { return controller_.get(); }

 private:
  template <typename Done>
  void drive(Done done) {
    // Same slicing as the harness driver. Each slice runs as kSteps
    // timed steps; run_until(a) then run_until(b) executes the same
    // events as run_until(b), so the model output does not change.
    constexpr sim::TimeNs kSlice = 20 * sim::kMillisecond;
    constexpr sim::TimeNs kHorizon = 600 * sim::kSecond;
    constexpr sim::TimeNs kSteps = 20;
    while (eq_.now() < kHorizon) {
      const sim::TimeNs from = eq_.now();
      const std::uint64_t t0 = wall_ns();
      std::uint64_t t = t0;
      for (sim::TimeNs i = 1; i <= kSteps; ++i) {
        eq_.run_until(from + kSlice * i / kSteps);
        const std::uint64_t now = wall_ns();
        slice_ns_.push_back(now - t);
        t = now;
      }
      if (tr_) tr_->ledger->record(tr_->run_id, t0, t, -1, 0);
      if (done()) break;
    }
  }

  /// Sink shared by both workloads: oracle registration, live ingress
  /// span and layer samples, then MdpDataPlane::ingress.
  void ingress(net::PacketPtr pkt) {
    ++m_.generated;
    const std::uint32_t flow = pkt->anno().flow_id;
    std::uint64_t seq = 0;
    if (oracle_ || tr_) {
      if (flow >= next_seq_.size()) next_seq_.resize(flow + 1, 0);
      seq = next_seq_[flow]++;
    }
    if (oracle_) oracle_->sent(flow, seq, payload_digest(*pkt));
    if (!tr_) {
      dp_->ingress(std::move(pkt));
      return;
    }
    if (tr_->generated.size() < Tracing::kRecord) {
      const auto parsed = net::parse(*pkt);
      if (parsed)
        tr_->generated.push_back(
            {parsed->flow, static_cast<std::uint32_t>(parsed->payload_len)});
    }
    const std::uint64_t t0 = wall_ns();
    dp_->ingress(std::move(pkt));
    tr_->ledger->record(tr_->ingress_id, t0, wall_ns(), tr_->run_id,
                        DeliveryOracle::key(flow, seq));
    tr_->pool_peak = std::max(tr_->pool_peak, pool_.in_use());
    tr_->heap_peak = std::max(tr_->heap_peak, eq_.size());
    tr_->heap_depth_sum += static_cast<double>(eq_.size());
    ++tr_->heap_samples;
    tr_->dedup_pending_peak =
        std::max(tr_->dedup_pending_peak, dp_->dedup().pending());
  }

  void on_egress_common(const net::Packet& pkt) {
    const auto& an = pkt.anno();
    if (oracle_) oracle_->delivered(an.flow_id, an.seq, payload_digest(pkt));
    if (tr_ && tr_->egressed.size() < Tracing::kRecord)
      tr_->egressed.push_back({an.flow_id, an.seq});
  }

  void setup_packets() {
    dp_->register_stats(reg_);
    if (cfg_.ctrl_enabled) {
      slo_mon_ = std::make_unique<ctrl::SloMonitor>(cfg_.num_paths,
                                                    cfg_.ctrl.slo_target_ns);
      actuator_ =
          std::make_unique<ctrl::SimPlaneActuator>(eq_, *dp_, *slo_mon_);
      controller_ =
          std::make_unique<ctrl::Controller>(cfg_.ctrl, *actuator_, *slo_mon_);
      controller_->register_stats(reg_);
      slo_mon_->register_stats(reg_);
      if (cfg_.telem_enabled) {
        telem::SnapshotExporter::Config tec;
        tec.capacity_ticks = cfg_.telem_capacity_ticks;
        tec.registry = &reg_;
        exporter_ = std::make_unique<telem::SnapshotExporter>(tec);
        controller_->set_telem_exporter(exporter_.get());
      }
      arm_tick(cfg_.ctrl_tick_interval_ns > 0 ? cfg_.ctrl_tick_interval_ns
                                              : sim::kMillisecond);
    }
    dp_->set_egress([this](net::PacketPtr pkt) {
      const std::uint64_t e0 = tr_ ? wall_ns() : 0;
      const auto& an = pkt->anno();
      if (slo_mon_) {
        const std::uint64_t t0 = tr_ ? wall_ns() : 0;
        slo_mon_->observe(an.path_id, an.egress_ns - an.ingress_ns);
        if (tr_)
          tr_->ledger->record(tr_->observe_id, t0, wall_ns(), tr_->egress_id,
                              DeliveryOracle::key(an.flow_id, an.seq));
      }
      on_egress_common(*pkt);
      if (dp_->egress_count() > cfg_.warmup_packets) {
        const sim::TimeNs lat = an.egress_ns - an.ingress_ns;
        m_.latency.record(lat);
        if (an.traffic_class == net::TrafficClass::kLatencyCritical)
          m_.lc_latency.record(lat);
      }
      if (tr_) tr_->ledger->record(tr_->egress_id, e0, wall_ns(), tr_->run_id,
                                   DeliveryOracle::key(an.flow_id, an.seq));
    });

    const double svc = harness::mean_service_ns(cfg_);
    const double mean_gap =
        svc / (static_cast<double>(cfg_.num_paths) * cfg_.load);
    workload::TrafficGenConfig tg;
    tg.seed = cfg_.seed;
    tg.num_flows = cfg_.num_flows;
    tg.latency_critical_fraction = cfg_.lc_fraction;
    tg.mean_payload = cfg_.mean_payload;
    gen_ = std::make_unique<workload::TrafficGen>(
        eq_, pool_, tg, std::make_unique<workload::PoissonArrivals>(mean_gap),
        [this](net::PacketPtr pkt) { ingress(std::move(pkt)); });
  }

  void arm_tick(sim::TimeNs period) {
    eq_.schedule_in(period, [this, period] {
      const std::uint64_t t0 = tr_ ? wall_ns() : 0;
      controller_->tick(static_cast<std::uint64_t>(eq_.now()));
      if (tr_) {
        tr_->ledger->record(tr_->tick_id, t0, wall_ns(), tr_->run_id, 0);
        ++tr_->ticks;
      }
      arm_tick(period);
    });
  }

  void setup_rpc() {
    auto sizes = workload::flow_sizes_by_name(kChurnSizes);
    const double svc = harness::mean_service_ns(cfg_);
    const double pkt_rate =
        static_cast<double>(cfg_.num_paths) * cfg_.load / svc;
    workload::RpcWorkloadConfig rc;
    rc.seed = cfg_.seed;
    const double mean_pkts = std::min<double>(
        std::max(1.0, sizes->mean() / static_cast<double>(rc.mss)),
        static_cast<double>(rc.max_packets_per_flow));
    rc.mean_interarrival_ns = mean_pkts / pkt_rate;

    dp_->set_egress([this](net::PacketPtr pkt) {
      const std::uint64_t e0 = tr_ ? wall_ns() : 0;
      const auto& an = pkt->anno();
      on_egress_common(*pkt);
      const sim::TimeNs lat = an.egress_ns - an.ingress_ns;
      m_.latency.record(lat);
      if (an.traffic_class == net::TrafficClass::kLatencyCritical)
        m_.lc_latency.record(lat);
      if (rpc_) rpc_->on_packet_egress(an.flow_id, eq_.now());
      if (tr_) tr_->ledger->record(tr_->egress_id, e0, wall_ns(), tr_->run_id,
                                   DeliveryOracle::key(an.flow_id, an.seq));
    });
    rpc_ = std::make_unique<workload::RpcWorkload>(
        eq_, pool_, rc, std::move(sizes),
        [this](net::PacketPtr pkt) { ingress(std::move(pkt)); });
    rpc_->set_flow_done([this](std::uint32_t flow_id) {
      if (!tr_) {
        dp_->end_flow(flow_id);
        return;
      }
      const std::uint64_t t0 = wall_ns();
      dp_->end_flow(flow_id);
      tr_->ledger->record(tr_->end_flow_id, t0, wall_ns(), tr_->egress_id,
                          flow_id);
      ++tr_->end_flow_calls;
    });
  }

  harness::ScenarioConfig cfg_;
  bool rpc_mode_;
  std::uint64_t rpc_flows_;
  DeliveryOracle* oracle_;
  Tracing* tr_;
  ModelSummary m_;
  std::vector<std::uint64_t> next_seq_;  // mirror of the plane's per-flow seq
  std::vector<std::uint64_t> slice_ns_;

  sim::EventQueue eq_;
  net::PacketPool pool_{4096, 2048, /*allow_growth=*/true};
  std::unique_ptr<core::MdpDataPlane> dp_;
  std::vector<std::unique_ptr<sim::InterferenceModel>> noise_;
  trace::StatsRegistry reg_;
  std::unique_ptr<ctrl::SloMonitor> slo_mon_;
  std::unique_ptr<ctrl::SimPlaneActuator> actuator_;
  std::unique_ptr<ctrl::Controller> controller_;
  std::unique_ptr<telem::SnapshotExporter> exporter_;
  std::unique_ptr<workload::TrafficGen> gen_;
  std::unique_ptr<workload::RpcWorkload> rpc_;
};

// --- replays of layers with no hook on the live path -------------------------

/// ns per packet to build the recorded packet stream (workload layer).
double replay_gen(const std::vector<Tracing::GenRec>& recs) {
  if (recs.empty()) return 0;
  net::PacketPool pool(256, 2048, false);
  const std::uint64_t t0 = wall_ns();
  for (const auto& r : recs) {
    net::BuildSpec spec;
    spec.flow = r.flow;
    spec.payload_len = r.payload;
    net::PacketPtr p = net::build_udp(pool, spec);
  }
  return static_cast<double>(wall_ns() - t0) /
         static_cast<double>(recs.size());
}

/// ns per packet for a standalone replica of the chain (nf layer),
/// replaying the recorded packet stream. Packets are built before the
/// timer starts, in batches, so only the chain traversal is timed.
double replay_chain(const std::string& chain,
                    const std::vector<Tracing::GenRec>& recs) {
  if (recs.empty()) return 0;
  sim::EventQueue eq;
  net::PacketPool pool(1024, 2048, false);
  click::Router router(click::Router::Context{&eq, &pool});
  std::string err;
  auto built =
      nf::build_chain(router, "replay", nf::ChainSpec::preset(chain), &err);
  auto* sink = router.add_element("sink", "Discard", {}, &err);
  if (!built || !sink || !router.connect(built->tail, 0, sink, 0, &err) ||
      !router.initialize(&err)) {
    std::fprintf(stderr, "chain replay: %s\n", err.c_str());
    return 0;
  }
  constexpr std::size_t kBatch = 512;
  std::vector<net::PacketPtr> batch;
  batch.reserve(kBatch);
  std::uint64_t timed = 0;
  for (std::size_t i = 0; i < recs.size(); i += kBatch) {
    const std::size_t n = std::min(kBatch, recs.size() - i);
    for (std::size_t k = 0; k < n; ++k) {
      net::BuildSpec spec;
      spec.flow = recs[i + k].flow;
      spec.payload_len = recs[i + k].payload;
      batch.push_back(net::build_udp(pool, spec));
    }
    const std::uint64_t t0 = wall_ns();
    for (auto& p : batch) built->head->push(0, std::move(p));
    timed += wall_ns() - t0;
    batch.clear();
  }
  return static_cast<double>(timed) / static_cast<double>(recs.size());
}

/// ns per arriving copy for Deduplicator::accept + ReorderBuffer::submit
/// (merge layer) on the recorded egress order, with the live run's share
/// of multi-copy packets spread evenly over the stream.
double replay_merge(const std::vector<Tracing::EgressRec>& recs,
                    double extra_copies_per_pkt,
                    const core::ReorderConfig& rcfg) {
  if (recs.empty()) return 0;
  sim::EventQueue eq;
  net::PacketPool pool(1024, 256, false);
  core::Deduplicator dedup;
  core::ReorderBuffer reorder(eq, rcfg, [](net::PacketPtr) {});
  constexpr std::size_t kBatch = 512;
  std::vector<net::PacketPtr> pkts;
  pkts.reserve(kBatch);
  std::uint64_t timed = 0, copies = 0;
  double carry = 0;
  for (std::size_t i = 0; i < recs.size(); i += kBatch) {
    const std::size_t n = std::min(kBatch, recs.size() - i);
    for (std::size_t k = 0; k < n; ++k) {
      net::PacketPtr p = pool.alloc();
      p->anno().flow_id = recs[i + k].flow;
      p->anno().seq = recs[i + k].seq;
      pkts.push_back(std::move(p));
    }
    const std::uint64_t t0 = wall_ns();
    for (std::size_t k = 0; k < n; ++k) {
      carry += extra_copies_per_pkt;
      const std::uint8_t c = carry >= 1 ? 2 : 1;
      if (c == 2) carry -= 1;
      const std::uint64_t key =
          core::Deduplicator::key(recs[i + k].flow, recs[i + k].seq);
      dedup.expect(key, c, 0);
      if (dedup.accept(key)) reorder.submit(std::move(pkts[k]));
      if (c == 2) dedup.accept(key);
      copies += c;
    }
    timed += wall_ns() - t0;
    pkts.clear();
    eq.clear();
  }
  reorder.flush_all();
  return static_cast<double>(timed) / static_cast<double>(copies);
}

/// ns per event for the event queue at the live run's mean heap depth,
/// with closures the size of the plane's (a packet handle plus context).
double replay_events(double mean_depth, std::uint64_t events) {
  if (events == 0) return 0;
  events = std::min<std::uint64_t>(events, 2'000'000);
  sim::EventQueue eq;
  sim::Rng rng(7);
  std::uint64_t fired = 0;
  struct Payload {
    std::uint64_t a, b, c, d;
  };
  std::function<void()> reschedule;
  const auto depth = static_cast<std::size_t>(std::max(1.0, mean_depth));
  auto add = [&](sim::TimeNs at) {
    Payload pl{at, fired, 0, 0};
    eq.schedule_at(at, [&, pl] {
      ++fired;
      asm volatile("" : : "r"(pl.a));
      reschedule();
    });
  };
  reschedule = [&] { add(eq.now() + 1 + rng.uniform_u64(4000)); };
  for (std::size_t i = 0; i < depth; ++i) add(1 + rng.uniform_u64(4000));
  const std::uint64_t t0 = wall_ns();
  while (fired < events) eq.step();
  const std::uint64_t t1 = wall_ns();
  eq.clear();
  return static_cast<double>(t1 - t0) / static_cast<double>(events);
}

// --- the run -----------------------------------------------------------------

struct SimWorkload {
  bool rpc;
  std::function<harness::ScenarioConfig(std::uint64_t)> config;
  std::uint64_t rpc_flows;
};

/// Reduced-size run of the harness entry point and of this assembly on
/// the same configuration; the model summaries must match bit for bit.
bool check_parity(const SimWorkload& w, std::uint64_t seed) {
  harness::ScenarioConfig cfg = w.config(seed);
  if (w.rpc) {
    const std::uint64_t flows = 4'000;
    const auto ref = harness::run_rpc_scenario(cfg, kChurnSizes, flows);
    SimRep rep(cfg, true, flows, nullptr, nullptr);
    rep.run();
    const ModelSummary& m = rep.model();
    return same_hist(ref.all_fct, m.all_fct) &&
           same_hist(ref.short_fct, m.short_fct) &&
           ref.flows_started == m.flows_started &&
           ref.flows_completed == m.flows_completed &&
           ref.ingress_bytes == m.ingress_bytes &&
           ref.extra_copy_bytes == m.extra_copy_bytes &&
           ref.hedges_fired == m.hedges;
  }
  cfg.packets = 40'000;
  cfg.warmup_packets = cfg.packets / 10;
  const auto ref = harness::run_scenario(cfg);
  SimRep rep(cfg, false, 0, nullptr, nullptr);
  rep.run();
  const ModelSummary& m = rep.model();
  return same_hist(ref.latency, m.latency) &&
         same_hist(ref.lc_latency, m.lc_latency) &&
         ref.emitted == m.generated && ref.egressed == m.delivered &&
         ref.hedges == m.hedges &&
         static_cast<std::uint64_t>(ref.sim_duration_ns) == m.sim_end_ns;
}

/// Totals of the traced repetitions, for the per-layer ledger.
struct TracedTotals {
  std::uint64_t wall_ns = 0, generated = 0, allocs = 0, events = 0;
  std::uint64_t dispatched = 0, hedges = 0, filtered = 0, ingress = 0;
  std::uint64_t dedup_late = 0, reorder_in = 0, reorder_ooo = 0;
  std::uint64_t reorder_timeouts = 0, reorder_late_skip = 0;
  std::uint64_t flows_seen = 0, flows_replicated = 0, ctrl_decisions = 0;
  stats::LatencyHistogram dwell;

  void add(SimRep& r, std::uint64_t run_ns) {
    wall_ns += run_ns;
    generated += r.model().generated;
    allocs += r.pool().total_allocs();
    events += r.eq().events_processed();
    const auto& fc = r.dp().fast_counters();
    dispatched += fc.get(core::DpCounter::kDispatched);
    hedges += fc.get(core::DpCounter::kHedges);
    filtered += fc.get(core::DpCounter::kChainFiltered);
    ingress += fc.get(core::DpCounter::kIngress);
    dedup_late += r.dp().dedup().late_drops();
    const auto& ro = r.dp().reorder();
    reorder_in += ro.in_order();
    reorder_ooo += ro.out_of_order();
    reorder_timeouts += ro.timeout_releases();
    reorder_late_skip += ro.late_after_skip();
    dwell.merge(ro.dwell());
    if (const auto* fr = r.dp().flow_replicator()) {
      flows_seen += fr->flows_seen();
      flows_replicated += fr->flows_replicated();
    }
    if (r.controller()) ctrl_decisions += r.controller()->decisions().size();
  }
};

RunResult run_sim(const RunOptions& opt, const SimWorkload& w) {
  RunResult res;
  const HostProbe before = run_host_probe();
  std::vector<std::optional<ModelSummary>> models(kModelSubSeeds);
  std::vector<std::optional<ModelSummary>> timing_models(kTimedSubSeeds);
  std::size_t leaks = 0;

  // Checks every repetition gets: delivered == generated (no loss and no
  // double delivery at the count level), every flow completed, no pool
  // packet left behind at quiesce, and the model output of a repeated
  // input identical to its first run (`ref`).
  auto account = [&](SimRep& r, std::optional<ModelSummary>& ref,
                     const char* what) {
    const ModelSummary& m = r.model();
    res.attempted += m.generated;
    res.failed += m.delivered > m.generated ? m.delivered - m.generated
                                            : m.generated - m.delivered;
    if (w.rpc) {
      res.attempted += m.flows_started;
      res.failed += m.flows_started - m.flows_completed;
    }
    if (r.pool().in_use() != 0) ++leaks;
    if (!ref)
      ref = m;
    else if (!same_model(*ref, m))
      res.fail(std::string(what) + " repetition changed model output");
  };

  // 1. Model cycle: every sub-seed once. Untimed; it is also the warm-up
  //    (allocator and caches) for the timed phase.
  for (std::size_t sub = 0; sub < kModelSubSeeds; ++sub) {
    SimRep r(w.config(sub_seed(opt.seed, sub)), w.rpc, w.rpc_flows, nullptr,
             nullptr);
    r.run();
    account(r, models[sub], "model");
  }

  // 2. Timed phase: cycles over kTimedSubSeeds fixed inputs until the
  //    budget is spent. Every repetition gives one set-up sample and
  //    the wall time of each of its model-time slices. ns_per_pkt sums,
  //    per sub-seed and slice, the fastest time that slice took:
  //    contention from other tenants only ever adds time, and on a shared
  //    host it comes and goes within a second, so the fastest of a dozen
  //    passes over the same few milliseconds of work is the steadiest
  //    estimate of its cost (see NOTES.md for the spreads of median and
  //    minimum). A traced run alternates untraced and traced cycles, so
  //    the tracing overhead is measured under the same host conditions.
  std::vector<double> setup_s, cycle_nspp, traced_nspp;
  std::vector<std::vector<std::uint64_t>> fastest_slice(kTimedSubSeeds);
  std::vector<std::uint64_t> sub_delivered(kTimedSubSeeds, 0);
  SpanLedger ledger;
  Tracing tr(&ledger);
  TracedTotals tt;
  const std::uint64_t start = wall_ns();
  const auto budget = static_cast<std::uint64_t>(opt.seconds * 1e9);
  for (std::size_t cycle = 0;; ++cycle) {
    const bool traced = opt.trace && cycle % 2 == 1;
    std::uint64_t run_ns = 0, delivered = 0;
    for (std::size_t sub = 0; sub < kTimedSubSeeds; ++sub) {
      const std::uint64_t t0 = wall_ns();
      SimRep r(w.config(sub_seed(kTimingSeed, sub)), w.rpc, w.rpc_flows,
               nullptr, traced ? &tr : nullptr);
      const std::uint64_t t1 = wall_ns();
      r.run();
      const std::uint64_t t2 = wall_ns();
      account(r, timing_models[sub], traced ? "traced" : "timed");
      run_ns += t2 - t1;
      delivered += r.model().delivered;
      if (!traced) {
        auto& best = fastest_slice[sub];
        const auto& got = r.slice_ns();
        if (best.empty()) {
          best = got;
        } else if (best.size() != got.size()) {
          res.fail("a repeated input ran a different number of slices");
        } else {
          for (std::size_t i = 0; i < got.size(); ++i)
            best[i] = std::min(best[i], got[i]);
        }
        sub_delivered[sub] = r.model().delivered;
      }
      if (traced)
        tt.add(r, t2 - t1);
      else
        setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    }
    const double nspp = static_cast<double>(run_ns) /
                        static_cast<double>(std::max<std::uint64_t>(
                            delivered, 1));
    (traced ? traced_nspp : cycle_nspp).push_back(nspp);
    std::fprintf(stderr, "cycle %zu%s: %.1f ns/pkt\n", cycle,
                 traced ? " (traced)" : "", nspp);
    const bool enough = cycle_nspp.size() >= 2 &&
                        (!opt.trace || !traced_nspp.empty());
    if (enough && wall_ns() - start >= budget) break;
  }
  const double rss = peak_rss_mib();
  std::fprintf(stderr,
               "timed cycles: %zu, median cycle %.1f ns/pkt, within-run "
               "spread %.3f\n",
               cycle_nspp.size(), median(cycle_nspp), spread(cycle_nspp));
  std::fprintf(stderr, "timed 1 ms model-time steps per input: %zu\n",
               fastest_slice[0].size());
  if (leaks)
    res.fail(std::to_string(leaks) +
             " repetitions left packets in the pool at quiesce");

  // 3. Full delivery oracle on the first timed input; its model output
  //    must equal the timed repetitions', so the verdict covers what was
  //    timed.
  {
    DeliveryOracle oracle;
    SimRep r(w.config(sub_seed(kTimingSeed, 0)), w.rpc, w.rpc_flows,
             &oracle, nullptr);
    r.run();
    oracle.finish();
    res.attempted += oracle.attempted();
    res.failed += oracle.failed();
    if (r.pool().in_use() != 0) res.fail("oracle run leaked pool packets");
    if (!same_model(*timing_models[0], r.model()))
      res.fail("oracle run changed model output");
    // Dedup keys keep 24 flow-id bits; ids at or above 2^24 could alias.
    if (oracle.max_flow_id() >= (1u << 24))
      res.fail("flow id above 2^24: dedup key aliasing is possible");
    std::fprintf(stderr,
                 "oracle: sent %llu lost %llu dup %llu corrupt %llu "
                 "reordered %llu max_flow_id %u\n",
                 static_cast<unsigned long long>(oracle.attempted()),
                 static_cast<unsigned long long>(oracle.lost()),
                 static_cast<unsigned long long>(oracle.duplicated()),
                 static_cast<unsigned long long>(oracle.corrupted()),
                 static_cast<unsigned long long>(oracle.reordered()),
                 oracle.max_flow_id());
  }
  // 4. The assembly reproduces the harness entry point bit for bit.
  if (!check_parity(w, sub_seed(opt.seed, 0)))
    res.fail("assembly does not reproduce the harness model output");

  // Pooled model metrics over the sub-seeds.
  ModelSummary pooled;
  for (const auto& m : models) {
    pooled.latency.merge(m->latency);
    pooled.lc_latency.merge(m->lc_latency);
    pooled.all_fct.merge(m->all_fct);
    pooled.short_fct.merge(m->short_fct);
    pooled.ingress_bytes += m->ingress_bytes;
    pooled.extra_copy_bytes += m->extra_copy_bytes;
  }
  const HostProbe after = run_host_probe();
  std::fprintf(stderr, "host probe: alu %.3f/%.3f ns, mem %.1f/%.1f ns "
               "(before/after)\n", before.alu_ns, after.alu_ns,
               before.mem_ns, after.mem_ns);

  if (!opt.trace) {
    res.set("setup_s", median(setup_s), "s");
    double fastest = 0, pkts = 0;
    for (std::size_t sub = 0; sub < kTimedSubSeeds; ++sub) {
      for (const std::uint64_t ns : fastest_slice[sub])
        fastest += static_cast<double>(ns);
      pkts += static_cast<double>(sub_delivered[sub]);
    }
    res.set("ns_per_pkt", fastest / std::max(pkts, 1.0), "ns");
    res.set("peak_rss_mib", rss, "MiB");
    if (w.rpc) {
      res.set("lat_p50_us", hist_quantile(pooled.all_fct, 0.5) / 1e3,
              "us");
      res.set("lat_tail_us",
              hist_quantile(pooled.short_fct, 0.99) / 1e3, "us");
    } else {
      res.set("lat_p50_us", hist_quantile(pooled.latency, 0.5) / 1e3,
              "us");
      res.set("lat_tail_us",
              hist_quantile(pooled.latency, 0.999) / 1e3, "us");
    }
    return res;
  }

  // --- per-layer ledger (traced run) ---------------------------------------
  const double pkts = static_cast<double>(std::max<std::uint64_t>(
      tt.generated, 1));
  const double gen_ns = replay_gen(tr.generated);
  const double chain_ns = replay_chain(w.config(0).chain, tr.generated);
  const double extra_copies =
      tt.ingress ? static_cast<double>(tt.dispatched - tt.ingress) /
                           static_cast<double>(tt.ingress)
                     : 0;
  const double merge_ns =
      replay_merge(tr.egressed, extra_copies, w.config(0).dp.reorder);
  const double mean_depth =
      tr.heap_samples ? tr.heap_depth_sum / static_cast<double>(tr.heap_samples)
                      : 1;
  const double event_ns = replay_events(mean_depth, tt.events);

  auto total = [&](const char* name) {
    return static_cast<double>(ledger.total_ns(name));
  };
  const double ingress_total = total("core.ingress");
  const double observe_total = total("ctrl.observe");
  const double tick_total = total("ctrl.tick");
  const double end_flow_total = total("core.end_flow");
  // The egress callback span holds ctrl.observe, the flow-completion
  // signal (churn: RpcWorkload::on_packet_egress, which calls end_flow)
  // and the benchmark's own latency recording.
  const double egress_total = total("egress");
  const double attributed =
      ingress_total + egress_total + tick_total +
      gen_ns * pkts + chain_ns * static_cast<double>(tt.dispatched) +
      merge_ns * static_cast<double>(tt.dispatched) +
      event_ns * static_cast<double>(tt.events);
  const double run_total = static_cast<double>(tt.wall_ns);

  res.set("workload.gen_ns_per_pkt", gen_ns, "ns");
  res.set("net.allocs_per_pkt", static_cast<double>(tt.allocs) / pkts,
          "count");
  res.set("net.clones_per_pkt",
          static_cast<double>(tt.allocs - tt.generated) / pkts,
          "count");
  res.set("net.pool_peak_in_use", static_cast<double>(tr.pool_peak), "count");
  res.set("sim.events_per_pkt", static_cast<double>(tt.events) / pkts,
          "count");
  res.set("sim.event_ns", event_ns, "ns");
  res.set("sim.heap_peak", static_cast<double>(tr.heap_peak), "count");
  res.set("core.ingress_ns_per_pkt", ingress_total / pkts, "ns");
  res.set("core.sched.select_ns",
          tr.select_calls ? total("core.sched.select") /
                                static_cast<double>(tr.select_calls)
                          : 0,
          "ns");
  res.set("core.copies_per_pkt",
          static_cast<double>(tt.dispatched) / pkts, "count");
  res.set("core.hedges_per_pkt", static_cast<double>(tt.hedges) / pkts,
          "count");
  res.set("core.repl.flows_replicated_frac",
          tt.flows_seen ? static_cast<double>(tt.flows_replicated) /
                           static_cast<double>(tt.flows_seen)
                     : 0,
          "ratio");
  res.set("nf.chain_ns_per_pkt", chain_ns, "ns");
  res.set("nf.filtered_frac",
          tt.dispatched ? static_cast<double>(tt.filtered) /
                                  static_cast<double>(tt.dispatched)
                            : 0,
          "ratio");
  res.set("core.merge_ns_per_copy", merge_ns, "ns");
  res.set("core.end_flow_ns",
          tr.end_flow_calls ? end_flow_total /
                                  static_cast<double>(tr.end_flow_calls)
                            : 0,
          "ns");
  res.set("core.dedup.pending_peak",
          static_cast<double>(tr.dedup_pending_peak), "count");
  res.set("core.dedup.late_drops", static_cast<double>(tt.dedup_late), "count");
  res.set("core.reorder.ooo_frac",
          tt.reorder_in + tt.reorder_ooo
              ? static_cast<double>(tt.reorder_ooo) /
                    static_cast<double>(tt.reorder_in + tt.reorder_ooo)
              : 0,
          "ratio");
  res.set("core.reorder.timeout_releases",
          static_cast<double>(tt.reorder_timeouts), "count");
  res.set("core.reorder.late_after_skip",
          static_cast<double>(tt.reorder_late_skip), "count");
  res.set("core.reorder.dwell_p99_us",
          hist_quantile(tt.dwell, 0.99) / 1e3, "us");
  res.set("ctrl.tick_ns",
          tr.ticks ? tick_total / static_cast<double>(tr.ticks) : 0, "ns");
  res.set("ctrl.observe_ns_per_pkt", observe_total / pkts, "ns");
  res.set("ctrl.decisions", static_cast<double>(tt.ctrl_decisions), "count");
  res.set("ledger.unattributed_frac",
          run_total > 0 ? 1.0 - attributed / run_total : 0, "ratio");
  res.set("trace.overhead_frac",
          median(traced_nspp) / median(cycle_nspp) - 1.0, "ratio");
  res.set("host.ref_ns",
          (before.alu_ns + before.mem_ns + after.alu_ns + after.mem_ns) / 2,
          "ns");
  res.set("host.ref_mem_ns", (before.mem_ns + after.mem_ns) / 2, "ns");
  // Model diagnostics (virtual time; identical in traced and untraced runs).
  res.set("model.p50_us", hist_quantile(pooled.latency, 0.5) / 1e3,
          "us");
  res.set("model.p999_us", hist_quantile(pooled.latency, 0.999) / 1e3,
          "us");
  res.set("model.lc_p999_us",
          hist_quantile(pooled.lc_latency, 0.999) / 1e3, "us");
  res.set("model.fct_p50_us", hist_quantile(pooled.all_fct, 0.5) / 1e3,
          "us");
  res.set("model.short_fct_p99_us",
          hist_quantile(pooled.short_fct, 0.99) / 1e3, "us");
  res.set("core.dup_byte_frac", dup_byte_frac(pooled), "ratio");
  if (!opt.out_dir.empty())
    ledger.write(opt.out_dir + "/spans-" + opt.workload + "-seed" +
                 std::to_string(opt.seed) + ".tsv");
  return res;
}

}  // namespace

RunResult run_sim_noisy_neighbor(const RunOptions& opt) {
  return run_sim(opt, SimWorkload{
                          false,
                          [](std::uint64_t s) {
                            return noisy_config(s, kNoisyPackets);
                          },
                          0});
}

RunResult run_sim_flow_churn(const RunOptions& opt) {
  return run_sim(opt,
                 SimWorkload{true, churn_config, kChurnFlows});
}

}  // namespace perfbench

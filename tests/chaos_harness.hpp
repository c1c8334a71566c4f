// Chaos harness: a seeded, single-threaded soak rig that closes the whole
// loop the library exists for — generation -> per-path queues -> loopback
// wire with fault lanes (drop / dup / delay / reorder) -> dedup ->
// reorder -> egress — with a live mdp::ctrl::Controller observing every
// egress span (SloMonitor::observe_span) and actuating admission masks,
// drains, probe grants, replication, and the PID hedge deadline back onto
// the rig.
//
// Everything is driven by one logical clock (1 iteration == 1 wire tick ==
// 1000 ns of sim time) and one splitmix64 stream, so a given
// ChaosScenarioConfig yields the exact same packet stream, fault pattern,
// controller decision log, and egress order every run — the determinism
// test diffs two runs byte for byte. Bottlenecks are injectable per stage:
//   - a fault phase with delay_ticks makes the WIRE slow -> the egress
//     spans show `service` as the dominant stage;
//   - a drain_per_iter below the offered per-path rate makes the rig QUEUE
//     deep -> the spans show `queue_wait`;
// which is what lets test_chaos_soak assert that the controller's
// dominant-stage verdict matches the bottleneck that was actually injected.
//
// Hedging: packets dispatched as a single copy are tracked; once the
// controller actuates a hedge deadline (set_hedge_timeout), any tracked
// packet older than the deadline whose first copy has not egressed gets
// one clone on the next admissible path (Merge::add_copy keeps
// exactly-once intact).
//
// The rig reuses the library's stages rather than re-implementing them:
// core::Merge is its receive side and core::AdmissionSet its path
// admission (the same rule, and the same rr / affinity picks, as
// ThreadedDataPlane's rr / hash policies).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <atomic>

#include "core/admission.hpp"
#include "core/merge.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/tenant.hpp"
#include "io/loopback_backend.hpp"
#include "net/packet_builder.hpp"
#include "net/tenant.hpp"
#include "sim/event_queue.hpp"
#include "telem/flight_recorder.hpp"
#include "telem/snapshot_exporter.hpp"
#include "trace/span.hpp"
#include "workload/conn_storm.hpp"

namespace mdp::chaos {

/// A fault lane applied to `path` for iterations [from_iter, to_iter).
/// Outside its window the path reverts to a clean wire, so scenarios can
/// script fault storms that come and go (and the admission flips they
/// provoke from the controller).
struct FaultPhase {
  std::uint64_t from_iter = 0;
  std::uint64_t to_iter = 0;
  std::uint16_t path = 0;
  io::LoopbackFaults faults{};
};

struct ChaosScenarioConfig {
  std::uint64_t seed = 1;
  std::uint64_t iterations = 100'000;
  std::uint32_t flows = 4;
  std::size_t num_paths = 2;
  /// Packets generated per iteration (each picks its flow from the RNG).
  std::uint64_t packets_per_iter = 1;
  /// Dispatch mode. false (default): round-robin spraying across
  /// admissible paths — the multipath data plane's normal mode, where a
  /// slow path surfaces as REORDER dwell on its siblings (head-of-line
  /// blocking at the resequencer). true: flow % num_paths affinity, which
  /// keeps each path's trouble in its own spans — what the attribution
  /// scenarios need to pin a bottleneck on the path that caused it.
  bool flow_affinity = false;
  /// Per-path rig-queue drain budget per iteration; sized per num_paths
  /// (missing entries default to 4). Below the path's offered rate this
  /// is the queue_wait bottleneck injector.
  std::vector<std::size_t> drain_per_iter{};
  std::vector<FaultPhase> phases{};
  /// Flow replication (tenantless generation only): every packet of a
  /// flow is sent once on each path of the flow's stable admissible pair
  /// (scan from flow % num_paths), both copies expected at the merge —
  /// first copy wins per sequence. Flows for which fewer than two
  /// admissible paths exist fall back to single-copy dispatch (and so stay
  /// hedgeable). Off: hedge sweep only.
  bool flow_replicas = false;
  ctrl::Config ctrl{};
  std::uint64_t ctrl_tick_every = 64;  ///< iterations between ticks
  std::uint64_t reorder_timeout_ns = 200'000;
  std::size_t pool_size = 16384;
  std::size_t wire_depth = 8192;
  /// Flight-recorder ring size per channel (rounded to a power of two).
  std::size_t recorder_events_per_channel = 8192;
  /// Span of timeline a quarantine auto-dump captures (0 = everything
  /// the rings retain). 100 us = the last ~100 rig iterations.
  std::uint64_t quarantine_dump_window_ns = 100'000;

  /// One tenant's traffic shape in tenant mode: a ConnStorm schedule
  /// (flow arrivals / teardowns; each arrival also emits one packet),
  /// a steady per-iteration packet rate round-robined over the tenant's
  /// live flows, and the contract handed to ctrl::TenantAdmission.
  struct TenantTraffic {
    workload::ConnStormTenant storm{};
    ctrl::TenantSpec spec{};
    std::uint64_t packets_per_iter = 1;
  };
  /// Non-empty switches the rig into tenant mode (docs/TENANCY.md):
  /// generation is driven per tenant (flows = storm connections, ids
  /// dense across tenants), every packet passes TenantAdmission::admit()
  /// BEFORE entering the plane, src addresses live in per-tenant /12
  /// subnets classified back through net::TenantClassifier, and the
  /// controller runs the tenant admission stage each tick. Empty keeps
  /// the legacy tenantless rig byte-for-byte.
  std::vector<TenantTraffic> tenants{};
  /// Hysteresis thresholds for the tenant state machines (the `tenants`
  /// vector inside is overwritten from TenantTraffic::spec; tenants with
  /// slo_target_ns == 0 inherit ctrl.slo_target_ns).
  ctrl::TenantAdmissionConfig tenant_ctrl{};
};

struct ChaosResult {
  std::uint64_t generated = 0;       ///< (flow, seq) pairs offered
  std::uint64_t copies_sent = 0;     ///< frames handed to rig queues
  std::uint64_t hedges_sent = 0;
  std::uint64_t arrived_unique = 0;  ///< (flow, seq) with >= 1 survivor
  std::uint64_t egressed = 0;
  std::uint64_t duplicate_egress = 0;
  std::uint64_t order_violations = 0;
  // Pool audit at quiesce.
  std::uint64_t pool_in_use = 0;
  std::uint64_t pool_allocs = 0;
  std::uint64_t pool_recycles = 0;
  // Wire fault counters.
  std::uint64_t wire_dropped = 0;
  std::uint64_t wire_duplicated = 0;
  std::uint64_t wire_reordered = 0;
  // Controller outcome.
  std::uint64_t quarantines = 0;
  std::uint64_t reinstatements = 0;
  std::uint64_t hedge_timeout_ns = 0;
  std::uint64_t hedge_timeout_adjustments = 0;
  /// Extra copies sent by flow replication (not hedges).
  std::uint64_t flow_replicas = 0;
  std::vector<ctrl::Decision> decisions;
  std::string ctrl_report;  ///< report_json(): the byte-identity artifact
  /// Egress order as (flow << 32 | seq), for run-to-run identity checks.
  std::vector<std::uint64_t> delivered_log;
  /// (egress_ns, e2e latency_ns) of every delivered packet, in egress
  /// order — the raw series behind the A/B breach-window and storm-onset
  /// metrics (bench-side, identical bucketing for both controllers).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> latency_log;
  // Forecast stage outcome (all zero while ctrl.forecast.enabled=false).
  std::uint64_t breach_windows = 0;
  std::uint64_t forecast_prehedges = 0;
  std::uint64_t forecast_probes = 0;
  std::uint64_t forecast_prequarantines = 0;
  std::uint64_t forecast_restores = 0;
  std::uint64_t forecast_confirmed = 0;
  std::uint64_t forecast_false_positives = 0;
  // Telemetry plane artifacts. The rig runs on one logical clock and one
  // RNG stream, so all three are byte-identical across same-seed reruns.
  std::uint64_t telem_events = 0;   ///< events emitted across all channels
  std::uint64_t auto_dumps = 0;     ///< quarantine-triggered dumps taken
  std::string telem_dump;           ///< final mdp.flight_recorder.v1 timeline
  std::string telem_report;         ///< mdp.telem.v1 per-tick time series
  /// Timeline captured at the moment of the most recent quarantine
  /// (Controller::last_quarantine_dump); empty when nothing was cut.
  std::string quarantine_dump;
  // Tenancy outcome (all empty/zero for tenantless scenarios).
  std::uint64_t tenant_throttles = 0;
  std::uint64_t tenant_sheds = 0;
  std::uint64_t tenant_reinstates = 0;
  std::uint64_t tenant_dropped = 0;  ///< packets refused at the door
  std::vector<const char*> tenant_final_states;
  std::vector<std::uint64_t> tenant_offered;        ///< packets per tenant
  std::vector<std::uint64_t> tenant_flow_arrivals;  ///< storm arrivals
  /// Exact e2e latency of every egressed packet, per tenant, in egress
  /// order — the evidence behind the non-contagion assertion (tests sort
  /// a copy for exact p99.9, no histogram quantization).
  std::vector<std::vector<std::uint64_t>> tenant_latencies;
};

class ChaosRig {
 public:
  explicit ChaosRig(ChaosScenarioConfig cfg) : cfg_(std::move(cfg)) {
    if (cfg_.num_paths == 0) cfg_.num_paths = 1;
    cfg_.drain_per_iter.resize(cfg_.num_paths, 4);
    if (cfg_.ctrl.slo_target_ns == 0) cfg_.ctrl.slo_target_ns = 10'000;
  }

  ChaosResult run() {
    net::PacketPool pool(cfg_.pool_size, 1024, /*allow_growth=*/false);
    sim::EventQueue eq;
    io::LoopbackConfig wire_cfg;
    wire_cfg.queue_depth = cfg_.wire_depth;
    wire_cfg.seed = cfg_.seed;
    auto [tx, rx] = io::LoopbackBackend::make_pair(wire_cfg);

    ChaosResult res;

    // Tenant mode: admission stage + storm generator + per-tenant /12
    // subnets wired through the classifier. `ta` stays null in legacy
    // (tenantless) scenarios and every tenant branch below is skipped.
    const std::size_t num_tenants = cfg_.tenants.size();
    std::unique_ptr<ctrl::TenantAdmission> ta_own;
    ctrl::TenantAdmission* ta = nullptr;
    std::unique_ptr<workload::ConnStorm> storm;
    std::vector<std::deque<std::uint32_t>> tenant_live(num_tenants);
    std::vector<std::size_t> tenant_rr(num_tenants, 0);
    tenants_live_.store(nullptr, std::memory_order_release);
    tenants_owner_.reset();
    classifier_ = net::TenantClassifier{};
    if (num_tenants > 0) {
      ctrl::TenantAdmissionConfig tc = cfg_.tenant_ctrl;
      tc.tenants.clear();
      std::vector<workload::ConnStormTenant> storms;
      for (std::size_t i = 0; i < num_tenants; ++i) {
        tc.tenants.push_back(cfg_.tenants[i].spec);
        workload::ConnStormTenant s = cfg_.tenants[i].storm;
        s.tenant = static_cast<std::uint16_t>(i);
        storms.push_back(s);
        classifier_.add_prefix(tenant_subnet(static_cast<std::uint16_t>(i)),
                               12, static_cast<std::uint16_t>(i));
      }
      tc.default_slo_target_ns = cfg_.ctrl.slo_target_ns;
      ta_own = std::make_unique<ctrl::TenantAdmission>(tc);
      ta = ta_own.get();
      storm = std::make_unique<workload::ConnStorm>(std::move(storms),
                                                    cfg_.seed);
      res.tenant_offered.assign(num_tenants, 0);
      res.tenant_flow_arrivals.assign(num_tenants, 0);
      res.tenant_latencies.assign(num_tenants, {});
    }

    // Flight recorder: one channel for the whole rig (single-threaded, so
    // one writer suffices). Every stage of the loop emits into it; the
    // controller gets its own "ctrl" channel via attach_recorder below.
    telem::FlightRecorder rec(
        {.events_per_channel = cfg_.recorder_events_per_channel});
    rig_chan_ = rec.channel("rig");

    std::map<std::pair<std::uint32_t, std::uint64_t>, int> egress_count;
    std::vector<std::uint64_t> last_seq(cfg_.flows, 0);
    std::vector<bool> any_seq(cfg_.flows, false);
    core::Merge merge(
        eq, {true, sim::TimeNs(cfg_.reorder_timeout_ns)},
        [&](net::PacketPtr pkt) {
          const auto& a = pkt->anno();
          const int n = ++egress_count[{a.flow_id, a.seq}];
          if (n > 1) ++res.duplicate_egress;
          if (any_seq[a.flow_id] && a.seq <= last_seq[a.flow_id])
            ++res.order_violations;
          last_seq[a.flow_id] = a.seq;
          any_seq[a.flow_id] = true;
          ++res.egressed;
          res.delivered_log.push_back(tag(a.flow_id, a.seq));
          const trace::SpanRecord sp =
              span_of(a, static_cast<std::uint64_t>(eq.now()));
          mon_->observe_span(a.path_id, sp);
          res.latency_log.emplace_back(sp.egress_ns,
                                       sp.egress_ns - a.ingress_ns);
          if (ta) {
            // Per-tenant evidence: the exact e2e latency feeds both the
            // tenant's SLO window and the test-side latency log.
            const std::uint64_t lat = sp.egress_ns - a.ingress_ns;
            ta->observe(a.tenant_id, lat);
            if (a.tenant_id < res.tenant_latencies.size())
              res.tenant_latencies[a.tenant_id].push_back(lat);
          }
          rig_chan_->emit(sp.egress_ns, telem::EventType::kReorderRelease,
                          a.path_id, 1, tag(a.flow_id, a.seq));
        });

    mon_ = std::make_unique<ctrl::SloMonitor>(cfg_.num_paths,
                                              cfg_.ctrl.slo_target_ns);
    RigActuator act(*this, *tx);
    ctrl::Controller controller(cfg_.ctrl, act, *mon_);
    telem::SnapshotExporter exporter({.capacity_ticks = 4096});
    controller.set_telem_exporter(&exporter);
    controller.attach_recorder(&rec, cfg_.quarantine_dump_window_ns);
    if (ta) {
      controller.attach_tenants(ta);
      // Publish the live admission stage for concurrent prodding (the
      // flap-from-a-second-thread soak). The object stays valid after
      // run() returns (owned by the rig), but the pointer drops to null
      // once the run's results are final.
      tenants_owner_ = std::move(ta_own);
      tenants_live_.store(ta, std::memory_order_release);
    }

    queues_.clear();
    queues_.resize(cfg_.num_paths);
    admission_ = core::AdmissionSet(cfg_.num_paths);
    replicas_ = 1;
    hedge_timeout_ns_ = 0;
    rr_ = 0;
    rng_ = cfg_.seed ? cfg_.seed : 0x9e3779b97f4a7c15ULL;

    std::vector<std::uint64_t> next_seq(cfg_.flows, 0);
    std::deque<Outstanding> outstanding;
    std::vector<net::PacketPtr> txvec;
    txvec.reserve(64);

    auto drain_rx = [&] {
      net::PacketPtr got[64];
      std::size_t n;
      while ((n = rx->rx_burst(std::span<net::PacketPtr>(got, 64))) > 0) {
        for (std::size_t i = 0; i < n; ++i)
          got[i]->anno().egress_ns = static_cast<std::uint64_t>(eq.now());
        merge.receive({got, n});
        // What is left in the burst lost at dedup. Its true per-copy wire
        // latency still lands in the window of the path that carried it:
        // a hedge rescue caps the e2e latency and drops the slow first
        // copy here, and without this the path that caused the trouble
        // would look clean (every forecast actuation would book as a
        // false positive). E2e delivery metrics stay rescue-capped.
        for (std::size_t i = 0; i < n; ++i)
          if (got[i]) {
            const auto& a = got[i]->anno();
            mon_->observe_span(
                a.path_id,
                span_of(a, static_cast<std::uint64_t>(eq.now())));
            rig_chan_->emit(static_cast<std::uint64_t>(eq.now()),
                            telem::EventType::kDedupDrop, a.path_id, 1,
                            tag(a.flow_id, a.seq));
            got[i].reset();
          }
      }
    };

    // One (flow, seq) into the plane. With flow replicas on (tenantless
    // only), the whole flow rides its stable admissible pair, both copies
    // expected up front; it is never tracked in `outstanding` — a
    // replicated flow is already redundant, hedging it would triple-send.
    // Otherwise `replicas_` copies by pick_path, and a single copy stays
    // hedgeable.
    std::vector<std::uint16_t> paths;
    auto offer = [&](std::uint32_t flow, std::uint16_t tenant) {
      const std::uint64_t seq = next_seq[flow]++;
      paths.resize(2);
      const bool replicated =
          tenant == kNoTenant && cfg_.flow_replicas &&
          replica_pair(flow, paths.data());
      if (!replicated) {
        paths.resize(std::min<std::size_t>(replicas_, cfg_.num_paths));
        for (std::uint16_t& p : paths) p = pick_path(flow);
      }
      merge.expect(flow, seq, static_cast<std::uint8_t>(paths.size()));
      ++res.generated;
      for (std::size_t c = 0; c < paths.size(); ++c) {
        net::PacketPtr pkt = make_frame(pool, flow, seq, paths[c],
                                        static_cast<std::uint8_t>(c), tenant);
        if (!pkt) {
          // Pool exhausted: account the missing copy so the merge can
          // still retire the key. Scenarios size the pool to make this
          // unreachable; the counter keeps it honest.
          merge.cancel_copy(flow, seq);
          ++pool_exhausted_;
          continue;
        }
        pkt->anno().ingress_ns = now_ns_;
        queues_[paths[c]].push_back(std::move(pkt));
        ++res.copies_sent;
        if (replicated && c > 0) ++res.flow_replicas;
      }
      if (paths.size() == 1)
        outstanding.push_back({flow, seq, now_ns_, paths[0], false, tenant});
    };

    const std::uint64_t total_iters = cfg_.iterations;
    // Quiesce bound: generously past anything a staged wire + deep queue
    // + reorder timeout can strand.
    const std::uint64_t hard_stop =
        total_iters + cfg_.pool_size + cfg_.reorder_timeout_ns / 1000 + 256;
    for (std::uint64_t iter = 0; iter < hard_stop; ++iter) {
      const std::uint64_t now = iter * 1'000;
      now_ns_ = now;
      eq.run_until(sim::TimeNs(now));

      for (const auto& ph : cfg_.phases) {
        if (iter == ph.from_iter) {
          tx->set_path_faults(ph.path, ph.faults);
          rig_chan_->emit(now, telem::EventType::kFaultInject, ph.path, 1,
                          iter);
        }
        if (iter == ph.to_iter) {
          tx->set_path_faults(ph.path, {});
          rig_chan_->emit(now, telem::EventType::kFaultInject, ph.path, 0,
                          iter);
        }
      }

      const bool generating = iter < total_iters;
      if (generating && num_tenants > 0) {
        // Tenant mode. One packet into the plane, gated at the door:
        // admission refusal happens BEFORE merge.expect, so a shed
        // tenant's packets never become expected keys and the
        // exactly-once / zero-leak invariants hold under any flap.
        auto emit_tenant = [&](std::uint16_t t, std::uint32_t flow) {
          ++res.tenant_offered[t];
          if (!ta->admit(t)) return;
          if (flow >= next_seq.size()) {
            next_seq.resize(flow + 1, 0);
            last_seq.resize(flow + 1, 0);
            any_seq.resize(flow + 1, false);
          }
          offer(flow, t);
        };
        // Storm events: each arrival opens a flow (and emits its first
        // packet); teardowns retire flows FIFO per tenant.
        for (const auto& ev : storm->tick()) {
          const std::uint16_t t = ev.tenant;
          const auto conn = static_cast<std::uint32_t>(ev.conn_id);
          if (ev.type == workload::ConnEvent::Type::kArrival) {
            ta->on_flow_arrival(t);
            ++res.tenant_flow_arrivals[t];
            tenant_live[t].push_back(conn);
            emit_tenant(t, conn);
          } else {
            auto& dq = tenant_live[t];
            if (!dq.empty() && dq.front() == conn) {
              dq.pop_front();
            } else {
              auto it = std::find(dq.begin(), dq.end(), conn);
              if (it != dq.end()) dq.erase(it);
            }
          }
        }
        // Steady per-tenant rate, round-robined over the tenant's live
        // flows so every open connection keeps its sequence advancing.
        std::uint64_t burst = 0;
        for (std::size_t t = 0; t < num_tenants; ++t) {
          auto& dq = tenant_live[t];
          if (dq.empty()) continue;
          for (std::uint64_t g = 0; g < cfg_.tenants[t].packets_per_iter;
               ++g) {
            const std::uint32_t flow = dq[tenant_rr[t]++ % dq.size()];
            emit_tenant(static_cast<std::uint16_t>(t), flow);
            ++burst;
          }
        }
        if (burst > 0)
          rig_chan_->emit(now, telem::EventType::kIngressBurst,
                          telem::kAllPaths,
                          static_cast<std::uint32_t>(burst), res.generated);
      } else if (generating) {
        for (std::uint64_t g = 0; g < cfg_.packets_per_iter; ++g)
          offer(static_cast<std::uint32_t>(next_u64() % cfg_.flows),
                kNoTenant);
        if (cfg_.packets_per_iter > 0)
          rig_chan_->emit(now, telem::EventType::kIngressBurst,
                          telem::kAllPaths,
                          static_cast<std::uint32_t>(cfg_.packets_per_iter),
                          res.generated);
      }

      // Hedge sweep: rescue tracked single-copy packets older than the
      // actuated deadline whose first copy has not egressed.
      while (!outstanding.empty() &&
             (merge.delivered(outstanding.front().flow,
                              outstanding.front().seq) ||
              now - outstanding.front().gen_ns > 2 * cfg_.reorder_timeout_ns))
        outstanding.pop_front();
      if (hedge_timeout_ns_ > 0) {
        for (auto& o : outstanding) {
          if (now - o.gen_ns <= hedge_timeout_ns_) break;  // gen order
          if (o.hedged || merge.delivered(o.flow, o.seq)) continue;
          // Hedges spend the owning tenant's per-window budget.
          if (ta && !ta->try_consume_hedge_token(o.tenant)) continue;
          const std::uint16_t alt =
              cfg_.num_paths > 1
                  ? static_cast<std::uint16_t>((o.path + 1) % cfg_.num_paths)
                  : o.path;
          net::PacketPtr copy = make_frame(pool, o.flow, o.seq, alt, 1,
                                           o.tenant);
          if (!copy) {
            ++pool_exhausted_;
            break;
          }
          copy->anno().ingress_ns = o.gen_ns;
          merge.add_copy(o.flow, o.seq);
          queues_[alt].push_back(std::move(copy));
          o.hedged = true;
          ++res.hedges_sent;
          ++res.copies_sent;
          rig_chan_->emit(now, telem::EventType::kHedgeFire, alt, 1,
                          tag(o.flow, o.seq));
        }
      }

      // One wire tick per iteration — advance() is the wire's only clock,
      // tx_burst never ticks — then a single tx_burst carrying every
      // path's drain budget (fault lanes select on anno().path_id).
      tx->advance(1);
      txvec.clear();
      for (std::size_t p = 0; p < cfg_.num_paths; ++p) {
        for (std::size_t k = 0;
             k < cfg_.drain_per_iter[p] && !queues_[p].empty(); ++k) {
          queues_[p].front()->anno().dispatch_ns = now;
          txvec.push_back(std::move(queues_[p].front()));
          queues_[p].pop_front();
        }
      }
      if (txvec.empty()) {
        if (!generating && tx->in_flight() > 0) tx->flush();
      } else {
        const std::size_t sent = tx->tx_burst(
            std::span<net::PacketPtr>(txvec.data(), txvec.size()));
        // Wire full: unconsumed frames go back to the front of their
        // queues, preserving per-path order.
        for (std::size_t i = txvec.size(); i > sent; --i) {
          net::PacketPtr& p = txvec[i - 1];
          queues_[p->anno().path_id].push_front(std::move(p));
        }
      }
      drain_rx();

      if ((iter + 1) % cfg_.ctrl_tick_every == 0) controller.tick(now);
      if ((iter + 1) % 4096 == 0)
        merge.sweep(sim::TimeNs(4 * cfg_.reorder_timeout_ns));

      if (!generating && tx->in_flight() == 0 && queues_empty() &&
          merge.reorder().buffered() == 0)
        break;
    }

    eq.run();  // outstanding reorder timers fire
    drain_rx();
    merge.flush_all();

    res.arrived_unique = egress_count.size();
    res.pool_in_use = pool.in_use();
    res.pool_allocs = pool.total_allocs();
    res.pool_recycles = pool.total_recycles();
    res.wire_dropped = tx->dropped();
    res.wire_duplicated = tx->duplicated();
    res.wire_reordered = tx->reordered();
    res.quarantines = controller.quarantines();
    res.reinstatements = controller.reinstatements();
    res.hedge_timeout_ns = controller.hedge_timeout_ns();
    res.hedge_timeout_adjustments = controller.hedge_timeout_adjustments();
    res.breach_windows = controller.breach_windows();
    res.forecast_prehedges = controller.forecast_prehedges();
    res.forecast_probes = controller.forecast_probes();
    res.forecast_prequarantines = controller.forecast_prequarantines();
    res.forecast_restores = controller.forecast_restores();
    res.forecast_confirmed = controller.forecast_confirmed();
    res.forecast_false_positives = controller.forecast_false_positives();
    res.decisions = controller.decisions();
    res.ctrl_report = controller.report_json();
    res.telem_events = rec.total_emitted();
    res.auto_dumps = controller.auto_dumps();
    res.quarantine_dump = controller.last_quarantine_dump();
    res.telem_report = exporter.to_json();
    res.telem_dump = rec.dump_json();
    if (ta) {
      res.tenant_throttles = ta->throttles();
      res.tenant_sheds = ta->sheds();
      res.tenant_reinstates = ta->reinstates();
      res.tenant_dropped = ta->total_dropped();
      for (std::size_t t = 0; t < num_tenants; ++t)
        res.tenant_final_states.push_back(ctrl::tenant_state_name(
            ta->state(static_cast<std::uint16_t>(t))));
      tenants_live_.store(nullptr, std::memory_order_release);
    }
    rig_chan_ = nullptr;
    mon_.reset();
    return res;
  }

  std::uint64_t pool_exhaustions() const noexcept { return pool_exhausted_; }

  /// Non-null only while a tenant-mode run() is in flight: the live
  /// admission stage, for tests that hammer admit()/state()/observe()
  /// from a second thread while the rig runs (everything on that surface
  /// is lock-free). The object outlives the run (rig-owned), so a racing
  /// reader that loaded the pointer just before it dropped stays safe.
  ctrl::TenantAdmission* tenants_live() const noexcept {
    return tenants_live_.load(std::memory_order_acquire);
  }

 private:
  struct Outstanding {
    std::uint32_t flow;
    std::uint64_t seq;
    std::uint64_t gen_ns;
    std::uint16_t path;
    bool hedged;
    std::uint16_t tenant;  ///< kNoTenant in tenantless runs
  };

  /// The controller's write interface onto the rig: admission + probe
  /// credits gate pick_path(), backlog is rig queue depth, flush pushes
  /// the staged wire, replication and the hedge deadline feed generation.
  class RigActuator final : public ctrl::Actuator {
   public:
    RigActuator(ChaosRig& rig, io::LoopbackBackend& wire)
        : rig_(rig), wire_(wire) {}
    std::size_t num_paths() const override { return rig_.cfg_.num_paths; }
    void set_admission(std::size_t path, core::PathAdmission a) override {
      rig_.admission_.set(path, a);
      rig_.rig_chan_->emit(rig_.now_ns_, telem::EventType::kAdmissionFlip,
                           static_cast<std::uint16_t>(path),
                           static_cast<std::uint32_t>(a), 0);
    }
    void grant_probes(std::size_t path, std::uint64_t n) override {
      rig_.admission_.grant(path, n);
    }
    std::uint64_t path_backlog(std::size_t path) const override {
      return rig_.queues_[path].size();
    }
    void flush_path(std::size_t) override { wire_.flush(); }
    void set_replicas(std::size_t r) override { rig_.replicas_ = r; }
    void set_hedge_timeout(std::uint64_t t) override {
      rig_.hedge_timeout_ns_ = t;
    }

   private:
    ChaosRig& rig_;
    io::LoopbackBackend& wire_;
  };

  /// Sentinel for legacy (tenantless) frames; keeps the pre-tenancy
  /// address formula byte-for-byte.
  static constexpr std::uint16_t kNoTenant = 0xffff;

  /// The /12 block tenant `t` sources from: 10.(16*(t+1)).0.0/12. The
  /// rig's classifier rules and frame builder must agree on this.
  static constexpr std::uint32_t tenant_subnet(std::uint16_t t) noexcept {
    return 0x0a000000u | (static_cast<std::uint32_t>(t + 1) << 20);
  }

  net::PacketPtr make_frame(net::PacketPool& pool, std::uint32_t flow_id,
                            std::uint64_t seq, std::uint16_t path,
                            std::uint8_t copy_index,
                            std::uint16_t tenant = kNoTenant) {
    net::BuildSpec spec;
    if (tenant == kNoTenant) {
      spec.flow = {0x0a000001 + flow_id, 0x0a000002,
                   static_cast<std::uint16_t>(1024 + flow_id), 4789, 0};
    } else {
      // Tenant-mode source addresses live in the tenant's /12, so the
      // annotation below is the classifier's verdict, not a copy of the
      // generator's intent — the same derivation the NF path uses.
      spec.flow = {tenant_subnet(tenant) | (flow_id & 0xfffff), 0x0a000002,
                   static_cast<std::uint16_t>(1024 + (flow_id & 0x7fff)),
                   4789, 0};
    }
    spec.payload_len = 64;
    spec.payload_fill = static_cast<std::uint8_t>(seq);
    net::PacketPtr pkt = net::build_udp(pool, spec);
    if (!pkt) return pkt;
    auto& a = pkt->anno();
    a.flow_id = flow_id;
    a.seq = seq;
    a.path_id = path;
    a.copy_index = copy_index;
    a.is_replica = copy_index > 0;
    a.flow_hash = net::hash_flow(spec.flow);
    if (tenant != kNoTenant) a.tenant_id = classifier_.classify(spec.flow);
    return pkt;
  }

  /// Stage-attributed span from the rig's stamps: generation -> queue
  /// (ingress/dispatch), tx onto the wire (service start), rx off the wire
  /// (service end / merge), merge emit or dedup drop (`egress_ns`).
  static trace::SpanRecord span_of(const net::Annotations& a,
                                   std::uint64_t egress_ns) {
    trace::SpanRecord sp;
    sp.ingress_ns = a.ingress_ns;
    sp.dispatch_ns = a.ingress_ns;
    sp.service_start_ns = a.dispatch_ns;
    sp.service_end_ns = a.egress_ns;
    sp.chain_done_ns = a.egress_ns;
    sp.merge_ns = a.egress_ns;
    sp.egress_ns = egress_ns;
    sp.flow_id = a.flow_id;
    sp.seq = a.seq;
    sp.path_id = a.path_id;
    sp.active = true;
    return sp;
  }

  /// (flow, seq) as one word, for logs and recorder payloads.
  static std::uint64_t tag(std::uint32_t flow, std::uint64_t seq) noexcept {
    return (std::uint64_t{flow} << 32) | seq;
  }

  /// Stable replica pair for `flow`: the first two admissible paths
  /// scanning from the flow's home (flow % num_paths). Returns false —
  /// caller falls back to legacy single-copy dispatch — when fewer than
  /// two paths are admissible, so a storm that masks paths degrades
  /// replication gracefully instead of double-sending on one survivor.
  bool replica_pair(std::uint32_t flow, std::uint16_t out[2]) {
    const std::size_t n = cfg_.num_paths;
    const std::size_t p0 = admission_.first_from(flow % n);
    if (n < 2 || !admission_.candidate(p0)) return false;
    const std::size_t p1 = admission_.first_from((p0 + 1) % n);
    if (p1 == p0) return false;
    out[0] = static_cast<std::uint16_t>(p0);
    out[1] = static_cast<std::uint16_t>(p1);
    admission_.place(p0);
    admission_.place(p1);
    return true;
  }

  /// Path selection: flow affinity is ThreadedDataPlane's hash pick keyed
  /// by flow id, spraying its rr pick. One probe credit per placement.
  std::uint16_t pick_path(std::uint32_t flow) {
    std::size_t p;
    if (cfg_.flow_affinity) {
      p = admission_.first_from(flow % cfg_.num_paths);
    } else {
      p = admission_.first_from(rr_);
      rr_ = (p + 1) % cfg_.num_paths;
    }
    admission_.place(p);
    return static_cast<std::uint16_t>(p);
  }

  bool queues_empty() const {
    for (const auto& q : queues_)
      if (!q.empty()) return false;
    return true;
  }

  std::uint64_t next_u64() {  // splitmix64
    std::uint64_t z = (rng_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  ChaosScenarioConfig cfg_;
  std::unique_ptr<ctrl::SloMonitor> mon_;
  std::vector<std::deque<net::PacketPtr>> queues_;
  core::AdmissionSet admission_;
  std::size_t replicas_ = 1;
  std::uint64_t hedge_timeout_ns_ = 0;
  std::size_t rr_ = 0;
  std::uint64_t rng_ = 1;
  std::uint64_t pool_exhausted_ = 0;
  /// Live only during run(): the rig's flight-recorder channel and the
  /// current logical time, so the actuator can stamp admission flips.
  telem::FlightRecorder::Channel* rig_chan_ = nullptr;
  std::uint64_t now_ns_ = 0;
  // Tenant mode state. The owner keeps the admission stage alive past
  // run() so a second thread that raced the final pointer-clear never
  // touches a destroyed object; the classifier is rebuilt per run.
  net::TenantClassifier classifier_;
  std::unique_ptr<ctrl::TenantAdmission> tenants_owner_;
  std::atomic<ctrl::TenantAdmission*> tenants_live_{nullptr};
};

}  // namespace mdp::chaos

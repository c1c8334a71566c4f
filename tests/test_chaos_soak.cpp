// Chaos/soak suite: the whole stack — queues, faulty wire, dedup, reorder,
// SLO monitor, controller, hedging — run for 100k+ packets per seed under
// scripted fault storms, with the global invariants asserted at quiesce:
//
//   exactly-once   every (flow, seq) egresses at most once
//   in-order       per-flow egress seqs strictly increase
//   zero leaks     pool in_use == 0 and total_allocs == total_recycles
//   sane log       every controller decision uses a known reason, a legal
//                  FSM edge, and a known stage name
//   attribution    the dominant-stage verdict on the first quarantine
//                  matches the bottleneck the scenario injected
//   determinism    same seed -> byte-identical decision log, egress
//                  order, flight-recorder dump, and telem time series
//
// Any invariant failure attaches the tail of the flight-recorder dump to
// the failure message, so a red soak run carries its own timeline.
// See tests/chaos_harness.hpp for the rig itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "chaos_harness.hpp"

namespace mdp {
namespace {

using chaos::ChaosResult;
using chaos::ChaosRig;
using chaos::ChaosScenarioConfig;

// ---------------------------------------------------------------------------
// Shared invariant checks.

void expect_core_invariants(const ChaosResult& r, const char* label) {
  EXPECT_EQ(r.duplicate_egress, 0u) << label << ": double egress";
  EXPECT_EQ(r.order_violations, 0u) << label << ": per-flow order broken";
  EXPECT_EQ(r.pool_in_use, 0u) << label << ": leaked frames at quiesce";
  EXPECT_EQ(r.pool_allocs, r.pool_recycles)
      << label << ": alloc/recycle imbalance";
  EXPECT_LE(r.egressed, r.copies_sent) << label;
  EXPECT_GT(r.egressed, 0u) << label << ": nothing made it through";
}

void expect_decision_log_sane(const ChaosResult& r, const char* label) {
  static const std::set<std::string> kReasons = {
      "slo_breach",     "backlog_breach", "slo+backlog_breach",
      "probe_breach",   "drain_start",    "drained",
      "probation_passed", "hedge_raise",  "hedge_lower",
      "hedge_timeout",  "tenant_throttle", "tenant_shed",
      "tenant_probation", "tenant_reinstate"};
  static const std::set<std::string> kStages = {
      "", "schedule", "queue_wait", "service", "chain", "merge", "reorder"};
  for (const auto& d : r.decisions) {
    EXPECT_TRUE(kReasons.count(d.reason))
        << label << ": unknown reason '" << d.reason << "'";
    EXPECT_TRUE(kStages.count(d.dominant_stage))
        << label << ": unknown stage '" << d.dominant_stage << "'";
    if (d.path == ctrl::Decision::kHedge) continue;
    if (d.path == ctrl::Decision::kTenant) {
      using T = ctrl::TenantState;
      const bool legal_t =
          (d.tenant_from == T::kAdmitted && d.tenant_to == T::kThrottled) ||
          (d.tenant_from == T::kThrottled && d.tenant_to == T::kShed) ||
          (d.tenant_from == T::kProbation && d.tenant_to == T::kShed) ||
          (d.tenant_from == T::kShed && d.tenant_to == T::kProbation) ||
          (d.tenant_from == T::kThrottled && d.tenant_to == T::kAdmitted) ||
          (d.tenant_from == T::kProbation && d.tenant_to == T::kAdmitted);
      EXPECT_TRUE(legal_t)
          << label << ": illegal tenant edge "
          << ctrl::tenant_state_name(d.tenant_from) << " -> "
          << ctrl::tenant_state_name(d.tenant_to);
      continue;
    }
    // Legal FSM edges, and the reason vocabulary glued to each edge.
    using S = ctrl::PathState;
    const bool legal =
        (d.from == S::kActive && d.to == S::kQuarantined) ||
        (d.from == S::kReinstated && d.to == S::kQuarantined) ||
        (d.from == S::kQuarantined && d.to == S::kDraining) ||
        (d.from == S::kDraining && d.to == S::kReinstated) ||
        (d.from == S::kReinstated && d.to == S::kActive);
    EXPECT_TRUE(legal) << label << ": illegal edge "
                       << ctrl::path_state_name(d.from) << " -> "
                       << ctrl::path_state_name(d.to);
  }
}

/// Attach the tail of the rig's flight-recorder dump to the current
/// failure, so the log of a red run shows what the plane was doing in its
/// final retained window (the full dump can run to hundreds of KB; the
/// tail holds the newest — most relevant — events).
void attach_recorder_tail(const ChaosResult& r, const char* label) {
  constexpr std::size_t kTailBytes = 4096;
  const std::string& d = r.telem_dump;
  const std::size_t from = d.size() > kTailBytes ? d.size() - kTailBytes : 0;
  ADD_FAILURE() << label << ": flight-recorder tail (" << r.telem_events
                << " events emitted; last " << (d.size() - from) << " of "
                << d.size() << " dump bytes):\n"
                << d.substr(from);
}

/// The standard invariant bundle, with the flight-recorder tail attached
/// iff a check inside this call failed (not on pre-existing failures).
void expect_invariants_with_timeline(const ChaosResult& r,
                                     const char* label) {
  const bool failed_before = ::testing::Test::HasFailure();
  expect_core_invariants(r, label);
  expect_decision_log_sane(r, label);
  if (!failed_before && ::testing::Test::HasFailure())
    attach_recorder_tail(r, label);
}

/// First quarantine decision in the log, or nullptr.
const ctrl::Decision* first_quarantine(const ChaosResult& r) {
  for (const auto& d : r.decisions)
    if (d.path != ctrl::Decision::kHedge &&
        d.to == ctrl::PathState::kQuarantined)
      return &d;
  return nullptr;
}

ctrl::Config soak_ctrl() {
  ctrl::Config c;
  c.slo_target_ns = 10'000;  // 10 logical iterations
  c.violation_threshold = 0.25;
  c.min_samples = 16;
  c.path.quarantine_after = 2;
  c.path.probation_probes = 8;
  c.probe_grant_per_tick = 8;
  c.min_serving_paths = 1;
  c.hedger.enabled = false;
  c.hedge_timeout.enabled = false;
  return c;
}

// ---------------------------------------------------------------------------
// Attribution: the dominant-stage verdict matches the injected bottleneck.

TEST(ChaosAttribution, WireDelayYieldsServiceDominatedQuarantine) {
  ChaosScenarioConfig cfg;
  cfg.seed = 7;
  cfg.iterations = 20'000;
  cfg.packets_per_iter = 1;
  cfg.drain_per_iter = {8, 8};  // queues never build: wire is the bottleneck
  cfg.flow_affinity = true;     // keep the slow path's pain in its own spans
  cfg.ctrl = soak_ctrl();
  // Path 1's last mile turns slow mid-run: 40 wire ticks = 40k ns >> SLO.
  cfg.phases.push_back({2'000, 18'000, 1, {.delay_ticks = 40}});

  ChaosResult r = ChaosRig(cfg).run();
  expect_invariants_with_timeline(r, "service");
  ASSERT_GT(r.quarantines, 0u) << "the slow path must get caught";
  const ctrl::Decision* q = first_quarantine(r);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->path, 1u) << "the delayed path is the one quarantined";
  EXPECT_STREQ(q->reason, "slo_breach");
  EXPECT_STREQ(q->dominant_stage, "service")
      << "wire delay must be attributed to the service stage";
  EXPECT_GT(q->dominant_stage_ns, 0u);
  // The quarantine must have auto-captured a timeline at decision time,
  // and that dump must show the decision event that triggered it.
  EXPECT_GT(r.auto_dumps, 0u);
  ASSERT_FALSE(r.quarantine_dump.empty());
  EXPECT_NE(r.quarantine_dump.find("\"ctrl_decision\""), std::string::npos)
      << "the dump is taken after the decision event, so it must show it";
  EXPECT_NE(r.quarantine_dump.find("\"ingress_burst\""), std::string::npos)
      << "the dump window must cover the traffic leading up to the cut";
}

TEST(ChaosAttribution, DrainStarvationYieldsQueueWaitDominatedQuarantine) {
  ChaosScenarioConfig cfg;
  cfg.seed = 11;
  cfg.iterations = 20'000;
  cfg.packets_per_iter = 3;      // ~1.5 pkts/iter per path
  cfg.drain_per_iter = {8, 1};   // path 1 drains slower than it fills
  cfg.reorder_timeout_ns = 1'000'000;  // outlast the deepest queue dwell
  cfg.flow_affinity = true;      // keep the starved queue in its own spans
  cfg.ctrl = soak_ctrl();

  ChaosResult r = ChaosRig(cfg).run();
  expect_invariants_with_timeline(r, "queue");
  ASSERT_GT(r.quarantines, 0u) << "the starved path must get caught";
  const ctrl::Decision* q = first_quarantine(r);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->path, 1u) << "the starved path is the one quarantined";
  EXPECT_STREQ(q->dominant_stage, "queue_wait")
      << "drain starvation must be attributed to queue wait";
  EXPECT_GT(q->dominant_stage_ns, 0u);
}

// ---------------------------------------------------------------------------
// The soak sweep: >= 8 seeds x 100k packets through composed fault storms
// with hedging live. Every seed must satisfy every invariant.

ChaosScenarioConfig soak_cfg(std::uint64_t seed) {
  ChaosScenarioConfig cfg;
  cfg.seed = seed;
  cfg.iterations = 100'000;
  cfg.flows = 4;
  cfg.packets_per_iter = 1;
  cfg.drain_per_iter = {4, 4};
  cfg.ctrl = soak_ctrl();
  cfg.ctrl.slo_target_ns = 6'000;
  cfg.ctrl.backlog_limit = 4'096;
  cfg.ctrl.hedge_timeout.enabled = true;
  cfg.ctrl.hedge_timeout.min_timeout_ns = 1'000;
  cfg.ctrl.hedge_timeout.min_samples = 16;
  // Two overlapping fault storms plus a clean tail so quarantined paths
  // can drain, pass probation, and serve again before quiesce.
  io::LoopbackFaults storm0;
  storm0.drop_rate = 0.05;
  storm0.dup_rate = 0.03;
  storm0.reorder_rate = 0.10;
  storm0.reorder_extra_ticks = 4;
  io::LoopbackFaults storm1;
  storm1.drop_rate = 0.02;
  storm1.reorder_rate = 0.15;
  storm1.reorder_extra_ticks = 8;
  storm1.delay_ticks = 6;
  cfg.phases.push_back({5'000, 60'000, 0, storm0});
  cfg.phases.push_back({20'000, 80'000, 1, storm1});
  return cfg;
}

TEST(ChaosSoak, EightSeedSweepHoldsAllInvariants) {
  std::uint64_t total_hedges = 0;
  std::uint64_t total_decisions = 0;
  for (std::uint64_t seed : {3u, 17u, 29u, 43u, 59u, 71u, 83u, 97u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ChaosRig rig(soak_cfg(seed));
    ChaosResult r = rig.run();
    const std::string label = "seed " + std::to_string(seed);
    EXPECT_EQ(r.generated, 100'000u);
    expect_invariants_with_timeline(r, label.c_str());
    EXPECT_GT(r.telem_events, 0u)
        << label << ": the flight recorder must see the run";
    EXPECT_EQ(rig.pool_exhaustions(), 0u)
        << label << ": pool must be sized for the sweep";
    EXPECT_EQ(r.egressed, r.arrived_unique)
        << label << ": every surviving (flow, seq) egressed exactly once";
    EXPECT_GT(r.wire_dropped + r.wire_duplicated + r.wire_reordered, 0u)
        << label << ": the storms must actually fire";
    EXPECT_EQ(r.flow_replicas, 0u)
        << label << ": flow replicas off sends no flow replicas";
    total_hedges += r.hedges_sent;
    total_decisions += r.decisions.size();
  }
  EXPECT_GT(total_hedges, 0u)
      << "the PID hedge deadline must rescue stragglers somewhere in the "
         "sweep";
  EXPECT_GT(total_decisions, 0u) << "the controller must visibly act";
}

// ---------------------------------------------------------------------------
// Flow replication soak: the same storms, but every flow rides
// a stable pair of faulty paths with both copies expected at dedup.
// First-copy-wins must hold exactly-once / in-order / zero-leak across
// seeds, and reruns must be byte-identical.

ChaosScenarioConfig replica_soak_cfg(std::uint64_t seed) {
  ChaosScenarioConfig cfg = soak_cfg(seed);
  cfg.flow_replicas = true;  // replicas AND hedging live
  return cfg;
}

TEST(ChaosFlowReplica, FourSeedSweepHoldsAllInvariants) {
  std::uint64_t total_replicas = 0;
  for (std::uint64_t seed : {5u, 19u, 31u, 47u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ChaosRig rig(replica_soak_cfg(seed));
    ChaosResult r = rig.run();
    const std::string label = "replica seed " + std::to_string(seed);
    EXPECT_EQ(r.generated, 100'000u);
    expect_invariants_with_timeline(r, label.c_str());
    EXPECT_EQ(rig.pool_exhaustions(), 0u)
        << label << ": pool must be sized for double-send";
    EXPECT_EQ(r.egressed, r.arrived_unique)
        << label << ": every surviving (flow, seq) egressed exactly once";
    // Replication must be the norm, not a fluke: with both paths serving,
    // nearly every packet goes out twice.
    EXPECT_GT(r.flow_replicas, r.generated / 2)
        << label << ": flow replication barely engaged";
    EXPECT_GT(r.wire_dropped + r.wire_duplicated + r.wire_reordered, 0u)
        << label << ": the storms must actually hit the replicated flows";
    total_replicas += r.flow_replicas;
  }
  EXPECT_GT(total_replicas, 0u);
}

TEST(ChaosFlowReplica, SameSeedIsByteIdentical) {
  ChaosScenarioConfig cfg = replica_soak_cfg(23);
  cfg.iterations = 30'000;
  ChaosResult a = ChaosRig(cfg).run();
  ChaosResult b = ChaosRig(cfg).run();
  EXPECT_GT(a.flow_replicas, 0u) << "replication must engage to prove it";
  EXPECT_EQ(a.flow_replicas, b.flow_replicas);
  EXPECT_EQ(a.ctrl_report, b.ctrl_report)
      << "same seed must reproduce the decision log byte for byte";
  EXPECT_EQ(a.delivered_log, b.delivered_log)
      << "same seed must reproduce the egress order exactly";
  EXPECT_EQ(a.telem_dump, b.telem_dump);
  EXPECT_EQ(a.telem_report, b.telem_report);
}

TEST(ChaosSoak, SameSeedIsByteIdentical) {
  ChaosScenarioConfig cfg = soak_cfg(42);
  cfg.iterations = 30'000;  // plenty of decisions, quick enough to run twice
  ChaosResult a = ChaosRig(cfg).run();
  ChaosResult b = ChaosRig(cfg).run();
  EXPECT_FALSE(a.decisions.empty())
      << "a run with no decisions proves nothing";
  EXPECT_EQ(a.ctrl_report, b.ctrl_report)
      << "same seed must reproduce the decision log byte for byte";
  EXPECT_EQ(a.delivered_log, b.delivered_log)
      << "same seed must reproduce the egress order exactly";
  EXPECT_EQ(a.hedges_sent, b.hedges_sent);
  EXPECT_EQ(a.egressed, b.egressed);
  // The telemetry plane is part of the deterministic artifact set: the
  // merged flight-recorder timeline, the per-tick telem series, and any
  // quarantine auto-dump must all be byte-identical across reruns.
  EXPECT_GT(a.telem_events, 0u);
  ASSERT_FALSE(a.telem_dump.empty());
  EXPECT_EQ(a.telem_dump, b.telem_dump)
      << "same seed must reproduce the flight-recorder dump byte for byte";
  ASSERT_FALSE(a.telem_report.empty());
  EXPECT_EQ(a.telem_report, b.telem_report)
      << "same seed must reproduce the telem time series byte for byte";
  EXPECT_EQ(a.quarantine_dump, b.quarantine_dump);
  EXPECT_EQ(a.telem_events, b.telem_events);
  EXPECT_EQ(a.auto_dumps, b.auto_dumps);

  ChaosScenarioConfig other = cfg;
  other.seed = 43;
  ChaosResult c = ChaosRig(other).run();
  EXPECT_NE(a.delivered_log, c.delivered_log)
      << "a different seed must visibly change the run";
}

// ---------------------------------------------------------------------------
// Tenancy (docs/TENANCY.md): a storming tenant must not poison its
// neighbor's tail. Tenant A rides a connection-storm ramp that breaks its
// arrival contract; tenant B keeps a steady in-budget load. The invariant
// is NON-CONTAGION: with tenant admission live, B's exact p99.9 stays
// inside its SLO while A gets throttled/shed — and the global soak
// invariants (exactly-once, in-order, zero-leak) hold throughout,
// including while the admission state flaps under a second thread.

ChaosScenarioConfig tenant_storm_cfg(std::uint64_t seed) {
  ChaosScenarioConfig cfg;
  cfg.seed = seed;
  cfg.iterations = 40'000;
  cfg.num_paths = 2;
  cfg.drain_per_iter = {4, 4};
  cfg.packets_per_iter = 0;  // tenant mode generates all traffic
  cfg.ctrl = soak_ctrl();
  cfg.ctrl.slo_target_ns = 50'000;  // B's contract: p99.9 <= 50 us logical
  cfg.pool_size = 32'768;
  // Constant 2-tick wire delay on both paths: the victim's latencies are
  // real nonzero numbers, so the p99.9 assertion below has teeth.
  io::LoopbackFaults base_wire;
  base_wire.delay_ticks = 2;
  cfg.phases.push_back({0, 1'000'000, 0, base_wire});
  cfg.phases.push_back({0, 1'000'000, 1, base_wire});

  // Tenant A ("storm"): a connection storm ramping to ~20 new flows per
  // iteration — far past its contracted 320 packet arrivals per 64-iter
  // controller window. Offered load at peak (~24 pkts/iter) is 3x the
  // plane's drain budget (8/iter): without admission this drowns everyone.
  ChaosScenarioConfig::TenantTraffic a;
  a.storm.base_arrivals_per_tick = 0.05;
  a.storm.conn_lifetime_ticks = 32;
  a.storm.storm_from = 5'000;
  a.storm.storm_to = 35'000;
  a.storm.storm_peak_arrivals_per_tick = 20.0;
  a.spec.name = "storm";
  a.spec.arrival_budget_per_tick = 320;
  a.spec.throttle_keep_one_in = 8;
  a.packets_per_iter = 2;

  // Tenant B ("steady"): in budget the whole run.
  ChaosScenarioConfig::TenantTraffic b;
  b.storm.base_arrivals_per_tick = 0.2;
  b.storm.conn_lifetime_ticks = 2'000;
  b.spec.name = "steady";
  b.spec.arrival_budget_per_tick = 1'000;
  b.packets_per_iter = 2;

  cfg.tenants = {a, b};
  cfg.tenant_ctrl.throttle_after = 2;
  cfg.tenant_ctrl.shed_after = 2;
  cfg.tenant_ctrl.cooldown_windows = 4;
  cfg.tenant_ctrl.probation_windows = 4;
  return cfg;
}

/// Exact quantile over a tenant's full latency log (no histogram buckets).
std::uint64_t exact_quantile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  return v[idx];
}

TEST(ChaosTenants, StormNonContagionInvariant) {
  ChaosResult r = ChaosRig(tenant_storm_cfg(5)).run();
  expect_invariants_with_timeline(r, "tenant storm");

  // The storm must be real: >= 100k new-flow arrivals offered by tenant A.
  ASSERT_EQ(r.tenant_flow_arrivals.size(), 2u);
  EXPECT_GE(r.tenant_flow_arrivals[0], 100'000u)
      << "the connection storm must offer at least 100k flow arrivals";

  // The admission stage must catch the contract breach...
  EXPECT_GE(r.tenant_throttles, 1u);
  EXPECT_GE(r.tenant_sheds, 1u) << "a 3x-overload tenant must get shed";
  EXPECT_GT(r.tenant_dropped, 0u);
  // ...and reinstate once the storm passes (the ramp ends well before
  // quiesce, leaving room for cooldown + probation).
  EXPECT_GE(r.tenant_reinstates, 1u);
  ASSERT_EQ(r.tenant_final_states.size(), 2u);
  EXPECT_STREQ(r.tenant_final_states[1], "ADMITTED")
      << "the well-behaved tenant must never leave admitted";

  // Non-contagion: B's EXACT p99.9 stays inside its SLO target while A
  // storms at 3x the plane's capacity.
  ASSERT_EQ(r.tenant_latencies.size(), 2u);
  ASSERT_GT(r.tenant_latencies[1].size(), 10'000u)
      << "tenant B must actually have run traffic through the storm";
  const std::uint64_t b_p999 = exact_quantile(r.tenant_latencies[1], 0.999);
  EXPECT_GT(b_p999, 0u) << "the base wire delay must make latency nonzero";
  EXPECT_LE(b_p999, 50'000u)
      << "tenant B's p99.9 breached its SLO: the storm leaked across "
         "tenants (contagion)";
  // A's own tail is allowed to be terrible — that's the deal it signed.

  // The shed must be visible in the artifacts: a tenant decision in the
  // log and a "tenants" section in the report.
  bool saw_shed = false;
  for (const auto& d : r.decisions)
    if (d.path == ctrl::Decision::kTenant &&
        std::string(d.reason) == "tenant_shed")
      saw_shed = true;
  EXPECT_TRUE(saw_shed) << "the shed must be a logged, evidenced decision";
  EXPECT_NE(r.ctrl_report.find("\"tenants\""), std::string::npos);
  EXPECT_NE(r.ctrl_report.find("\"storm\""), std::string::npos);
  EXPECT_NE(r.telem_report.find("\"tenants\""), std::string::npos)
      << "telem per-tick rows must carry the tenant columns";
}

TEST(ChaosTenants, SameSeedIsByteIdentical) {
  ChaosScenarioConfig cfg = tenant_storm_cfg(9);
  cfg.iterations = 15'000;
  cfg.tenants[0].storm.storm_from = 2'000;
  cfg.tenants[0].storm.storm_to = 12'000;
  ChaosResult a = ChaosRig(cfg).run();
  ChaosResult b = ChaosRig(cfg).run();
  EXPECT_GT(a.tenant_sheds + a.tenant_throttles, 0u)
      << "a run where admission never acts proves nothing";
  EXPECT_EQ(a.ctrl_report, b.ctrl_report)
      << "tenant decisions must be as reproducible as path decisions";
  EXPECT_EQ(a.delivered_log, b.delivered_log);
  EXPECT_EQ(a.telem_report, b.telem_report);
  EXPECT_EQ(a.telem_dump, b.telem_dump);
  EXPECT_EQ(a.tenant_dropped, b.tenant_dropped);
  EXPECT_EQ(a.tenant_latencies, b.tenant_latencies);
  EXPECT_EQ(a.tenant_offered, b.tenant_offered);
}

TEST(ChaosTenants, AdmissionFlapFromSecondThreadKeepsInvariants) {
  // A second thread hammers the admission stage's lock-free surface —
  // admit / state / observe / hedge tokens — while the rig runs. The
  // outcome is intentionally nondeterministic (the flap changes which
  // packets enter); what must survive ANY interleaving is the invariant
  // set: exactly-once, per-flow order, zero leaks. Under TSan this is
  // also the data-race proof for the admit-path atomics.
  ChaosScenarioConfig cfg = tenant_storm_cfg(13);
  cfg.iterations = 12'000;
  cfg.tenants[0].storm.storm_from = 1'000;
  cfg.tenants[0].storm.storm_to = 9'000;
  ChaosRig rig(cfg);

  std::atomic<bool> done{false};
  ChaosResult r;
  std::thread runner([&] {
    r = rig.run();
    done.store(true, std::memory_order_release);
  });
  std::uint64_t prods = 0;
  while (!done.load(std::memory_order_acquire)) {
    if (ctrl::TenantAdmission* ta = rig.tenants_live()) {
      for (int t = 0; t < 2; ++t) {
        ta->admit(static_cast<std::uint16_t>(t));
        (void)ta->state(static_cast<std::uint16_t>(t));
        ta->observe(static_cast<std::uint16_t>(t), 1'000 + prods % 100'000);
        ta->try_consume_hedge_token(static_cast<std::uint16_t>(t));
        ta->on_flow_arrival(static_cast<std::uint16_t>(t));
      }
      ++prods;
    } else {
      std::this_thread::yield();
    }
  }
  runner.join();
  EXPECT_GT(prods, 0u) << "the prodding thread must have overlapped the run";
  expect_invariants_with_timeline(r, "tenant flap");
  EXPECT_GT(r.egressed, 0u);
}

}  // namespace
}  // namespace mdp

// mdp::ctrl tests: the control plane from decision kernel to closed loop.
//
// Unit layer: PathStateMachine hysteresis edges, SloMonitor windows (incl.
// a two-writer concurrency smoke — the monitor is the only cross-thread
// surface), the shared Hysteresis/Band primitive, AdaptiveHedger on it,
// and the Controller against a scripted FakeActuator (lifecycle, capacity
// guard, backlog breach, probe breach, decision log + report JSON).
//
// Sim closed loop: Controller + SimPlaneActuator + MdpDataPlane against a
// silent core stall (mask, drain, probe probation, reinstate) and a short
// blip that must not quarantine.
//
// End-to-end layer: ThreadedDataPlane over a LoopbackBackend pair with a
// per-path delay fault lane. The driver measures delivery lag in *driver
// loop iterations* (a logical unit — no wall clock in the control loop),
// feeds the SloMonitor, and ticks the Controller once per round. The
// expected state trajectory is exact: quarantine on the second breaching
// window, drain to zero backlog, probe-only probation after the lane
// heals, then ACTIVE again — with exactly-once in-order per-flow delivery
// and a zero-leak pool audit at quiesce. Workers run for real throughout,
// which is what makes this binary meaningful under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/reorder.hpp"
#include "core/threaded_dataplane.hpp"
#include "ctrl/controller.hpp"
#include "io/loopback_backend.hpp"
#include "net/packet_builder.hpp"
#include "net/vxlan.hpp"
#include "sim/event_queue.hpp"
#include "trace/json.hpp"

namespace mdp {
namespace {

using core::PathAdmission;
using ctrl::PathState;

// ---------------------------------------------------------------------------
// PathStateMachine: hysteresis edges.

ctrl::TickInput breach_tick() {
  ctrl::TickInput in;
  in.breach = true;
  in.has_signal = true;
  return in;
}

ctrl::TickInput clean_tick() {
  ctrl::TickInput in;
  in.has_signal = true;
  return in;
}

TEST(PathStateMachine, SingleBreachNeverQuarantines) {
  ctrl::PathStateMachine fsm({.quarantine_after = 2});
  EXPECT_FALSE(fsm.on_tick(breach_tick()));
  EXPECT_EQ(fsm.state(), PathState::kActive);
  EXPECT_EQ(fsm.breach_streak(), 1u);
  // The spike passes; the streak resets.
  EXPECT_FALSE(fsm.on_tick(clean_tick()));
  EXPECT_EQ(fsm.breach_streak(), 0u);
  EXPECT_FALSE(fsm.on_tick(breach_tick()));
  EXPECT_EQ(fsm.state(), PathState::kActive);
}

TEST(PathStateMachine, SilenceBreaksTheStreak) {
  ctrl::PathStateMachine fsm({.quarantine_after = 2});
  fsm.on_tick(breach_tick());
  // A window with too few samples is not evidence either way.
  fsm.on_tick(ctrl::TickInput{});
  fsm.on_tick(breach_tick());
  EXPECT_EQ(fsm.state(), PathState::kActive);
  EXPECT_EQ(fsm.breach_streak(), 1u);
}

TEST(PathStateMachine, QuarantineAfterClampsToTwo) {
  ctrl::PathStateMachine fsm({.quarantine_after = 0});
  fsm.on_tick(breach_tick());
  EXPECT_EQ(fsm.state(), PathState::kActive);
  fsm.on_tick(breach_tick());
  EXPECT_EQ(fsm.state(), PathState::kQuarantined);
}

TEST(PathStateMachine, FullLifecycle) {
  ctrl::PathStateMachine fsm({.quarantine_after = 2, .probation_probes = 4});
  fsm.on_tick(breach_tick());
  EXPECT_TRUE(fsm.on_tick(breach_tick()));
  EXPECT_EQ(fsm.state(), PathState::kQuarantined);
  EXPECT_EQ(fsm.quarantines(), 1u);

  // One masked tick, then draining until backlog hits zero.
  EXPECT_TRUE(fsm.on_tick(ctrl::TickInput{}));
  EXPECT_EQ(fsm.state(), PathState::kDraining);
  EXPECT_FALSE(fsm.on_tick(ctrl::TickInput{}));  // not drained yet
  ctrl::TickInput drained;
  drained.drained = true;
  EXPECT_TRUE(fsm.on_tick(drained));
  EXPECT_EQ(fsm.state(), PathState::kReinstated);

  // Probation: clean probes accumulate across ticks.
  ctrl::TickInput probes;
  probes.clean_probes = 2;
  EXPECT_FALSE(fsm.on_tick(probes));
  EXPECT_EQ(fsm.probation_progress(), 2u);
  EXPECT_TRUE(fsm.on_tick(probes));
  EXPECT_EQ(fsm.state(), PathState::kActive);
  EXPECT_EQ(fsm.reinstatements(), 1u);
}

TEST(PathStateMachine, ProbeBreachRequarantines) {
  ctrl::PathStateMachine fsm({.quarantine_after = 2, .probation_probes = 4});
  fsm.on_tick(breach_tick());
  fsm.on_tick(breach_tick());
  fsm.on_tick(ctrl::TickInput{});
  ctrl::TickInput drained;
  drained.drained = true;
  fsm.on_tick(drained);
  ASSERT_EQ(fsm.state(), PathState::kReinstated);

  // A single out-of-SLO probe sends it straight back — it can never
  // rejoin ACTIVE while still sick, so it cannot flap.
  ctrl::TickInput bad;
  bad.clean_probes = 3;
  bad.violated_probes = 1;
  EXPECT_TRUE(fsm.on_tick(bad));
  EXPECT_EQ(fsm.state(), PathState::kQuarantined);
  EXPECT_EQ(fsm.quarantines(), 2u);
  EXPECT_EQ(fsm.reinstatements(), 0u);
}

// ---------------------------------------------------------------------------
// SloMonitor: window harvest semantics and thread safety.

TEST(SloMonitor, HarvestSummarizesAndDrainsTheWindow) {
  ctrl::SloMonitor mon(2, /*slo_target_ns=*/1000);
  for (int i = 0; i < 98; ++i) mon.observe(0, 500);
  mon.observe(0, 8000);
  mon.observe(0, 8000);

  ctrl::WindowStats w = mon.harvest(0);
  EXPECT_EQ(w.samples, 100u);
  EXPECT_EQ(w.violations, 2u);
  EXPECT_EQ(w.sum_ns, 98u * 500 + 2u * 8000);
  // The CDF crosses 0.99 inside the 8000 bucket; the reported edge is
  // bucket-quantized, within one sub-bucket (~25%) above the true value.
  EXPECT_GE(w.p99_ns, 8000u);
  EXPECT_LE(w.p99_ns, 12000u);
  EXPECT_GE(w.max_ns, 8000u);
  EXPECT_NEAR(w.violation_fraction(), 0.02, 1e-9);

  // The window is an interval: a second harvest is empty.
  ctrl::WindowStats again = mon.harvest(0);
  EXPECT_EQ(again.samples, 0u);
  EXPECT_EQ(again.violation_fraction(), 0.0);

  // The other path's window is untouched.
  EXPECT_EQ(mon.harvest(1).samples, 0u);

  // Lifetime totals survive the harvest.
  EXPECT_EQ(mon.total_observed(), 100u);
  EXPECT_EQ(mon.total_violations(), 2u);
}

TEST(SloMonitor, RuntimeTargetAppliesToNewObservations) {
  ctrl::SloMonitor mon(1, 1000);
  mon.observe(0, 500);
  mon.set_slo_target_ns(100);
  mon.observe(0, 500);
  ctrl::WindowStats w = mon.harvest(0);
  EXPECT_EQ(w.samples, 2u);
  EXPECT_EQ(w.violations, 1u);
}

TEST(SloMonitor, ConcurrentObserveWhileHarvesting) {
  // Two writer threads hammer one path while the controller thread
  // harvests mid-stream: nothing may be lost or double-counted. This is
  // the TSan witness for the monitor's lock-free ingestion.
  ctrl::SloMonitor mon(1, /*slo_target_ns=*/100);
  constexpr int kPerThread = 50'000;
  std::uint64_t samples = 0, violations = 0;

  std::thread fast([&] {
    for (int i = 0; i < kPerThread; ++i) mon.observe(0, 50);
  });
  std::thread slow([&] {
    for (int i = 0; i < kPerThread; ++i) mon.observe(0, 200);
  });
  for (int i = 0; i < 100; ++i) {
    ctrl::WindowStats w = mon.harvest(0);
    samples += w.samples;
    violations += w.violations;
    std::this_thread::yield();
  }
  fast.join();
  slow.join();
  ctrl::WindowStats w = mon.harvest(0);
  samples += w.samples;
  violations += w.violations;

  EXPECT_EQ(samples, 2u * kPerThread);
  EXPECT_EQ(violations, static_cast<std::uint64_t>(kPerThread));
  EXPECT_EQ(mon.total_observed(), 2u * kPerThread);
  EXPECT_EQ(mon.total_violations(), static_cast<std::uint64_t>(kPerThread));
}

/// A span with the given stage durations (everything else zero-width);
/// e2e telescopes to queue_wait + service + reorder exactly.
trace::SpanRecord make_span(std::uint64_t queue_wait, std::uint64_t service,
                            std::uint64_t reorder) {
  trace::SpanRecord sp;
  sp.ingress_ns = 1;
  sp.dispatch_ns = sp.ingress_ns;
  sp.service_start_ns = sp.dispatch_ns + queue_wait;
  sp.service_end_ns = sp.service_start_ns + service;
  sp.chain_done_ns = sp.service_end_ns;
  sp.merge_ns = sp.chain_done_ns;
  sp.egress_ns = sp.merge_ns + reorder;
  sp.active = true;
  return sp;
}

TEST(SloMonitor, ObserveSpanAttributesStagesAndReportsP50) {
  ctrl::SloMonitor mon(2, /*slo_target_ns=*/1000);
  for (int i = 0; i < 9; ++i)
    mon.observe_span(0, make_span(/*queue_wait=*/100, /*service=*/300, 0));
  mon.observe_span(0, make_span(200, 7000, 800));  // e2e 8000: the tail

  ctrl::WindowStats w = mon.harvest(0);
  EXPECT_EQ(w.samples, 10u);
  EXPECT_EQ(w.violations, 1u);
  ASSERT_TRUE(w.has_stage_evidence());
  // Stage mass is conserved exactly — no quantization on the sums.
  using trace::Stage;
  EXPECT_EQ(w.stage_sum_ns[static_cast<std::size_t>(Stage::kQueueWait)],
            9u * 100 + 200);
  EXPECT_EQ(w.stage_sum_ns[static_cast<std::size_t>(Stage::kService)],
            9u * 300 + 7000);
  EXPECT_EQ(w.stage_sum_ns[static_cast<std::size_t>(Stage::kReorder)], 800u);
  EXPECT_EQ(w.stage_sum_ns[static_cast<std::size_t>(Stage::kSchedule)], 0u);
  EXPECT_EQ(w.dominant_stage(), Stage::kService);
  EXPECT_EQ(w.dominant_stage_ns(), 9u * 300 + 7000);
  EXPECT_GT(w.dominant_share(), 0.5);
  // The median sits in the 400ns cohort; the reported edge is
  // bucket-quantized within ~25% above the true value.
  EXPECT_GE(w.p50_ns, 400u);
  EXPECT_LE(w.p50_ns, 500u);

  // Harvest drains the stage evidence with the window.
  ctrl::WindowStats again = mon.harvest(0);
  EXPECT_EQ(again.samples, 0u);
  EXPECT_FALSE(again.has_stage_evidence());
  EXPECT_EQ(again.p50_ns, 0u);
}

TEST(SloMonitor, DominantStageTiesBreakToTheEarliestStage) {
  ctrl::SloMonitor mon(1, 1000);
  mon.observe_span(0, make_span(/*queue_wait=*/500, /*service=*/500, 0));
  ctrl::WindowStats w = mon.harvest(0);
  EXPECT_EQ(w.dominant_stage(), trace::Stage::kQueueWait);
}

TEST(SloMonitor, ConcurrentObserveSpanWhileHarvesting) {
  // Companion to ConcurrentObserveWhileHarvesting: two writers feed spans
  // with disjoint stage shapes while the controller harvests mid-stream.
  // Stage mass must be conserved exactly across all harvests — the TSan
  // witness for the per-stage atomic sums.
  ctrl::SloMonitor mon(1, /*slo_target_ns=*/100);
  constexpr int kPerThread = 50'000;
  std::uint64_t samples = 0;
  std::array<std::uint64_t, trace::kNumStages> stage_sums{};
  auto absorb = [&](const ctrl::WindowStats& w) {
    samples += w.samples;
    for (std::size_t s = 0; s < trace::kNumStages; ++s)
      stage_sums[s] += w.stage_sum_ns[s];
  };

  std::thread queuey([&] {
    for (int i = 0; i < kPerThread; ++i)
      mon.observe_span(0, make_span(/*queue_wait=*/40, /*service=*/10, 0));
  });
  std::thread servicey([&] {
    for (int i = 0; i < kPerThread; ++i)
      mon.observe_span(0, make_span(0, /*service=*/200, /*reorder=*/50));
  });
  for (int i = 0; i < 100; ++i) {
    absorb(mon.harvest(0));
    std::this_thread::yield();
  }
  queuey.join();
  servicey.join();
  absorb(mon.harvest(0));

  using trace::Stage;
  EXPECT_EQ(samples, 2u * kPerThread);
  EXPECT_EQ(stage_sums[static_cast<std::size_t>(Stage::kQueueWait)],
            40u * kPerThread);
  EXPECT_EQ(stage_sums[static_cast<std::size_t>(Stage::kService)],
            210u * kPerThread);
  EXPECT_EQ(stage_sums[static_cast<std::size_t>(Stage::kReorder)],
            50u * kPerThread);
  EXPECT_EQ(stage_sums[static_cast<std::size_t>(Stage::kSchedule)], 0u);
}

// ---------------------------------------------------------------------------
// Hysteresis + Band: the one sustain/cooldown primitive.

using ctrl::Direction;

TEST(Hysteresis, SustainCooldownAndHold) {
  ctrl::Hysteresis h(/*cooldown_ticks=*/2);
  h.observe(Direction::kUp);
  EXPECT_FALSE(h.sustained(Direction::kUp, 2));  // one window is a spike
  h.observe(Direction::kHold);  // silence is not evidence: streak broken
  h.observe(Direction::kUp);
  EXPECT_FALSE(h.sustained(Direction::kUp, 2));
  h.observe(Direction::kUp);
  EXPECT_TRUE(h.sustained(Direction::kUp, 2));
  EXPECT_FALSE(h.sustained(Direction::kDown, 2));
  h.moved();
  EXPECT_EQ(h.up_streak(), 0u);
  // Windows keep counting while the cooldown runs; none reads sustained.
  h.observe(Direction::kDown);
  EXPECT_FALSE(h.sustained(Direction::kDown, 1));
  h.observe(Direction::kDown);
  EXPECT_FALSE(h.cooling());
  EXPECT_TRUE(h.sustained(Direction::kDown, 2));
  h.observe(Direction::kUp);  // the other direction clears the streak
  EXPECT_EQ(h.down_streak(), 0u);
  EXPECT_TRUE(h.sustained(Direction::kUp, 0)) << "0 acts as 1";
}

TEST(Hysteresis, AlternatingSignalsNeverOscillate) {
  // A failure detector on the primitive: down after 3 consecutive misses,
  // up after 2 consecutive passes. A path that misses every other probe
  // satisfies neither edge, so it holds whatever state it is in.
  ctrl::Hysteresis h;
  bool up = true;
  int flips = 0;
  auto window = [&](bool pass) {
    h.observe(pass ? Direction::kUp : Direction::kDown);
    if (h.sustained(up ? Direction::kDown : Direction::kUp, up ? 3 : 2)) {
      up = !up;
      ++flips;
      h.moved();
    }
  };
  for (int i = 0; i < 20; ++i) window(i % 2 == 1);
  EXPECT_TRUE(up) << "alternating misses must not take the path down";
  for (int i = 0; i < 3; ++i) window(false);  // a real outage
  ASSERT_FALSE(up);
  for (int i = 0; i < 20; ++i) window(i % 2 == 0);
  EXPECT_FALSE(up) << "alternating passes must not bring it back";
  window(true);
  window(true);  // healed: two consecutive passes recover it once
  EXPECT_TRUE(up);
  EXPECT_EQ(flips, 2);
}

ctrl::Band test_band() {
  ctrl::Band band;
  band.raise_threshold = 1.0;
  band.lower_threshold = 0.5;
  band.sustain_ticks = 2;
  band.cooldown_ticks = 3;
  band.min_samples = 10;
  return band;
}

TEST(Band, JudgesInflationAgainstTheThresholds) {
  const ctrl::Band band = test_band();
  EXPECT_EQ(band.judge(2000, 100, 1000), Direction::kUp);
  EXPECT_EQ(band.judge(1000, 100, 1000), Direction::kHold);  // at the edge
  EXPECT_EQ(band.judge(400, 100, 1000), Direction::kDown);
  EXPECT_EQ(band.judge(9000, 9, 1000), Direction::kHold);  // thin window
}

// ---------------------------------------------------------------------------
// AdaptiveHedger: the replication factor on the shared band.

TEST(AdaptiveHedger, RaisesOnlyWhenSustainedAndRespectsCooldown) {
  ctrl::AdaptiveHedger h({}, test_band());
  EXPECT_EQ(h.update(2000, 100, 1000), 1u);  // one hot window: no change
  EXPECT_EQ(h.update(2000, 100, 1000), 2u);  // sustained: raise
  EXPECT_EQ(h.raises(), 1u);
  // Cooldown holds the factor even though windows stay hot.
  EXPECT_EQ(h.update(2000, 100, 1000), 2u);
  EXPECT_EQ(h.update(2000, 100, 1000), 2u);
  // Cooldown expired and the breach sustained again: next step.
  EXPECT_EQ(h.update(2000, 100, 1000), 3u);
  // Clamped at max_replicas no matter how hot it stays.
  for (int i = 0; i < 10; ++i) h.update(4000, 100, 1000);
  EXPECT_EQ(h.replicas(), 3u);
}

TEST(AdaptiveHedger, LowersAfterSustainedCalm) {
  ctrl::AdaptiveHedger h({}, test_band());
  h.update(2000, 100, 1000);
  h.update(2000, 100, 1000);
  ASSERT_EQ(h.replicas(), 2u);
  for (int i = 0; i < 4; ++i) h.update(100, 100, 1000);  // burn cooldown
  EXPECT_EQ(h.update(100, 100, 1000), 1u);
  EXPECT_EQ(h.lowers(), 1u);
  // Floor: never below min_replicas.
  for (int i = 0; i < 10; ++i) h.update(100, 100, 1000);
  EXPECT_EQ(h.replicas(), 1u);
}

TEST(AdaptiveHedger, ThinWindowsCarryNoSignal) {
  ctrl::AdaptiveHedger h({}, test_band());
  h.update(2000, 100, 1000);
  // Below min_samples: not only no change, the streak resets.
  h.update(2000, 5, 1000);
  EXPECT_EQ(h.update(2000, 100, 1000), 1u);
  EXPECT_EQ(h.update(2000, 100, 1000), 2u);
}

TEST(AdaptiveHedger, DisabledHoldsTheFloor) {
  ctrl::AdaptiveHedger h({.enabled = false}, test_band());
  for (int i = 0; i < 10; ++i) h.update(5000, 100, 1000);
  EXPECT_EQ(h.replicas(), 1u);
  EXPECT_EQ(h.raises(), 0u);
}

// ---------------------------------------------------------------------------
// HedgeTimeoutController: the PID loop on the hedge-fire deadline.

ctrl::HedgeTimeoutConfig hedge_timeout_cfg() {
  ctrl::HedgeTimeoutConfig cfg;
  cfg.enabled = true;
  cfg.min_timeout_ns = 100;
  cfg.max_timeout_ns = 0;  // ceiling = SLO target
  cfg.kp = 0.5;
  cfg.ki = 0.1;
  cfg.kd = 0.0;
  cfg.min_samples = 4;
  cfg.deadband = 0.0;
  return cfg;
}

TEST(HedgeTimeoutController, DisabledNeverActuates) {
  ctrl::HedgeTimeoutController c;  // default config: disabled
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(c.update(/*p50=*/200, /*p99=*/9000, 1000, 1000), 0u);
  EXPECT_EQ(c.timeout_ns(), 0u);
  EXPECT_EQ(c.adjustments(), 0u);
  EXPECT_FALSE(c.enabled());
}

TEST(HedgeTimeoutController, ThinWindowsCarryNoSignal) {
  ctrl::HedgeTimeoutController c(hedge_timeout_cfg());
  // Before any adequate window there is nothing to actuate: 0 means
  // "leave the scheduler's own budget in place".
  EXPECT_EQ(c.update(200, 5000, /*samples=*/2, 1000), 0u);
  EXPECT_EQ(c.adjustments(), 0u);
  // One adequate hot window sets a deadline...
  const std::uint64_t t = c.update(200, 5000, 100, 1000);
  EXPECT_GT(t, 0u);
  EXPECT_EQ(c.adjustments(), 1u);
  // ...which a thin window holds untouched.
  EXPECT_EQ(c.update(200, 50, 2, 1000), t);
  EXPECT_EQ(c.adjustments(), 1u);
}

TEST(HedgeTimeoutController, TailErrorDrivesDeadlineBetweenFloorAndCeiling) {
  ctrl::HedgeTimeoutController c(hedge_timeout_cfg());
  // Sustained hot tail: the deadline slams to the floor (= p50 here, above
  // min_timeout_ns) so stragglers are rescued at the earliest sane moment.
  std::uint64_t t = 0;
  for (int i = 0; i < 4; ++i) t = c.update(200, 3000, 100, 1000);
  EXPECT_EQ(t, 200u);
  // Sustained calm: the integral bleeds off and the deadline relaxes all
  // the way back to the ceiling (= the SLO target), shedding hedge load.
  for (int i = 0; i < 50; ++i) t = c.update(200, 100, 100, 1000);
  EXPECT_EQ(t, 1000u);
  EXPECT_GT(c.adjustments(), 1u);
}

TEST(HedgeTimeoutController, FloorTracksTheMedianAndMinTimeout) {
  ctrl::HedgeTimeoutConfig cfg = hedge_timeout_cfg();
  cfg.min_timeout_ns = 500;
  ctrl::HedgeTimeoutController c(cfg);
  // Hot enough that the position slams to the floor immediately.
  EXPECT_EQ(c.update(/*p50=*/200, 9000, 100, 1000), 500u)
      << "min_timeout_ns backstops a tiny median";
  EXPECT_EQ(c.update(/*p50=*/800, 9000, 100, 1000), 800u)
      << "the median moves the floor: never hedge before p50";
}

TEST(HedgeTimeoutController, DeadbandSuppressesSubNoiseActuation) {
  ctrl::HedgeTimeoutConfig cfg = hedge_timeout_cfg();
  cfg.ki = 0.0;  // pure proportional: moves are easy to predict
  cfg.deadband = 0.25;
  ctrl::HedgeTimeoutController c(cfg);
  // Pin the deadline to the floor with a hot window.
  EXPECT_EQ(c.update(200, 9000, 100, 1000), 200u);
  EXPECT_EQ(c.adjustments(), 1u);
  // A mildly calm window wants a small relaxation (candidate ~240, a 20%
  // move): under the deadband, so the scheduler knob is not twitched.
  EXPECT_EQ(c.update(200, 900, 100, 1000), 200u);
  EXPECT_EQ(c.adjustments(), 1u);
  // A strongly calm window's move clears the deadband and actuates.
  const std::uint64_t t = c.update(200, 100, 100, 1000);
  EXPECT_GT(t, 200u);
  EXPECT_EQ(c.adjustments(), 2u);
}

// ---------------------------------------------------------------------------
// Controller against a scripted actuator.

struct FakeActuator : ctrl::Actuator {
  explicit FakeActuator(std::size_t paths)
      : admission(paths, PathAdmission::kEnabled),
        probes(paths, 0),
        backlog(paths, 0),
        flushes(paths, 0) {}

  std::size_t num_paths() const override { return admission.size(); }
  void set_admission(std::size_t p, PathAdmission a) override {
    admission[p] = a;
  }
  void grant_probes(std::size_t p, std::uint64_t n) override {
    probes[p] += n;
  }
  std::uint64_t path_backlog(std::size_t p) const override {
    return backlog[p];
  }
  void flush_path(std::size_t p) override { ++flushes[p]; }
  void set_replicas(std::size_t r) override { replicas = r; }
  void set_hedge_timeout(std::uint64_t t) override {
    hedge_timeouts.push_back(t);
  }

  std::vector<PathAdmission> admission;
  std::vector<std::uint64_t> probes;
  std::vector<std::uint64_t> backlog;
  std::vector<std::uint64_t> flushes;
  std::vector<std::uint64_t> hedge_timeouts;
  std::size_t replicas = 1;
};

ctrl::Config controller_cfg() {
  ctrl::Config cfg;
  cfg.slo_target_ns = 1000;
  cfg.violation_threshold = 0.25;
  cfg.min_samples = 4;
  cfg.path.quarantine_after = 2;
  cfg.path.probation_probes = 4;
  cfg.probe_grant_per_tick = 8;
  cfg.min_serving_paths = 1;
  cfg.hedger.enabled = false;
  return cfg;
}

void feed(ctrl::SloMonitor& mon, std::uint16_t path, int n,
          std::uint64_t latency) {
  for (int i = 0; i < n; ++i) mon.observe(path, latency);
}

/// Stage-attributed feeder: n identical spans with the given stage shape.
void feed_spans(ctrl::SloMonitor& mon, std::uint16_t path, int n,
                std::uint64_t queue_wait, std::uint64_t service,
                std::uint64_t reorder) {
  for (int i = 0; i < n; ++i)
    mon.observe_span(path, make_span(queue_wait, service, reorder));
}

TEST(Controller, QuarantineDrainProbationLifecycle) {
  ctrl::SloMonitor mon(2, 1000);
  FakeActuator act(2);
  ctrl::Controller ctl(controller_cfg(), act, mon);

  // Two consecutive breaching windows on path 1.
  feed(mon, 1, 8, 5000);
  ctl.tick(1);
  EXPECT_EQ(ctl.path_state(1), PathState::kActive);
  EXPECT_TRUE(ctl.decisions().empty());

  feed(mon, 1, 8, 5000);
  ctl.tick(2);
  EXPECT_EQ(ctl.path_state(1), PathState::kQuarantined);
  EXPECT_EQ(act.admission[1], PathAdmission::kDisabled);
  EXPECT_EQ(ctl.quarantines(), 1u);
  ASSERT_EQ(ctl.decisions().size(), 1u);
  EXPECT_STREQ(ctl.decisions()[0].reason, "slo_breach");
  EXPECT_EQ(ctl.decisions()[0].path, 1u);
  EXPECT_EQ(ctl.decisions()[0].samples, 8u);
  EXPECT_EQ(ctl.decisions()[0].violations, 8u);

  // One masked tick starts the drain (flush fires on the transition).
  ctl.tick(3);
  EXPECT_EQ(ctl.path_state(1), PathState::kDraining);
  EXPECT_EQ(act.flushes[1], 1u);

  // Still work in flight: keep draining, keep flushing.
  act.backlog[1] = 5;
  ctl.tick(4);
  EXPECT_EQ(ctl.path_state(1), PathState::kDraining);
  EXPECT_EQ(act.flushes[1], 2u);

  // Backlog reaches zero: probation begins, probes are granted.
  act.backlog[1] = 0;
  ctl.tick(5);
  EXPECT_EQ(ctl.path_state(1), PathState::kReinstated);
  EXPECT_EQ(act.admission[1], PathAdmission::kProbeOnly);
  EXPECT_EQ(act.probes[1], 8u);

  // Probation observations have no sample minimum: every probe counts.
  feed(mon, 1, 2, 100);
  ctl.tick(6);
  EXPECT_EQ(ctl.path_state(1), PathState::kReinstated);
  feed(mon, 1, 2, 100);
  ctl.tick(7);
  EXPECT_EQ(ctl.path_state(1), PathState::kActive);
  EXPECT_EQ(act.admission[1], PathAdmission::kEnabled);
  EXPECT_EQ(ctl.reinstatements(), 1u);
  EXPECT_STREQ(ctl.decisions().back().reason, "probation_passed");

  // Path 0 was never touched.
  EXPECT_EQ(act.admission[0], PathAdmission::kEnabled);
  EXPECT_EQ(act.flushes[0], 0u);
}

TEST(Controller, ProbeBreachGoesStraightBackToQuarantine) {
  ctrl::SloMonitor mon(2, 1000);
  FakeActuator act(2);
  ctrl::Controller ctl(controller_cfg(), act, mon);

  feed(mon, 1, 8, 5000);
  ctl.tick(1);
  feed(mon, 1, 8, 5000);
  ctl.tick(2);
  ctl.tick(3);
  ctl.tick(4);
  ASSERT_EQ(ctl.path_state(1), PathState::kReinstated);

  // One violating probe during probation: re-quarantined, no flap.
  mon.observe(1, 9000);
  ctl.tick(5);
  EXPECT_EQ(ctl.path_state(1), PathState::kQuarantined);
  EXPECT_EQ(act.admission[1], PathAdmission::kDisabled);
  EXPECT_STREQ(ctl.decisions().back().reason, "probe_breach");
  EXPECT_EQ(ctl.quarantines(), 2u);
  EXPECT_EQ(ctl.reinstatements(), 0u);
}

TEST(Controller, CapacityGuardSuppressesLastPathQuarantine) {
  // Both paths breach; min_serving_paths=1 lets the first quarantine
  // through and suppresses the second — a contained tail beats a masked
  // fleet.
  ctrl::SloMonitor mon(2, 1000);
  FakeActuator act(2);
  ctrl::Config cfg = controller_cfg();
  ctrl::Controller ctl(cfg, act, mon);

  for (int t = 1; t <= 4; ++t) {
    feed(mon, 0, 8, 5000);
    feed(mon, 1, 8, 5000);
    ctl.tick(t);
  }
  const bool p0_quarantined = ctl.path_state(0) != PathState::kActive;
  const bool p1_quarantined = ctl.path_state(1) != PathState::kActive;
  EXPECT_NE(p0_quarantined, p1_quarantined);  // exactly one masked
  EXPECT_GT(ctl.suppressed_quarantines(), 0u);
  EXPECT_EQ(ctl.quarantines(), 1u);
}

TEST(Controller, BacklogBreachCatchesSilentBlackholes) {
  // A blackholed path produces no completions, so there is no SLO window
  // to judge — backlog evidence must be enough on its own.
  ctrl::SloMonitor mon(2, 1000);
  FakeActuator act(2);
  ctrl::Config cfg = controller_cfg();
  cfg.backlog_limit = 10;
  ctrl::Controller ctl(cfg, act, mon);

  act.backlog[0] = 50;
  ctl.tick(1);
  EXPECT_EQ(ctl.path_state(0), PathState::kActive);
  ctl.tick(2);
  EXPECT_EQ(ctl.path_state(0), PathState::kQuarantined);
  EXPECT_STREQ(ctl.decisions().back().reason, "backlog_breach");
  EXPECT_EQ(ctl.decisions().back().backlog, 50u);
}

TEST(Controller, CombinedBreachReasonNamesBothSignals) {
  // The reason vocabulary is three-valued: "slo_breach" (see
  // ReportJsonIsParseableAndComplete), "backlog_breach" (see
  // BacklogBreachCatchesSilentBlackholes), and — when both causes fire in
  // the same window — the combined label, so neither signal masks the
  // other in the postmortem.
  ctrl::SloMonitor mon(2, 1000);
  FakeActuator act(2);
  ctrl::Config cfg = controller_cfg();
  cfg.backlog_limit = 10;
  ctrl::Controller ctl(cfg, act, mon);

  act.backlog[1] = 50;
  feed(mon, 1, 8, 5000);
  ctl.tick(1);
  feed(mon, 1, 8, 5000);
  ctl.tick(2);
  ASSERT_EQ(ctl.path_state(1), PathState::kQuarantined);
  EXPECT_STREQ(ctl.decisions().back().reason, "slo+backlog_breach");
  EXPECT_EQ(ctl.decisions().back().backlog, 50u);
}

TEST(Controller, QuarantineDecisionCarriesTheDominantStage) {
  // When the monitor is fed spans, the quarantine decision says WHERE the
  // breaching window's latency went — the stage verdict that makes the
  // decision log debuggable.
  ctrl::SloMonitor mon(2, 1000);
  FakeActuator act(2);
  ctrl::Controller ctl(controller_cfg(), act, mon);

  feed_spans(mon, 1, 8, /*queue_wait=*/4000, /*service=*/600,
             /*reorder=*/200);
  ctl.tick(1);
  feed_spans(mon, 1, 8, 4000, 600, 200);
  ctl.tick(2);
  ASSERT_EQ(ctl.path_state(1), PathState::kQuarantined);
  const ctrl::Decision& d = ctl.decisions().back();
  EXPECT_STREQ(d.reason, "slo_breach");
  EXPECT_STREQ(d.dominant_stage, "queue_wait");
  EXPECT_EQ(d.dominant_stage_ns, 8u * 4000);

  // The per-decision stage fields surface in the report JSON.
  auto doc = trace::JsonValue::parse(ctl.report_json());
  ASSERT_TRUE(doc.has_value());
  const trace::JsonValue& jd = doc->find("decisions")->items().back();
  EXPECT_EQ(jd.find("dominant_stage")->as_string(), "queue_wait");
  EXPECT_EQ(jd.find("dominant_stage_ns")->as_u64(), 8u * 4000);
}

TEST(Controller, ServiceDominatedBreachCountsFromItsFirstTick) {
  // A service-dominated breach gets no grace: its first breaching window
  // counts toward quarantine_after exactly like a queue-dominated one,
  // and the quarantine carries the breaching window's stage verdict.
  ctrl::SloMonitor mon(2, 1000);
  FakeActuator act(2);
  ctrl::Controller ctl(controller_cfg(), act, mon);

  feed_spans(mon, 1, 8, /*queue_wait=*/100, /*service=*/4800,
             /*reorder=*/100);
  ctl.tick(1);
  EXPECT_EQ(ctl.path_state(1), PathState::kActive);
  feed_spans(mon, 1, 8, 100, 4800, 100);
  ctl.tick(2);
  ASSERT_EQ(ctl.path_state(1), PathState::kQuarantined);
  const ctrl::Decision& d = ctl.decisions().back();
  EXPECT_STREQ(d.reason, "slo_breach");
  EXPECT_STREQ(d.dominant_stage, "service");
  EXPECT_EQ(d.dominant_stage_ns, 8u * 4800);
}

TEST(Controller, HedgeTimeoutLoopActuatesTheScheduler) {
  ctrl::SloMonitor mon(2, 1000);
  FakeActuator act(2);
  ctrl::Config cfg = controller_cfg();
  cfg.violation_threshold = 1.5;  // never quarantine in this test
  cfg.hedge_timeout.enabled = true;
  cfg.hedge_timeout.min_timeout_ns = 100;
  cfg.hedge_timeout.min_samples = 4;
  ctrl::Controller ctl(cfg, act, mon);

  // A hot serving window: the PID sets a deadline and actuates it.
  feed_spans(mon, 0, 8, /*queue_wait=*/100, /*service=*/4500,
             /*reorder=*/400);
  ctl.tick(1);
  ASSERT_EQ(act.hedge_timeouts.size(), 1u);
  const std::uint64_t first = act.hedge_timeouts[0];
  EXPECT_GT(first, 0u);
  EXPECT_EQ(ctl.hedge_timeout_ns(), first);
  EXPECT_EQ(ctl.hedge_timeout_adjustments(), 1u);
  {
    const ctrl::Decision& d = ctl.decisions().back();
    EXPECT_EQ(d.path, ctrl::Decision::kHedge);
    EXPECT_STREQ(d.reason, "hedge_timeout");
    EXPECT_EQ(d.hedge_timeout_ns, first);
    EXPECT_STREQ(d.dominant_stage, "service");
    EXPECT_EQ(d.dominant_stage_ns, 8u * 4500);
  }

  // A calm window relaxes the deadline downward from the p50-pinned floor
  // toward the SLO-bounded band — a second, different actuation.
  feed_spans(mon, 0, 8, 10, 100, 10);
  ctl.tick(2);
  ASSERT_EQ(act.hedge_timeouts.size(), 2u);
  EXPECT_NE(act.hedge_timeouts[1], first);

  // The loop's state surfaces in the report and the stats registry.
  auto doc = trace::JsonValue::parse(ctl.report_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("hedge_timeout_ns")->as_u64(), ctl.hedge_timeout_ns());
  EXPECT_EQ(doc->find("hedge_timeout_adjustments")->as_u64(), 2u);
  const trace::JsonValue& jd = doc->find("decisions")->items().back();
  EXPECT_EQ(jd.find("reason")->as_string(), "hedge_timeout");
  EXPECT_EQ(jd.find("target")->as_string(), "hedger");
  EXPECT_EQ(jd.find("hedge_timeout_ns")->as_u64(), ctl.hedge_timeout_ns());

  trace::StatsRegistry reg;
  ctl.register_stats(reg);
  trace::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("ctrl.hedge_timeout_changes"), 2u);
  EXPECT_EQ(snap.gauges.at("ctrl.hedge_timeout_ns"),
            static_cast<double>(ctl.hedge_timeout_ns()));
}

TEST(Controller, HedgerActuatesReplicasFromServingTail) {
  ctrl::SloMonitor mon(2, 1000);
  FakeActuator act(2);
  ctrl::Config cfg = controller_cfg();
  cfg.violation_threshold = 1.5;  // never quarantine in this test
  cfg.hedger.enabled = true;
  cfg.band.sustain_ticks = 2;
  cfg.band.cooldown_ticks = 0;
  cfg.band.min_samples = 4;
  ctrl::Controller ctl(cfg, act, mon);

  feed(mon, 0, 8, 5000);
  ctl.tick(1);
  EXPECT_EQ(act.replicas, 1u);
  feed(mon, 0, 8, 5000);
  ctl.tick(2);
  EXPECT_EQ(act.replicas, 2u);
  EXPECT_EQ(ctl.hedge_raises(), 1u);
  EXPECT_EQ(ctl.decisions().back().path, ctrl::Decision::kHedge);
  EXPECT_STREQ(ctl.decisions().back().reason, "hedge_raise");
}

TEST(Controller, RuntimeKnobsSyncTheMonitor) {
  ctrl::SloMonitor mon(1, 999);
  FakeActuator act(1);
  ctrl::Controller ctl(controller_cfg(), act, mon);
  EXPECT_EQ(mon.slo_target_ns(), 1000u);  // aligned at construction
  ctl.set_slo_target_ns(5000);
  EXPECT_EQ(mon.slo_target_ns(), 5000u);
  EXPECT_EQ(ctl.config().slo_target_ns, 5000u);
}

TEST(Controller, DecisionLogIsBoundedWithEvictionCount) {
  ctrl::SloMonitor mon(2, 1000);
  FakeActuator act(2);
  ctrl::Config cfg = controller_cfg();
  cfg.decision_log_capacity = 2;
  ctrl::Controller ctl(cfg, act, mon);

  // Full lifecycle = 4 transitions; capacity 2 keeps the newest two.
  feed(mon, 1, 8, 5000);
  ctl.tick(1);
  feed(mon, 1, 8, 5000);
  ctl.tick(2);
  ctl.tick(3);
  ctl.tick(4);
  feed(mon, 1, 4, 100);
  ctl.tick(5);
  ASSERT_EQ(ctl.decisions().size(), 2u);
  EXPECT_STREQ(ctl.decisions().back().reason, "probation_passed");

  auto doc = trace::JsonValue::parse(ctl.report_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("decisions_evicted")->as_u64(), 2u);
}

TEST(Controller, ReportJsonIsParseableAndComplete) {
  ctrl::SloMonitor mon(2, 1000);
  FakeActuator act(2);
  ctrl::Controller ctl(controller_cfg(), act, mon);

  feed(mon, 1, 8, 5000);
  ctl.tick(1);
  feed(mon, 1, 8, 5000);
  ctl.tick(2);

  auto doc = trace::JsonValue::parse(ctl.report_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("slo_target_ns")->as_u64(), 1000u);
  EXPECT_EQ(doc->find("ticks")->as_u64(), 2u);
  EXPECT_EQ(doc->find("quarantines")->as_u64(), 1u);
  ASSERT_NE(doc->find("path_states"), nullptr);
  ASSERT_EQ(doc->find("path_states")->items().size(), 2u);
  EXPECT_EQ(doc->find("path_states")->items()[1].as_string(), "quarantined");

  const trace::JsonValue* decisions = doc->find("decisions");
  ASSERT_NE(decisions, nullptr);
  ASSERT_EQ(decisions->items().size(), 1u);
  const trace::JsonValue& d = decisions->items()[0];
  EXPECT_EQ(d.find("path")->as_u64(), 1u);
  EXPECT_EQ(d.find("from")->as_string(), "active");
  EXPECT_EQ(d.find("to")->as_string(), "quarantined");
  EXPECT_EQ(d.find("reason")->as_string(), "slo_breach");
  EXPECT_EQ(d.find("samples")->as_u64(), 8u);
}

TEST(Controller, StatsRegistryExportsCtrlCounters) {
  ctrl::SloMonitor mon(2, 1000);
  FakeActuator act(2);
  ctrl::Controller ctl(controller_cfg(), act, mon);
  feed(mon, 1, 8, 5000);
  ctl.tick(1);
  feed(mon, 1, 8, 5000);
  ctl.tick(2);

  trace::StatsRegistry reg;
  ctl.register_stats(reg);
  mon.register_stats(reg);
  trace::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("ctrl.ticks"), 2u);
  EXPECT_EQ(snap.counters.at("ctrl.quarantines"), 1u);
  EXPECT_EQ(snap.counters.at("slo.observed"), 16u);
  EXPECT_EQ(snap.counters.at("slo.violations"), 16u);
}

// ---------------------------------------------------------------------------
// Closed loop on the simulated plane: Controller + SimPlaneActuator +
// MdpDataPlane. A silent core stall (an invisible high-priority job pins
// the core) completes nothing, so the SLO windows stay empty and only the
// backlog arm can see it; probation probes ride the stalled core, so the
// path is reinstated only once the core serves again.

ctrl::Config sim_loop_cfg() {
  ctrl::Config c;
  c.slo_target_ns = 100'000;
  c.violation_threshold = 0.25;
  c.min_samples = 8;
  c.backlog_limit = 8;
  c.path.probation_probes = 8;
  c.min_serving_paths = 2;
  c.hedger.enabled = false;
  return c;
}

struct SimLoopFixture : ::testing::Test {
  static constexpr std::size_t kVictim = 2;
  static constexpr sim::TimeNs kTickNs = 100'000;

  sim::EventQueue eq;
  net::PacketPool pool{4096, 2048};
  core::MdpDataPlane dp{eq, pool, {.num_paths = 3},
                        core::make_scheduler("rss")};
  ctrl::SloMonitor mon{3, sim_loop_cfg().slo_target_ns};
  ctrl::SimPlaneActuator act{eq, dp, mon};
  ctrl::Controller ctl{sim_loop_cfg(), act, mon};
  std::uint64_t sent = 0;
  std::uint64_t egressed = 0;
  /// Packets dispatched onto the victim while the controller masked it.
  std::uint64_t masked_dispatches = 0;
  bool masked = false;
  std::uint64_t dispatched_at_tick = 0;
  /// Largest victim backlog a tick judged.
  std::uint64_t peak_backlog = 0;

  void SetUp() override {
    dp.set_egress([this](net::PacketPtr p) {
      mon.observe(p->anno().path_id,
                  p->anno().egress_ns - p->anno().ingress_ns);
      ++egressed;
    });
    arm_tick();
  }

  void arm_tick() {
    eq.schedule_in(kTickNs, [this] {
      const std::uint64_t d = dp.monitor().dispatched(kVictim);
      if (masked) masked_dispatches += d - dispatched_at_tick;
      peak_backlog = std::max(peak_backlog, dp.inflight(kVictim));
      ctl.tick(static_cast<std::uint64_t>(eq.now()));
      masked = ctl.path_state(kVictim) != PathState::kActive;
      dispatched_at_tick = d;
      arm_tick();
    });
  }

  /// One UDP packet every `gap_ns` over 32 flows until `until`.
  void offer(sim::TimeNs gap_ns, sim::TimeNs until) {
    eq.schedule_in(gap_ns, [this, gap_ns, until] {
      if (eq.now() >= until) return;
      const auto flow = static_cast<std::uint32_t>(sent % 32);
      net::BuildSpec spec;
      spec.flow = {0x0a010101, 0x0a006401,
                   static_cast<std::uint16_t>(1000 + flow), 80, 0};
      auto pkt = net::build_udp(pool, spec);
      pkt->anno().flow_id = flow;
      dp.ingress(std::move(pkt));
      ++sent;
      offer(gap_ns, until);
    });
  }

  void stall(std::size_t p, sim::TimeNs at, sim::TimeNs duration) {
    eq.schedule_at(at, [this, p, duration] {
      dp.core(p).submit(duration, [](sim::TimeNs) {},
                         /*high_priority=*/true, /*visible=*/false);
    });
  }
};

TEST_F(SimLoopFixture, SilentStallIsMaskedDrainedProbedAndReinstated) {
  offer(2'000, 6 * sim::kMillisecond);
  stall(kVictim, 1 * sim::kMillisecond, 2 * sim::kMillisecond);

  eq.run_until(1'500'000);
  ASSERT_EQ(ctl.quarantines(), 1u) << "two backlog breaches quarantine";
  EXPECT_NE(ctl.path_state(kVictim), PathState::kActive);
  EXPECT_FALSE(dp.up(kVictim));
  const ctrl::Decision& q = ctl.decisions().front();
  EXPECT_EQ(q.path, kVictim);
  EXPECT_EQ(q.to, PathState::kQuarantined);
  EXPECT_STREQ(q.reason, "backlog_breach") << "a blackhole completes nothing";

  eq.run_until(8 * sim::kMillisecond);
  EXPECT_EQ(ctl.path_state(kVictim), PathState::kActive);
  EXPECT_TRUE(dp.up(kVictim));
  EXPECT_EQ(ctl.quarantines(), 1u);
  EXPECT_EQ(ctl.reinstatements(), 1u);
  EXPECT_GE(act.probes_sent(), 8u);
  EXPECT_EQ(masked_dispatches, 0u) << "no packet may land on a masked path";

  std::vector<std::string> reasons;
  for (const auto& d : ctl.decisions())
    if (d.path == kVictim) reasons.emplace_back(d.reason);
  EXPECT_EQ(reasons,
            (std::vector<std::string>{"backlog_breach", "drain_start",
                                      "drained", "probation_passed"}));
  EXPECT_EQ(egressed, sent) << "every packet delivered once";
  EXPECT_GT(sent, 2'000u);
}

TEST_F(SimLoopFixture, ShortBlipDoesNotQuarantine) {
  offer(2'000, 4 * sim::kMillisecond);
  // Spans one tick (1.1 ms) but not the next: one backlog breach.
  stall(kVictim, 1'030'000, 120'000);
  eq.run_until(6 * sim::kMillisecond);
  EXPECT_GT(peak_backlog, sim_loop_cfg().backlog_limit) << "blip unseen";
  EXPECT_EQ(ctl.quarantines(), 0u);
  EXPECT_EQ(ctl.path_state(kVictim), PathState::kActive);
  EXPECT_TRUE(ctl.decisions().empty());
  EXPECT_EQ(egressed, sent);
}

// ---------------------------------------------------------------------------
// End to end: ThreadedDataPlane + LoopbackBackend fault lane + Controller.

/// Driver-side frame (mirrors the conformance suite's builder).
net::PacketPtr make_frame(net::PacketPool& pool, std::uint32_t flow_id,
                          std::uint64_t seq) {
  net::BuildSpec spec;
  spec.flow = {0x0a000001 + flow_id, 0x0a000002,
               static_cast<std::uint16_t>(1024 + flow_id), 4789, 0};
  spec.payload_len = 64;
  spec.payload_fill = static_cast<std::uint8_t>(seq);
  net::PacketPtr pkt = net::build_udp(pool, spec);
  if (!pkt) return pkt;
  auto& a = pkt->anno();
  a.flow_id = flow_id;
  a.seq = seq;
  a.path_id = 0;
  a.flow_hash = net::hash_flow(spec.flow);
  return pkt;
}

/// ThreadedPlaneActuator with the loopback wire behind the plane: a drain
/// flush must also release frames staged on the wire's fault lanes.
class RigActuator : public ctrl::ThreadedPlaneActuator {
 public:
  RigActuator(core::ThreadedDataPlane& dp, io::LoopbackBackend& plane_end,
              io::LoopbackBackend& driver_end)
      : ThreadedPlaneActuator(dp),
        plane_end_(plane_end),
        driver_end_(driver_end) {}

  void flush_path(std::size_t) override {
    plane_end_.flush();
    driver_end_.flush();
  }

 private:
  io::LoopbackBackend& plane_end_;
  io::LoopbackBackend& driver_end_;
};

/// The plane's end of the loopback wire, stamping every frame it transmits
/// with the wire tick it leaves on (anno().egress_ns). The driver reads the
/// lag of an echo as wire ticks from that stamp to its own rx: the unit the
/// path fault is set in, which no thread scheduling can stretch.
class TickStampedWire final : public io::PacketBackend {
 public:
  explicit TickStampedWire(io::LoopbackBackend& wire) : wire_(wire) {}

  const io::BackendCaps& caps() const noexcept override {
    return wire_.caps();
  }
  bool start(std::string* err) override { return wire_.start(err); }
  void stop() override { wire_.stop(); }
  std::size_t rx_burst(std::span<net::PacketPtr> out) override {
    return wire_.rx_burst(out);
  }
  std::size_t tx_burst(std::span<net::PacketPtr> pkts) override {
    for (net::PacketPtr& p : pkts)
      if (p) p->anno().egress_ns = wire_.tick();
    return wire_.tx_burst(pkts);
  }

 private:
  io::LoopbackBackend& wire_;
};

TEST(ControllerEndToEnd, QuarantineDrainReinstateOverLoopback) {
  constexpr std::size_t kPaths = 2;
  constexpr std::uint32_t kFlows = 4;
  constexpr int kSeqsPerRound = 4;  // 16 frames per round
  constexpr std::uint32_t kDelayTicks = 400;
  // Lag is measured in wire ticks from the plane's tx to the driver's rx,
  // scaled by 1000 — a logical unit, so the quarantine trajectory is
  // deterministic under any thread scheduling (a descheduled plane worker
  // delays when a frame is sent, not how long it spends on the wire).
  // Healthy echoes come back within a tick; delayed ones need kDelayTicks,
  // far above the target.
  constexpr std::uint64_t kSloUnits = 100'000;

  net::PacketPool pool(512, 2048, /*allow_growth=*/false);
  io::LoopbackConfig lcfg;
  lcfg.queue_depth = 1024;
  auto [driver_end, plane_end] = io::LoopbackBackend::make_pair(lcfg);
  TickStampedWire plane_wire(*plane_end);

  core::ThreadedConfig tcfg;
  tcfg.num_paths = kPaths;
  tcfg.policy = "rr";  // deterministic 8/8 split of each round
  tcfg.ring_capacity = 256;
  tcfg.pool_size = 256;
  tcfg.payload_bytes = 64;
  tcfg.work_iterations = 1;
  tcfg.burst_size = 16;
  tcfg.backend = &plane_wire;

  core::ThreadedDataPlane dp(tcfg, [](std::uint64_t, std::uint16_t) {});

  ctrl::SloMonitor mon(kPaths, kSloUnits);
  RigActuator act(dp, *plane_end, *driver_end);
  ctrl::Config ccfg;
  ccfg.slo_target_ns = kSloUnits;
  ccfg.violation_threshold = 0.25;
  ccfg.min_samples = 2;
  ccfg.path.quarantine_after = 2;
  ccfg.path.probation_probes = 4;
  ccfg.probe_grant_per_tick = 8;
  ccfg.min_serving_paths = 1;
  ccfg.hedger.enabled = false;
  ctrl::Controller ctl(ccfg, act, mon);

  // The fault: every frame the plane serves on path 1 is held back on the
  // wire for kDelayTicks — the classic last-mile laggard.
  plane_end->set_path_faults(1, {.delay_ticks = kDelayTicks});

  dp.start();

  // Driver-side exactly-once / in-order audit behind a ReorderBuffer.
  sim::EventQueue eq;
  std::map<std::pair<std::uint32_t, std::uint64_t>, int> delivered;
  std::vector<std::uint64_t> next_emit(kFlows, 0);
  bool in_order = true;
  core::ReorderBuffer reorder(
      eq, {.enabled = true, .timeout_ns = 1'000'000'000},
      [&](net::PacketPtr pkt) {
        const auto& a = pkt->anno();
        ++delivered[{a.flow_id, a.seq}];
        if (a.seq != next_emit[a.flow_id]) in_order = false;
        next_emit[a.flow_id] = a.seq + 1;
      });

  std::vector<std::uint64_t> next_seq(kFlows, 0);
  std::uint64_t total_sent = 0;

  // One round = send a fixed burst, run the loop until every echo of the
  // round is back (so windows never carry stale cross-round samples),
  // then tick the controller once.
  auto run_round = [&](std::uint64_t round) {
    std::vector<net::PacketPtr> burst;
    for (std::uint32_t f = 0; f < kFlows; ++f)
      for (int s = 0; s < kSeqsPerRound; ++s) {
        net::PacketPtr pkt = make_frame(pool, f, next_seq[f]++);
        ASSERT_TRUE(static_cast<bool>(pkt));
        burst.push_back(std::move(pkt));
      }
    const std::size_t sent =
        driver_end->tx_burst({burst.data(), burst.size()});
    ASSERT_EQ(sent, burst.size());
    total_sent += sent;
    burst.clear();

    std::size_t outstanding = sent;
    int iters = 0;
    while (outstanding > 0) {
      ++iters;
      ASSERT_LT(iters, 20000) << "round " << round << " never drained";
      dp.pump();
      plane_end->advance();
      driver_end->advance();
      net::PacketPtr rx[64];
      std::size_t got;
      while ((got = driver_end->rx_burst({rx, 64})) > 0) {
        for (std::size_t i = 0; i < got; ++i) {
          const auto& a = rx[i]->anno();
          mon.observe(a.path_id, (plane_end->tick() - a.egress_ns) * 1000);
          reorder.submit(std::move(rx[i]));
          --outstanding;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(10));
    }
    ctl.tick(round);
  };

  // Rounds 1-2: path 1 serves half of each round with delayed echoes —
  // two consecutive breaching windows.
  run_round(1);
  EXPECT_EQ(ctl.path_state(1), PathState::kActive);
  run_round(2);
  ASSERT_EQ(ctl.path_state(1), PathState::kQuarantined);
  EXPECT_EQ(dp.path_admission(1), core::PathAdmission::kDisabled);
  EXPECT_EQ(ctl.quarantines(), 1u);
  const std::uint64_t served_at_quarantine = dp.per_path_count(1);

  // The lane heals while the path is masked (no traffic will touch it
  // until probation probes are granted).
  plane_end->set_path_faults(1, {});

  // Round 3: masked tick -> drain starts.
  run_round(3);
  ASSERT_EQ(ctl.path_state(1), PathState::kDraining);

  // Round 4: backlog is zero (the round loop drains everything) ->
  // probation begins with probe-only admission.
  run_round(4);
  ASSERT_EQ(ctl.path_state(1), PathState::kReinstated);
  EXPECT_EQ(dp.path_inflight(1), 0u);
  EXPECT_EQ(dp.path_admission(1), core::PathAdmission::kProbeOnly);

  // Round 5: rr spends the 8 probe credits on path 1; the healed lane
  // answers in-SLO, probation passes.
  run_round(5);
  ASSERT_EQ(ctl.path_state(1), PathState::kActive);
  EXPECT_EQ(dp.path_admission(1), core::PathAdmission::kEnabled);
  EXPECT_EQ(ctl.reinstatements(), 1u);

  // Round 6: path 1 is serving real traffic again.
  run_round(6);
  EXPECT_GT(dp.per_path_count(1), served_at_quarantine);

  // The delayed rounds genuinely reordered flows (fast path overtakes),
  // and the ReorderBuffer restored per-flow order.
  EXPECT_GT(reorder.out_of_order(), 0u);
  EXPECT_TRUE(in_order);
  EXPECT_EQ(reorder.buffered(), 0u);

  // Exactly-once: every (flow, seq) delivered once, none missing.
  EXPECT_EQ(delivered.size(), total_sent);
  for (const auto& [key, count] : delivered) EXPECT_EQ(count, 1);

  // Quiesce: nothing in flight anywhere, then a zero-leak pool audit.
  EXPECT_EQ(dp.inflight(), 0u);
  for (int i = 0; i < 100 && dp.egress_backlog() > 0; ++i) dp.pump();
  dp.stop();
  EXPECT_EQ(plane_end->in_flight(), 0u);
  EXPECT_EQ(driver_end->in_flight(), 0u);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.total_allocs(), pool.total_recycles());

  // The whole story is in the decision log.
  auto doc = trace::JsonValue::parse(ctl.report_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("quarantines")->as_u64(), 1u);
  EXPECT_EQ(doc->find("reinstatements")->as_u64(), 1u);
  EXPECT_EQ(doc->find("path_states")->items()[1].as_string(), "active");
}

}  // namespace
}  // namespace mdp

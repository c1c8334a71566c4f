// mdp::forecast test tier (docs/FORECAST.md):
//
//   estimator      Holt level+trend on synthetic ramps / steps / noise:
//                  the forecast must LEAD a ramp, cold-start gating must
//                  hold, and a regime change must collapse confidence —
//                  the estimator telling the controller "do not actuate".
//   quantiles      WindowStats::quantile_ns edge pinning: empty window,
//                  single-bucket window, top-bucket saturation, and
//                  monotonicity in q.
//   capacity       the offline solver: monotone envelope, interpolation,
//                  pessimistic extrapolation, and the honest 0 when even
//                  max_paths cannot hold the SLO.
//   e2e            the chaos rig with the proactive stage live: on a
//                  seeded ramping delay storm the pre-hedge must fire
//                  BEFORE the first reactive quarantine; a no-storm soak
//                  must record ZERO forecast actuations; a forecast never
//                  hard-quarantines (probe-first, from == to on every
//                  forecast_* decision); and forecast.enabled=false must
//                  be byte-identical to the pre-forecast controller.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "chaos_harness.hpp"
#include "ctrl/slo_monitor.hpp"
#include "forecast/capacity.hpp"
#include "forecast/tail_estimator.hpp"

namespace mdp {
namespace {

using chaos::ChaosResult;
using chaos::ChaosRig;
using chaos::ChaosScenarioConfig;
using forecast::CapacityModel;
using forecast::EstimatorConfig;
using forecast::Forecast;
using forecast::TailEstimator;
using forecast::WindowSample;

// ---------------------------------------------------------------------------
// TailEstimator units.

WindowSample sample(std::uint64_t p999, std::uint64_t samples = 64) {
  WindowSample w;
  w.samples = samples;
  w.p99_ns = p999 - p999 / 10;
  w.p999_ns = p999;
  return w;
}

TEST(TailEstimator, ForecastLeadsALinearRamp) {
  TailEstimator est(1);
  const std::uint64_t h = est.config().horizon_ticks;
  std::uint64_t last = 0;
  for (int i = 0; i < 30; ++i) {
    last = 2'000 + 400 * static_cast<std::uint64_t>(i);
    est.observe(0, sample(last));
  }
  const Forecast f = est.forecast(0);
  // On a ramp the Holt pair tracks the drift: the forecast must be AHEAD
  // of the newest measurement, in the direction of travel, and within a
  // sane band of the true extrapolation.
  EXPECT_GT(f.p999_ns, last) << "the forecast must lead the measurement";
  const std::uint64_t truth = last + 400 * h;
  EXPECT_NEAR(static_cast<double>(f.p999_ns), static_cast<double>(truth),
              0.25 * static_cast<double>(truth));
  EXPECT_GT(f.p99_ns, 0u);
  // A tracked drift means small residuals means high confidence.
  EXPECT_GE(f.confidence, 0.7);
  EXPECT_TRUE(f.actionable);
  EXPECT_EQ(f.horizon_ticks, h);
  EXPECT_EQ(est.windows_seen(0), 30u);
  EXPECT_EQ(est.windows_skipped(0), 0u);
}

TEST(TailEstimator, ColdStartNeverActionable) {
  TailEstimator est(1);
  const std::uint64_t need = est.config().min_windows;
  for (std::uint64_t i = 0; i + 1 < need; ++i) {
    est.observe(0, sample(5'000));
    EXPECT_FALSE(est.forecast(0).actionable)
        << "window " << i << ": actionable before min_windows";
  }
  // A constant series is maximally predictable — confidence 1 — so the
  // very next adequate window flips the gate.
  est.observe(0, sample(5'000));
  const Forecast f = est.forecast(0);
  EXPECT_DOUBLE_EQ(f.confidence, 1.0);
  EXPECT_TRUE(f.actionable);
}

TEST(TailEstimator, ThinWindowsAreSkippedEntirely) {
  TailEstimator est(1);
  const std::uint64_t thin = est.config().min_samples - 1;
  for (int i = 0; i < 20; ++i) est.observe(0, sample(50'000, thin));
  EXPECT_EQ(est.windows_seen(0), 0u);
  EXPECT_EQ(est.windows_skipped(0), 20u);
  const Forecast f = est.forecast(0);
  EXPECT_EQ(f.p999_ns, 0u) << "skipped windows must not move the state";
  EXPECT_FALSE(f.actionable);
}

TEST(TailEstimator, RegimeChangeCollapsesConfidenceThenRecovers) {
  TailEstimator est(1);
  for (int i = 0; i < 20; ++i) est.observe(0, sample(1'000));
  ASSERT_TRUE(est.forecast(0).actionable);
  ASSERT_DOUBLE_EQ(est.forecast(0).confidence, 1.0);

  // Step x20: the one-step residual spikes, confidence collapses below
  // the floor, and the estimator must refuse to actuate even though its
  // point forecast is now chasing the step.
  est.observe(0, sample(20'000));
  const Forecast onset = est.forecast(0);
  EXPECT_LT(onset.confidence, est.config().confidence_floor);
  EXPECT_FALSE(onset.actionable)
      << "a fresh regime change must never actuate";

  // The new regime holds; residuals shrink; confidence recovers and the
  // level converges on the new plateau.
  for (int i = 0; i < 20; ++i) est.observe(0, sample(20'000));
  const Forecast settled = est.forecast(0);
  EXPECT_GE(settled.confidence, est.config().confidence_floor);
  EXPECT_TRUE(settled.actionable);
  EXPECT_NEAR(static_cast<double>(settled.p999_ns), 20'000.0, 2'000.0);
}

TEST(TailEstimator, DominantStageIsTheTrendingOneNotTheBiggest) {
  TailEstimator est(1);
  const auto qw = static_cast<std::size_t>(trace::Stage::kQueueWait);
  const auto sv = static_cast<std::size_t>(trace::Stage::kService);
  for (std::uint64_t i = 0; i < 20; ++i) {
    WindowSample w = sample(5'000 + 100 * i);
    // queue_wait carries the most mass but is FLAT; service is smaller
    // but worsening every window — the forecast must name service.
    w.stage_sum_ns[qw] = 64 * 4'000;
    w.stage_sum_ns[sv] = 64 * (500 + 100 * i);
    est.observe(0, w);
  }
  const Forecast f = est.forecast(0);
  ASSERT_TRUE(f.has_stage);
  EXPECT_EQ(f.dominant_stage, trace::Stage::kService)
      << "the forecast names where the tail is HEADING";
  EXPECT_GT(f.dominant_stage_slope, 0.0);
}

TEST(TailEstimator, OutOfRangePathIsInert) {
  TailEstimator est(2);
  est.observe(7, sample(5'000));  // must not crash or touch state
  EXPECT_EQ(est.windows_seen(7), 0u);
  const Forecast f = est.forecast(7);
  EXPECT_FALSE(f.actionable);
  EXPECT_EQ(f.p999_ns, 0u);
}

// ---------------------------------------------------------------------------
// WindowStats::quantile_ns edge pinning (the interpolated accessor the
// estimator consumes; the quantized p50/p99/p999 fields stay untouched).

TEST(WindowQuantile, EmptyWindowIsZero) {
  ctrl::SloMonitor mon(1, 10'000);
  const ctrl::WindowStats w = mon.harvest(0);
  EXPECT_EQ(w.samples, 0u);
  EXPECT_EQ(w.quantile_ns(0.5), 0u);
  EXPECT_EQ(w.quantile_ns(0.999), 0u);
  EXPECT_EQ(w.quantile_ns(0.0), 0u);
}

TEST(WindowQuantile, SingleSampleReturnsItsBucketUpperEdge) {
  ctrl::SloMonitor mon(1, 10'000);
  mon.observe(0, 1'000);
  const ctrl::WindowStats w = mon.harvest(0);
  ASSERT_EQ(w.samples, 1u);
  const std::uint64_t edge =
      ctrl::slo_bucket_upper_edge(ctrl::slo_bucket_index(1'000));
  // rank/count = 1/1 -> frac 1 -> the bucket's upper edge, for every q.
  EXPECT_EQ(w.quantile_ns(0.001), edge);
  EXPECT_EQ(w.quantile_ns(0.5), edge);
  EXPECT_EQ(w.quantile_ns(1.0), edge);
  EXPECT_EQ(w.quantile_ns(0.5), w.p50_ns)
      << "single sample: interpolated and quantized must agree";
}

TEST(WindowQuantile, InterpolatesWithinTheCrossingBucket) {
  ctrl::SloMonitor mon(1, 1'000'000);
  // 100 samples in the 1000-bucket, 100 in the 3000-bucket.
  for (int i = 0; i < 100; ++i) mon.observe(0, 1'000);
  for (int i = 0; i < 100; ++i) mon.observe(0, 3'000);
  const ctrl::WindowStats w = mon.harvest(0);
  ASSERT_EQ(w.samples, 200u);
  const std::size_t lo_idx = ctrl::slo_bucket_index(1'000);
  const std::uint64_t lo_lower = ctrl::slo_bucket_lower_edge(lo_idx);
  const std::uint64_t lo_upper = ctrl::slo_bucket_upper_edge(lo_idx);
  // q=0.25 -> rank 50 of the low bucket's 100 -> halfway up its span.
  const std::uint64_t q25 = w.quantile_ns(0.25);
  EXPECT_EQ(q25, lo_lower + (lo_upper - lo_lower) / 2);
  // q=1.0 lands exactly on the top bucket's upper edge.
  EXPECT_EQ(w.quantile_ns(1.0),
            ctrl::slo_bucket_upper_edge(ctrl::slo_bucket_index(3'000)));
  // Monotone in q, and the interpolated p99 never exceeds the quantized
  // one (upper edge of the crossing bucket is the ceiling).
  std::uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const std::uint64_t v = w.quantile_ns(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  EXPECT_LE(w.quantile_ns(0.99), w.p99_ns);
}

TEST(WindowQuantile, SaturatedTopOctaveReturnsMax) {
  ctrl::SloMonitor mon(1, 10'000);
  for (int i = 0; i < 10; ++i) mon.observe(0, 1'000);
  mon.observe(0, UINT64_MAX);
  const ctrl::WindowStats w = mon.harvest(0);
  ASSERT_EQ(w.samples, 11u);
  // The top octave has no sub-bucket resolution to pretend to: the
  // interpolated quantile saturates rather than inventing a value.
  EXPECT_EQ(w.quantile_ns(1.0), UINT64_MAX);
  EXPECT_LT(w.quantile_ns(0.5), 10'000u);
}

// ---------------------------------------------------------------------------
// CapacityModel: the offline "paths needed for SLO X at load Y" solver.

TEST(CapacityModel, EmptyOrUnfinalizedIsInert) {
  CapacityModel m;
  EXPECT_TRUE(m.empty());
  EXPECT_DOUBLE_EQ(m.predict_tail_ns(1.0), 0.0);
  EXPECT_EQ(m.paths_needed(10.0, 1'000, 8), 0u);
  m.add_observation(1.0, 1'000.0);
  EXPECT_DOUBLE_EQ(m.predict_tail_ns(1.0), 0.0) << "finalize() not called";
  m.finalize();
  EXPECT_DOUBLE_EQ(m.predict_tail_ns(1.0), 1'000.0);
}

TEST(CapacityModel, RejectsNonPositiveLoad) {
  CapacityModel m;
  m.add_observation(0.0, 1'000.0);
  m.add_observation(-1.0, 1'000.0);
  m.add_observation(1.0, -5.0);
  EXPECT_TRUE(m.empty());
}

TEST(CapacityModel, MonotoneEnvelopeFlattensDipsAndCollapsesDuplicates) {
  CapacityModel m;
  m.add_observation(3.0, 6'000.0);
  m.add_observation(1.0, 5'000.0);
  m.add_observation(2.0, 4'000.0);  // a dip: tails never improve with load
  m.add_observation(2.0, 3'500.0);  // duplicate load, better tail: noise
  m.finalize();
  EXPECT_EQ(m.observations(), 3u);
  EXPECT_DOUBLE_EQ(m.predict_tail_ns(2.0), 5'000.0)
      << "the dip must be flattened up to its left neighbor";
  EXPECT_DOUBLE_EQ(m.predict_tail_ns(3.0), 6'000.0);
}

TEST(CapacityModel, InterpolatesClampsAndExtrapolatesPessimistically) {
  CapacityModel m;
  m.add_observation(1.0, 1'000.0);
  m.add_observation(3.0, 3'000.0);
  m.finalize();
  EXPECT_DOUBLE_EQ(m.predict_tail_ns(2.0), 2'000.0);  // interior: linear
  EXPECT_DOUBLE_EQ(m.predict_tail_ns(0.25), 1'000.0);  // clamp below
  // Beyond the last point: extrapolate along the final segment's slope
  // (1000 ns per unit load) — deliberately err toward MORE paths.
  EXPECT_DOUBLE_EQ(m.predict_tail_ns(5.0), 5'000.0);
}

TEST(CapacityModel, PathsNeededInvertsTheCurve) {
  CapacityModel m;
  for (int load = 1; load <= 8; ++load)
    m.add_observation(static_cast<double>(load), 1'000.0 * load);
  m.finalize();
  // total 10/tick, SLO 2500 ns: per-path share must be <= 2.5 -> k = 4.
  EXPECT_EQ(m.paths_needed(10.0, 2'500, 8), 4u);
  // Loose SLO: one path carries it all.
  EXPECT_EQ(m.paths_needed(10.0, 10'000, 8), 1u);
  // SLO below the curve's floor (clamped first point = 1000 ns): even
  // max_paths cannot hold it — the solver must say 0, not max_paths.
  EXPECT_EQ(m.paths_needed(10.0, 400, 8), 0u);
  // Degenerate total load still costs one path.
  EXPECT_EQ(m.paths_needed(0.0, 2'500, 8), 1u);
}

// ---------------------------------------------------------------------------
// Controller e2e under the chaos rig.

const std::set<std::string>& known_reasons() {
  static const std::set<std::string> kReasons = {
      "slo_breach",       "backlog_breach",   "slo+backlog_breach",
      "probe_breach",     "drain_start",      "drained",
      "probation_passed", "hedge_raise",      "hedge_lower",
      "hedge_timeout",    "tenant_throttle",  "tenant_shed",
      "tenant_probation", "tenant_reinstate", "forecast_prehedge",
      "forecast_probe",   "forecast_prequarantine", "forecast_restore"};
  return kReasons;
}

void expect_rig_invariants(const ChaosResult& r, const char* label) {
  EXPECT_EQ(r.duplicate_egress, 0u) << label;
  EXPECT_EQ(r.order_violations, 0u) << label;
  EXPECT_EQ(r.pool_in_use, 0u) << label;
  EXPECT_EQ(r.pool_allocs, r.pool_recycles) << label;
  EXPECT_GT(r.egressed, 0u) << label;
  for (const auto& d : r.decisions) {
    EXPECT_TRUE(known_reasons().count(d.reason))
        << label << ": unknown reason '" << d.reason << "'";
    // The probe-first contract: a forecast_* decision never moves the
    // FSM. Only the reactive judge quarantines.
    if (std::string(d.reason).rfind("forecast_", 0) == 0) {
      EXPECT_EQ(d.from, d.to)
          << label << ": a forecast actuation moved the FSM ("
          << d.reason << ")";
    }
  }
}

ctrl::Config forecast_ctrl() {
  ctrl::Config c;
  c.slo_target_ns = 10'000;  // 10 logical iterations
  c.violation_threshold = 0.25;
  c.min_samples = 16;
  c.path.quarantine_after = 2;
  c.path.probation_probes = 8;
  c.probe_grant_per_tick = 8;
  c.min_serving_paths = 1;
  c.hedger.enabled = true;
  c.hedge_timeout.enabled = true;
  c.hedge_timeout.min_timeout_ns = 1'000;
  c.hedge_timeout.min_samples = 16;
  c.forecast.enabled = true;
  return c;
}

/// A ramping delay storm on path 1: 512-iteration (8-window) steps so
/// the Holt pair locks onto the drift well before the tail crosses the
/// SLO. delay d -> e2e latency roughly (d + 1) us against a 10 us SLO:
/// the ramp spends four phases (2..8) strictly inside the SLO — where
/// only a FORECAST can see trouble — then jumps over it (12) where the
/// reactive judge finally has a breach to rule on.
ChaosScenarioConfig ramp_storm_cfg(std::uint64_t seed) {
  ChaosScenarioConfig cfg;
  cfg.seed = seed;
  cfg.iterations = 20'000;
  cfg.flows = 4;
  cfg.packets_per_iter = 2;
  cfg.drain_per_iter = {8, 8};
  cfg.flow_affinity = true;  // keep the slow path's pain in its own spans
  cfg.ctrl = forecast_ctrl();
  const std::uint32_t delays[] = {2, 4, 6, 8};
  std::uint64_t from = 4'000;
  for (std::uint32_t d : delays) {
    cfg.phases.push_back({from, from + 512, 1, {.delay_ticks = d}});
    from += 512;
  }
  cfg.phases.push_back({from, 16'000, 1, {.delay_ticks = 12}});
  return cfg;
}

TEST(ForecastChaos, PrehedgeFiresBeforeTheReactiveBreach) {
  // Keep this scenario about the PRE-HEDGE: park the pre-quarantine
  // threshold out of reach so admission stays untouched until the
  // reactive judge rules.
  ChaosScenarioConfig cfg = ramp_storm_cfg(21);
  cfg.ctrl.forecast.prequarantine_threshold = 10.0;
  ChaosResult r = ChaosRig(cfg).run();
  expect_rig_invariants(r, "ramp");

  ASSERT_GE(r.forecast_prehedges, 1u)
      << "the ramp must trip the pre-hedge while still inside the SLO";
  ASSERT_GT(r.quarantines, 0u)
      << "the 12-tick plateau must eventually breach reactively";

  std::uint64_t prehedge_tick = 0;
  bool saw_prehedge = false;
  std::uint64_t quarantine_tick = 0;
  bool saw_quarantine = false;
  for (const auto& d : r.decisions) {
    if (!saw_prehedge && std::string(d.reason) == "forecast_prehedge") {
      prehedge_tick = d.tick;
      saw_prehedge = true;
      // The decision must carry the forecast evidence it acted on.
      EXPECT_GT(d.fc_p999_ns,
                static_cast<std::uint64_t>(
                    cfg.ctrl.forecast.prehedge_threshold *
                    static_cast<double>(cfg.ctrl.slo_target_ns)));
      EXPECT_GE(d.fc_confidence,
                cfg.ctrl.forecast.estimator.confidence_floor);
      EXPECT_EQ(d.fc_horizon_ticks,
                cfg.ctrl.forecast.estimator.horizon_ticks);
      EXPECT_EQ(d.path, 1u) << "the worst forecast is the ramping path";
    }
    if (!saw_quarantine && d.path < ctrl::Decision::kTenant &&
        d.to == ctrl::PathState::kQuarantined) {
      quarantine_tick = d.tick;
      saw_quarantine = true;
    }
  }
  ASSERT_TRUE(saw_prehedge);
  ASSERT_TRUE(saw_quarantine);
  EXPECT_LT(prehedge_tick, quarantine_tick)
      << "the whole point: proactive actuation must LEAD the breach";

  // The pre-hedge must be confirmed by the breach that followed it.
  EXPECT_GE(r.forecast_confirmed, 1u);
  // The report carries the forecast section and the decision evidence.
  EXPECT_NE(r.ctrl_report.find("\"forecast_enabled\":true"),
            std::string::npos);
  EXPECT_NE(r.ctrl_report.find("\"forecast_prehedges\""), std::string::npos);
  EXPECT_NE(r.ctrl_report.find("forecast_prehedge"), std::string::npos);
  // The telem time series carries per-path forecast rows.
  EXPECT_NE(r.telem_report.find("\"forecast\""), std::string::npos);
}

TEST(ForecastChaos, PrequarantineIsProbeFirstAndSelfReleasing) {
  // The reactive judge is disarmed (violation fraction can never exceed
  // 1.1), so whatever the forecast does is all that happens: the ramp
  // must produce pre-quarantines but ZERO hard quarantines — the
  // "forecast never hard-drains" contract — and the holds must release
  // on their own (restore or max_hold expiry), booking false positives
  // since no breach can ever confirm them.
  ChaosScenarioConfig cfg = ramp_storm_cfg(33);
  cfg.ctrl.violation_threshold = 1.1;
  cfg.ctrl.hedger.enabled = false;
  cfg.ctrl.hedge_timeout.enabled = false;
  cfg.ctrl.forecast.prequarantine_threshold = 1.2;
  cfg.ctrl.forecast.probe_grant = 32;
  ChaosResult r = ChaosRig(cfg).run();
  expect_rig_invariants(r, "probe-first");

  EXPECT_GE(r.forecast_prequarantines, 1u)
      << "the 12-tick plateau forecast must cross 1.2x SLO";
  EXPECT_EQ(r.quarantines, 0u)
      << "no forecast may hard-quarantine without reactive confirmation";
  EXPECT_GE(r.forecast_restores, 1u)
      << "a hold without confirmation must release on its own";
  EXPECT_GE(r.forecast_false_positives, 1u)
      << "unconfirmed episodes must be booked as false positives";
  EXPECT_EQ(r.breach_windows, 0u);
  EXPECT_NE(r.ctrl_report.find("forecast_prequarantine"), std::string::npos);
  EXPECT_NE(r.ctrl_report.find("forecast_restore"), std::string::npos);
}

TEST(ForecastChaos, NoStormSoakNeverActuates) {
  // A clean plane with the forecast stage LIVE: it must observe (telem
  // rows carry forecasts) and touch nothing.
  ChaosScenarioConfig cfg;
  cfg.seed = 57;
  cfg.iterations = 20'000;
  cfg.flows = 4;
  cfg.packets_per_iter = 2;
  cfg.drain_per_iter = {8, 8};
  cfg.ctrl = forecast_ctrl();
  ChaosResult r = ChaosRig(cfg).run();
  expect_rig_invariants(r, "calm");

  EXPECT_EQ(r.forecast_prehedges, 0u);
  EXPECT_EQ(r.forecast_probes, 0u);
  EXPECT_EQ(r.forecast_prequarantines, 0u);
  EXPECT_EQ(r.forecast_restores, 0u);
  EXPECT_EQ(r.forecast_false_positives, 0u);
  EXPECT_EQ(r.breach_windows, 0u);
  EXPECT_EQ(r.quarantines, 0u);
  for (const auto& d : r.decisions)
    EXPECT_TRUE(std::string(d.reason).rfind("forecast_", 0) != 0)
        << "calm-plane forecast actuation: " << d.reason;
  // Observing without actuating: the telem rows still carry forecasts.
  EXPECT_NE(r.telem_report.find("\"forecast\""), std::string::npos);
  EXPECT_NE(r.ctrl_report.find("\"forecast_false_positive_fraction\""),
            std::string::npos);
}

TEST(ForecastChaos, SameSeedIsByteIdentical) {
  ChaosScenarioConfig cfg = ramp_storm_cfg(42);
  cfg.iterations = 12'000;
  cfg.phases.back().to_iter = 10'000;
  ChaosResult a = ChaosRig(cfg).run();
  ChaosResult b = ChaosRig(cfg).run();
  EXPECT_GT(a.forecast_prehedges + a.forecast_probes +
                a.forecast_prequarantines,
            0u)
      << "a run where the forecast never acts proves nothing";
  EXPECT_EQ(a.ctrl_report, b.ctrl_report)
      << "forecast decisions must be as reproducible as reactive ones";
  EXPECT_EQ(a.delivered_log, b.delivered_log);
  EXPECT_EQ(a.telem_report, b.telem_report);
  EXPECT_EQ(a.telem_dump, b.telem_dump);
  EXPECT_EQ(a.forecast_confirmed, b.forecast_confirmed);
  EXPECT_EQ(a.forecast_false_positives, b.forecast_false_positives);
}

TEST(ForecastChaos, DisabledIsByteIdenticalToThePreForecastController) {
  // The same storm, two configs: the plain pre-forecast default, and the
  // default with every forecast KNOB customized but enabled=false. Both
  // must produce byte-identical artifacts — "disabled means OFF" — and
  // neither may leak a single forecast key into any report.
  ChaosScenarioConfig legacy;
  legacy.seed = 64;
  legacy.iterations = 15'000;
  legacy.flows = 4;
  legacy.packets_per_iter = 2;
  legacy.drain_per_iter = {8, 8};
  legacy.flow_affinity = true;
  legacy.ctrl = forecast_ctrl();
  legacy.ctrl.forecast = ctrl::ForecastConfig{};  // default: disabled
  legacy.phases.push_back({3'000, 12'000, 1, {.delay_ticks = 14}});

  ChaosScenarioConfig parked = legacy;
  parked.ctrl.forecast.enabled = false;  // explicit, knobs customized
  parked.ctrl.forecast.prehedge_threshold = 0.1;
  parked.ctrl.forecast.prequarantine_threshold = 0.2;
  parked.ctrl.forecast.restore_threshold = 0.05;
  parked.ctrl.forecast.estimator.min_windows = 1;
  parked.ctrl.forecast.estimator.confidence_floor = 0.0;
  parked.ctrl.forecast.probe_grant = 1'000;

  ChaosResult a = ChaosRig(legacy).run();
  ChaosResult b = ChaosRig(parked).run();
  EXPECT_GT(a.quarantines, 0u) << "the storm must make the run eventful";
  EXPECT_EQ(a.ctrl_report, b.ctrl_report)
      << "a parked forecast stage must not perturb the decision log";
  EXPECT_EQ(a.delivered_log, b.delivered_log);
  EXPECT_EQ(a.telem_report, b.telem_report);
  EXPECT_EQ(a.telem_dump, b.telem_dump);
  EXPECT_EQ(a.hedges_sent, b.hedges_sent);

  // Zero leakage: no forecast key anywhere in a disabled run's artifacts.
  EXPECT_EQ(a.ctrl_report.find("forecast"), std::string::npos);
  EXPECT_EQ(a.telem_report.find("forecast"), std::string::npos);
  EXPECT_EQ(a.forecast_prehedges + a.forecast_probes +
                a.forecast_prequarantines + a.forecast_restores +
                a.forecast_confirmed + a.forecast_false_positives,
            0u);
}

}  // namespace
}  // namespace mdp

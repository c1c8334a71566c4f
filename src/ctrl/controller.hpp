// Controller: the control plane's decision stage — observation in,
// actuation out, one tick at a time.
//
// Threading model is the same as ThreadedDataPlane::pump(): tick() runs on
// the caller thread, interleaved with pump()/ingress at whatever cadence
// the caller chooses. All controller state is caller-thread-only; the only
// cross-thread traffic is the SloMonitor's atomic windows (written by
// whoever observes completions — the threaded plane's collector in
// synthetic mode, its pump() caller in backend mode, the sim plane's
// egress callback) and the plane's own atomic counters. That is
// what makes test_ctrl's end-to-end case TSan-clean with workers running.
//
// Per tick, for every path:
//   1. harvest the SloMonitor window,
//   2. judge it (violation fraction vs threshold, and — for silent
//      blackholes that produce NO completions — backlog vs backlog_limit),
//   3. feed the PathStateMachine and actuate its transitions
//      (mask / flush+drain / probe-only probation / re-enable),
//   4. run the replication levers on the worst serving-path p99: the
//      AdaptiveHedger (how many copies) judges Config::band
//      (ctrl/hysteresis.hpp), and the HedgeTimeoutController moves the
//      hedge deadline.
// Every transition and every hedge change is appended to a bounded
// decision log, exported as the "ctrl" section of mdp.run_report.v2
// (docs/OBSERVABILITY.md) so benches can show *when* and *why* the
// controller acted.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ctrl/actuator.hpp"
#include "ctrl/hedger.hpp"
#include "ctrl/path_state.hpp"
#include "ctrl/slo_monitor.hpp"
#include "ctrl/tenant.hpp"
#include "forecast/tail_estimator.hpp"
#include "telem/flight_recorder.hpp"
#include "telem/snapshot_exporter.hpp"
#include "trace/registry.hpp"

namespace mdp::ctrl {

/// Stable numeric code for a decision reason string, stamped into
/// telem::EventType::kCtrlDecision events (field `n`). 0 = unknown.
/// Codes are part of the flight-recorder schema (docs/OBSERVABILITY.md):
///   1 slo_breach          2 backlog_breach     3 slo+backlog_breach
///   4 probe_breach        5 drain_start        6 drained
///   7 probation_passed    8 hedge_raise        9 hedge_lower
///  10 hedge_timeout      11 tenant_throttle   12 tenant_shed
///  13 tenant_probation   14 tenant_reinstate  15 (reserved)
///  16 forecast_prehedge  17 forecast_probe    18 forecast_prequarantine
///  19 forecast_restore
std::uint32_t decision_reason_code(const char* reason) noexcept;

/// The proactive stage (docs/FORECAST.md): a TailEstimator runs over the
/// same harvested windows the reactive judge sees, and forecasts that
/// clear BOTH the estimator's actionability gate (min_windows +
/// confidence_floor) and the thresholds below actuate before the breach:
///
///   forecast p99.9 >= prequarantine_threshold x SLO  -> admission
///       kProbeOnly on that path (probe-first; a forecast NEVER
///       hard-quarantines — only the reactive FSM, fed by the probe
///       evidence, can do that)
///   forecast p99.9 >= prehedge_threshold x SLO       -> one pre-raise of
///       the replication factor + a proactive tightening of the PID hedge
///       deadline (plane-wide; driven by the worst serving forecast)
///   same threshold + a worsening dominant-stage trend -> probe credits at
///       the trending path (stage-aware early evidence)
///
/// Every actuation opens a confirmation episode: a reactive slo_breach on
/// that path within confirm_window_ticks confirms it, expiry counts a
/// false positive — the fraction is exported and CI-gated (<= 5%).
/// Disabled (the default) must be byte-identical to a build without this
/// stage: every member below is only read when `enabled` is true.
struct ForecastConfig {
  bool enabled = false;
  forecast::EstimatorConfig estimator{};
  /// Pre-hedge when the worst actionable forecast p99.9 reaches this
  /// multiple of the SLO target (just-under-1 = act while still in SLO).
  double prehedge_threshold = 0.9;
  /// Pre-quarantine (kProbeOnly) at this multiple. Must be > prehedge.
  double prequarantine_threshold = 1.5;
  /// Release a held pre-actuation once the forecast falls back below this
  /// multiple of the SLO target.
  double restore_threshold = 0.7;
  /// Fractional cut of the PID deadline position on pre-hedge.
  double pretighten_frac = 0.3;
  /// A held pre-actuation auto-releases after this many ticks.
  std::uint64_t max_hold_ticks = 16;
  /// Reactive-confirmation window for false-positive accounting.
  std::uint64_t confirm_window_ticks = 8;
  /// Probe credits granted per tick by forecast_probe and to a
  /// pre-quarantined path (0 = inherit probe_grant_per_tick).
  std::uint64_t probe_grant = 0;
  /// Minimum ticks between forecast_probe actuations per path.
  std::uint64_t probe_cooldown_ticks = 4;
};

struct Config {
  /// The latency objective, in whatever unit the monitor is fed.
  std::uint64_t slo_target_ns = 1'000'000;
  /// Breach when the window's violation fraction exceeds this.
  double violation_threshold = 0.01;
  /// Windows with fewer samples than this carry no SLO signal.
  std::uint64_t min_samples = 32;
  /// Backlog breach when path_backlog() exceeds this (detects silent
  /// blackholes, which produce no completions to judge). 0 disables.
  std::uint64_t backlog_limit = 0;
  /// Hysteresis knobs (quarantine_after, probation_probes).
  PathStateConfig path{};
  /// Probe packets granted onto a probation path per tick.
  std::uint64_t probe_grant_per_tick = 8;
  /// Never quarantine below this many ACTIVE paths.
  std::size_t min_serving_paths = 1;
  /// The band the hedger judges the worst serving-path p99 against.
  Band band{};
  HedgerConfig hedger{};
  HedgeTimeoutConfig hedge_timeout{};
  /// The proactive stage: act on forecast tails BEFORE the reactive
  /// breach (docs/FORECAST.md). Disabled by default; disabled is
  /// byte-identical to the pre-forecast controller.
  ForecastConfig forecast{};
  /// Oldest decisions are evicted past this bound.
  std::size_t decision_log_capacity = 256;
};

/// One logged control action (state transition, hedge change, or tenant
/// admission change).
struct Decision {
  static constexpr std::uint16_t kHedge = 0xffff;  ///< `path` for hedges
  /// `path` for tenants. Lowest sentinel: `path < kTenant` means "a real
  /// path".
  static constexpr std::uint16_t kTenant = 0xfffe;

  std::uint64_t tick = 0;
  std::uint64_t now_ns = 0;
  std::uint16_t path = 0;
  PathState from = PathState::kActive;
  PathState to = PathState::kActive;
  const char* reason = "";
  // Evidence the decision was made on.
  std::uint64_t p99_ns = 0;
  std::uint64_t samples = 0;
  std::uint64_t violations = 0;
  std::uint64_t backlog = 0;
  std::size_t replicas = 1;
  /// Stage verdict: WHERE the window's latency went ("queue_wait",
  /// "service", "reorder", ...) — empty when the feeder supplied no stage
  /// evidence (plain observe()), and the latency mass it carried.
  const char* dominant_stage = "";
  std::uint64_t dominant_stage_ns = 0;
  /// Hedge deadline in force when the decision was logged (0 = the
  /// scheduler's own budget).
  std::uint64_t hedge_timeout_ns = 0;
  /// Tenant decisions only (path == kTenant): which tenant moved, where,
  /// and the window's offered arrivals the judgment was made on.
  std::uint16_t tenant = 0;
  TenantState tenant_from = TenantState::kAdmitted;
  TenantState tenant_to = TenantState::kAdmitted;
  std::uint64_t arrivals = 0;
  /// Forecast decisions only (reason forecast_*): the forecast evidence
  /// the action was taken on, serialized as a "forecast" sub-object.
  std::uint64_t fc_p99_ns = 0;
  std::uint64_t fc_p999_ns = 0;
  double fc_confidence = 0.0;
  std::uint64_t fc_horizon_ticks = 0;
  bool forecast_logged = false;
};

class Controller {
 public:
  /// `actuator` and `monitor` must outlive the controller. The monitor's
  /// SLO target is aligned to cfg.slo_target_ns on construction.
  Controller(Config cfg, Actuator& actuator, SloMonitor& monitor);

  /// Advance the control loop. Caller thread only, same as pump().
  void tick(std::uint64_t now_ns);

  PathState path_state(std::size_t p) const { return paths_[p].fsm.state(); }
  std::size_t replicas() const noexcept { return hedger_.replicas(); }
  std::uint64_t ticks() const noexcept { return tick_; }

  std::uint64_t quarantines() const noexcept;
  std::uint64_t reinstatements() const noexcept;
  std::uint64_t hedge_raises() const noexcept { return hedger_.raises(); }
  std::uint64_t hedge_lowers() const noexcept { return hedger_.lowers(); }
  std::uint64_t suppressed_quarantines() const noexcept {
    return suppressed_quarantines_;
  }
  /// Hedge deadline currently actuated (0 = scheduler's own budget).
  std::uint64_t hedge_timeout_ns() const noexcept {
    return hedge_timeout_.timeout_ns();
  }
  std::uint64_t hedge_timeout_adjustments() const noexcept {
    return hedge_timeout_.adjustments();
  }

  // --- forecast stage (docs/FORECAST.md; all zero while disabled) ----------
  std::uint64_t forecast_prehedges() const noexcept {
    return forecast_prehedges_;
  }
  std::uint64_t forecast_probes() const noexcept { return forecast_probes_; }
  std::uint64_t forecast_prequarantines() const noexcept {
    return forecast_prequarantines_;
  }
  std::uint64_t forecast_restores() const noexcept {
    return forecast_restores_;
  }
  std::uint64_t forecast_confirmed() const noexcept {
    return forecast_confirmed_;
  }
  std::uint64_t forecast_false_positives() const noexcept {
    return forecast_false_positives_;
  }
  /// false positives / resolved episodes (0 with no resolved episodes).
  double forecast_false_positive_fraction() const noexcept {
    const std::uint64_t resolved =
        forecast_confirmed_ + forecast_false_positives_;
    return resolved ? static_cast<double>(forecast_false_positives_) /
                          static_cast<double>(resolved)
                    : 0.0;
  }
  /// Controller-tick windows whose reactive judge saw an SLO breach
  /// (counted per path per tick; the A/B bench's primary metric).
  std::uint64_t breach_windows() const noexcept { return breach_windows_; }
  /// True while a forecast pre-quarantine holds `p` at kProbeOnly.
  bool pre_quarantined(std::size_t p) const noexcept {
    return p < paths_.size() && paths_[p].pre_quarantined;
  }
  /// The estimator's current forecast for `p` (default-constructed, never
  /// actionable, while the stage is disabled).
  forecast::Forecast path_forecast(std::size_t p) const {
    return est_ ? est_->forecast(p) : forecast::Forecast{};
  }

  const std::vector<Decision>& decisions() const noexcept {
    return decisions_;
  }

  // Runtime-adjustable knobs (caller thread; apply from the next tick).
  void set_slo_target_ns(std::uint64_t t);
  void set_violation_threshold(double f) { cfg_.violation_threshold = f; }
  void set_backlog_limit(std::uint64_t n) { cfg_.backlog_limit = n; }
  const Config& config() const noexcept { return cfg_; }

  // --- tenancy (optional; see docs/TENANCY.md) -----------------------------
  /// Attach the per-tenant admission stage: every tick() harvests each
  /// tenant's window, advances its state machine (the TenantAdmission
  /// object itself answers admit() queries), and logs transitions with
  /// the same decision machinery as path quarantine (reasons tenant_throttle /
  /// tenant_shed / tenant_probation / tenant_reinstate). A transition
  /// INTO kShed auto-dumps the attached flight recorder exactly like a
  /// quarantine does. `ta` must outlive the controller; nullptr detaches.
  void attach_tenants(TenantAdmission* ta) { tenants_ = ta; }
  TenantAdmission* tenants() const noexcept { return tenants_; }

  std::uint64_t tenant_throttles() const noexcept {
    return tenants_ ? tenants_->throttles() : 0;
  }
  std::uint64_t tenant_sheds() const noexcept {
    return tenants_ ? tenants_->sheds() : 0;
  }
  std::uint64_t tenant_reinstates() const noexcept {
    return tenants_ ? tenants_->reinstates() : 0;
  }
  std::uint64_t tenant_dropped() const noexcept {
    return tenants_ ? tenants_->total_dropped() : 0;
  }

  // --- telemetry plane (optional; see docs/OBSERVABILITY.md) ---------------
  /// Forward every harvested window to `exporter` (one begin_tick /
  /// add_path* / end_tick cycle per tick): the per-tick per-path
  /// histogram time series behind the "telem" run-report section. The
  /// exporter must outlive the controller's last tick. nullptr detaches.
  void set_telem_exporter(telem::SnapshotExporter* exporter) {
    exporter_ = exporter;
  }

  /// Attach a flight recorder: every logged decision also lands on the
  /// recorder's "ctrl" channel (kCtrlDecision, n = reason code), and a
  /// transition INTO kQuarantined auto-dumps the recorder's last
  /// `dump_window_ns` of events (0 = everything retained) into
  /// last_quarantine_dump() — the post-mortem for "what was the plane
  /// doing in the ticks before this path was cut". nullptr detaches.
  void attach_recorder(telem::FlightRecorder* rec,
                       std::uint64_t dump_window_ns = 0);

  /// Timeline captured at the most recent quarantine decision (empty
  /// until the first one). mdp.flight_recorder.v1 JSON.
  const std::string& last_quarantine_dump() const noexcept {
    return last_quarantine_dump_;
  }
  std::uint64_t auto_dumps() const noexcept { return auto_dumps_; }

  /// The "ctrl" section of mdp.run_report.v2: config echo, lifetime
  /// counters, and the decision log (see docs/OBSERVABILITY.md).
  std::string report_json() const;

  /// Expose lifetime counters as `ctrl.*`. The controller must outlive
  /// any snapshot taken from `reg`.
  void register_stats(trace::StatsRegistry& reg) const;

 private:
  struct PathCtl {
    PathStateMachine fsm;
    /// Why the path last breached: "slo_breach", "backlog_breach", or
    /// "slo+backlog_breach" when both trigger conditions held in the same
    /// window — the quarantine decision reports the cause that actually
    /// fired, not a blanket label.
    const char* last_breach_reason = "slo_breach";
    /// Stage verdict of the last breaching window (empty = no evidence).
    const char* last_dominant_stage = "";
    std::uint64_t last_dominant_ns = 0;
    // Forecast stage (only touched while cfg_.forecast.enabled):
    /// Held at kProbeOnly by a forecast (the FSM still reads kActive —
    /// only reactive evidence may hard-quarantine).
    bool pre_quarantined = false;
    std::uint64_t pre_quarantined_since = 0;
    std::uint64_t last_forecast_probe_tick = 0;  ///< 0 = never
    /// Open confirmation episode: a forecast actuation waiting for a
    /// reactive slo_breach (confirm) or expiry (false positive).
    bool fp_pending = false;
    std::uint64_t fp_since = 0;
  };

  void log_decision(Decision d);
  std::size_t active_count() const;
  /// kActive paths NOT held by a forecast pre-quarantine (== active_count
  /// while the forecast stage is disabled).
  std::size_t serving_count() const;
  /// Open a confirmation episode on `p` (no-op while one is pending:
  /// overlapping actuations share the first episode's clock).
  void open_fp_episode(std::size_t p);

  Config cfg_;
  Actuator& act_;
  SloMonitor& mon_;
  TenantAdmission* tenants_ = nullptr;
  AdaptiveHedger hedger_;
  HedgeTimeoutController hedge_timeout_;
  telem::SnapshotExporter* exporter_ = nullptr;
  telem::FlightRecorder* recorder_ = nullptr;
  telem::FlightRecorder::Channel* rec_chan_ = nullptr;
  std::uint64_t dump_window_ns_ = 0;
  std::string last_quarantine_dump_;
  std::uint64_t auto_dumps_ = 0;
  std::vector<PathCtl> paths_;
  std::vector<Decision> decisions_;
  std::uint64_t tick_ = 0;
  std::uint64_t suppressed_quarantines_ = 0;
  std::uint64_t decisions_evicted_ = 0;
  /// Forecast stage (docs/FORECAST.md). The estimator exists only while
  /// cfg_.forecast.enabled — a null est_ is the disabled stage.
  std::unique_ptr<forecast::TailEstimator> est_;
  bool prehedge_active_ = false;
  std::uint64_t prehedge_since_ = 0;
  std::uint64_t forecast_prehedges_ = 0;
  std::uint64_t forecast_probes_ = 0;
  std::uint64_t forecast_prequarantines_ = 0;
  std::uint64_t forecast_restores_ = 0;
  std::uint64_t forecast_confirmed_ = 0;
  std::uint64_t forecast_false_positives_ = 0;
  std::uint64_t breach_windows_ = 0;
};

}  // namespace mdp::ctrl

#include "ctrl/controller.hpp"

#include <cstring>
#include <iterator>

#include "trace/json.hpp"

namespace mdp::ctrl {

std::uint32_t decision_reason_code(const char* reason) noexcept {
  static constexpr const char* kReasons[] = {
      "slo_breach",       "backlog_breach",   "slo+backlog_breach",
      "probe_breach",     "drain_start",      "drained",
      "probation_passed", "hedge_raise",      "hedge_lower",
      "hedge_timeout",    "tenant_throttle",  "tenant_shed",
      "tenant_probation", "tenant_reinstate", nullptr /* 15: reserved */,
      "forecast_prehedge", "forecast_probe",  "forecast_prequarantine",
      "forecast_restore"};
  for (std::uint32_t i = 0; i < std::size(kReasons); ++i)
    if (kReasons[i] && std::strcmp(reason, kReasons[i]) == 0) return i + 1;
  return 0;
}

Controller::Controller(Config cfg, Actuator& actuator, SloMonitor& monitor)
    : cfg_(cfg),
      act_(actuator),
      mon_(monitor),
      hedger_(cfg.hedger, cfg.band),
      hedge_timeout_(cfg.hedge_timeout) {
  mon_.set_slo_target_ns(cfg_.slo_target_ns);
  paths_.resize(act_.num_paths());
  for (auto& p : paths_) p.fsm = PathStateMachine(cfg_.path);
  if (cfg_.decision_log_capacity == 0) cfg_.decision_log_capacity = 1;
  if (cfg_.forecast.enabled) {
    ForecastConfig& fc = cfg_.forecast;
    if (fc.prehedge_threshold <= 0.0) fc.prehedge_threshold = 0.9;
    if (fc.prequarantine_threshold <= fc.prehedge_threshold)
      fc.prequarantine_threshold = fc.prehedge_threshold * 1.5;
    if (fc.restore_threshold >= fc.prehedge_threshold)
      fc.restore_threshold = fc.prehedge_threshold * 0.75;
    if (fc.max_hold_ticks == 0) fc.max_hold_ticks = 1;
    if (fc.probe_grant == 0) fc.probe_grant = cfg_.probe_grant_per_tick;
    est_ = std::make_unique<forecast::TailEstimator>(paths_.size(),
                                                     fc.estimator);
  }
}

void Controller::set_slo_target_ns(std::uint64_t t) {
  cfg_.slo_target_ns = t;
  mon_.set_slo_target_ns(t);
}

std::size_t Controller::active_count() const {
  std::size_t n = 0;
  for (const auto& p : paths_)
    if (p.fsm.state() == PathState::kActive) ++n;
  return n;
}

std::size_t Controller::serving_count() const {
  std::size_t n = 0;
  for (const auto& p : paths_)
    if (p.fsm.state() == PathState::kActive && !p.pre_quarantined) ++n;
  return n;
}

void Controller::open_fp_episode(std::size_t p) {
  PathCtl& pc = paths_[p];
  if (pc.fp_pending) return;
  pc.fp_pending = true;
  pc.fp_since = tick_;
}

void Controller::attach_recorder(telem::FlightRecorder* rec,
                                 std::uint64_t dump_window_ns) {
  recorder_ = rec;
  rec_chan_ = rec ? rec->channel("ctrl") : nullptr;
  dump_window_ns_ = dump_window_ns;
}

void Controller::log_decision(Decision d) {
  if (decisions_.size() >= cfg_.decision_log_capacity) {
    decisions_.erase(decisions_.begin());
    ++decisions_evicted_;
  }
  decisions_.push_back(d);
  if (rec_chan_)
    rec_chan_->emit(
        d.now_ns, telem::EventType::kCtrlDecision,
        d.path < Decision::kTenant ? d.path : telem::kAllPaths,
        decision_reason_code(d.reason), d.p99_ns);
  // Quarantine post-mortem: snapshot the merged event timeline as it
  // stood at the moment the path was cut. The dump INCLUDES the
  // kCtrlDecision event just emitted, so the artifact is self-dating.
  // Cutting a TENANT (kShed) is the same severity of action and gets the
  // same artifact.
  const bool cut_path = d.path < Decision::kTenant &&
                        d.to == PathState::kQuarantined;
  const bool cut_tenant = d.path == Decision::kTenant &&
                          d.tenant_to == TenantState::kShed;
  if (recorder_ && (cut_path || cut_tenant)) {
    last_quarantine_dump_ = recorder_->dump_json(dump_window_ns_);
    ++auto_dumps_;
  }
}

void Controller::tick(std::uint64_t now_ns) {
  ++tick_;
  if (exporter_) exporter_->begin_tick(tick_, now_ns);
  std::uint64_t worst_serving_p99 = 0;
  std::uint64_t worst_serving_p50 = 0;
  std::uint64_t serving_samples = 0;
  const char* worst_dominant_stage = "";
  std::uint64_t worst_dominant_ns = 0;
  // Worst actionable forecast across serving paths: drives the global
  // pre-hedge after the loop.
  forecast::Forecast fc_worst;
  std::uint16_t fc_worst_path = 0;
  bool have_fc_worst = false;

  for (std::size_t p = 0; p < paths_.size(); ++p) {
    PathCtl& pc = paths_[p];
    const PathState before = pc.fsm.state();
    const WindowStats w = mon_.harvest(p);
    const std::uint64_t backlog = act_.path_backlog(p);

    // Forecast stage, step 1: absorb the window (interpolated quantiles —
    // the estimator differentiates the series, and the quantized upper
    // edges would turn its trend term into staircase noise) and read the
    // path's forecast before anything else judges the window.
    forecast::Forecast fc;
    bool have_fc = false;
    if (est_) {
      forecast::WindowSample s;
      s.samples = w.samples;
      s.p99_ns = w.quantile_ns(0.99);
      s.p999_ns = w.quantile_ns(0.999);
      s.stage_sum_ns = w.stage_sum_ns;
      est_->observe(p, s);
      fc = est_->forecast(p);
      have_fc = est_->windows_seen(p) > 0;
    }

    if (exporter_) {
      telem::PathTickStats ts;
      ts.path = static_cast<std::uint16_t>(p);
      ts.samples = w.samples;
      ts.violations = w.violations;
      ts.sum_ns = w.sum_ns;
      ts.p50_ns = w.p50_ns;
      ts.p99_ns = w.p99_ns;
      ts.p999_ns = w.p999_ns;
      ts.max_ns = w.max_ns;
      ts.stage_sum_ns = w.stage_sum_ns;
      if (have_fc) {
        ts.has_forecast = true;
        ts.fc_p99_ns = fc.p99_ns;
        ts.fc_p999_ns = fc.p999_ns;
        ts.fc_confidence = fc.confidence;
        ts.fc_horizon_ticks = fc.horizon_ticks;
        ts.fc_actionable = fc.actionable;
        if (fc.has_stage && fc.dominant_stage_slope > 0.0)
          ts.fc_stage = trace::stage_name(fc.dominant_stage);
      }
      exporter_->add_path(ts);
    }

    // Stage verdict: WHERE this window's latency went, when the feeder
    // supplied spans (observe_span) rather than bare scalars.
    const char* dominant_stage = "";
    std::uint64_t dominant_ns = 0;
    if (w.has_stage_evidence()) {
      dominant_stage = trace::stage_name(w.dominant_stage());
      dominant_ns = w.dominant_stage_ns();
    }

    // Forecast stage, step 2: the proactive per-path actions, BEFORE the
    // reactive judge sees the window. A forecast may soften admission
    // (kProbeOnly) and schedule probes; it may never hard-quarantine —
    // that stays the reactive FSM's exclusive call, fed by the probe
    // evidence this very actuation keeps flowing.
    if (est_ && before == PathState::kActive) {
      const double slo = static_cast<double>(cfg_.slo_target_ns);
      const double fc999 = static_cast<double>(fc.p999_ns);
      if (pc.pre_quarantined) {
        const bool calmed =
            have_fc && fc999 < cfg_.forecast.restore_threshold * slo;
        const bool expired =
            tick_ - pc.pre_quarantined_since >= cfg_.forecast.max_hold_ticks;
        if (calmed || expired) {
          // Probe-first means release-first too: without reactive
          // confirmation inside the hold window the path goes back to
          // full admission (and the episode resolves as a false positive
          // unless a breach landed meanwhile).
          act_.set_admission(p, core::PathAdmission::kEnabled);
          pc.pre_quarantined = false;
          ++forecast_restores_;
          Decision d;
          d.tick = tick_;
          d.now_ns = now_ns;
          d.path = static_cast<std::uint16_t>(p);
          d.from = before;
          d.to = before;
          d.reason = "forecast_restore";
          d.p99_ns = w.p99_ns;
          d.samples = w.samples;
          d.violations = w.violations;
          d.backlog = backlog;
          d.replicas = hedger_.replicas();
          d.hedge_timeout_ns = hedge_timeout_.timeout_ns();
          d.fc_p99_ns = fc.p99_ns;
          d.fc_p999_ns = fc.p999_ns;
          d.fc_confidence = fc.confidence;
          d.fc_horizon_ticks = fc.horizon_ticks;
          d.forecast_logged = true;
          log_decision(d);
        } else {
          act_.grant_probes(p, cfg_.forecast.probe_grant);
        }
      } else if (fc.actionable) {
        if (fc999 >= cfg_.forecast.prequarantine_threshold * slo &&
            serving_count() > cfg_.min_serving_paths) {
          act_.set_admission(p, core::PathAdmission::kProbeOnly);
          act_.grant_probes(p, cfg_.forecast.probe_grant);
          pc.pre_quarantined = true;
          pc.pre_quarantined_since = tick_;
          ++forecast_prequarantines_;
          open_fp_episode(p);
          Decision d;
          d.tick = tick_;
          d.now_ns = now_ns;
          d.path = static_cast<std::uint16_t>(p);
          d.from = before;
          d.to = before;
          d.reason = "forecast_prequarantine";
          d.p99_ns = w.p99_ns;
          d.samples = w.samples;
          d.violations = w.violations;
          d.backlog = backlog;
          d.replicas = hedger_.replicas();
          d.dominant_stage = dominant_stage;
          d.dominant_stage_ns = dominant_ns;
          d.hedge_timeout_ns = hedge_timeout_.timeout_ns();
          d.fc_p99_ns = fc.p99_ns;
          d.fc_p999_ns = fc.p999_ns;
          d.fc_confidence = fc.confidence;
          d.fc_horizon_ticks = fc.horizon_ticks;
          d.forecast_logged = true;
          log_decision(d);
        } else if (fc999 >= cfg_.forecast.prehedge_threshold * slo &&
                   fc.has_stage && fc.dominant_stage_slope > 0.0 &&
                   (pc.last_forecast_probe_tick == 0 ||
                    tick_ - pc.last_forecast_probe_tick >=
                        cfg_.forecast.probe_cooldown_ticks)) {
          // Stage-aware early evidence: the path whose TRENDING stage is
          // worsening gets probe credits now, so by the time the tail
          // arrives the reactive judge has samples to rule on.
          act_.grant_probes(p, cfg_.forecast.probe_grant);
          pc.last_forecast_probe_tick = tick_;
          ++forecast_probes_;
          open_fp_episode(p);
          Decision d;
          d.tick = tick_;
          d.now_ns = now_ns;
          d.path = static_cast<std::uint16_t>(p);
          d.from = before;
          d.to = before;
          d.reason = "forecast_probe";
          d.p99_ns = w.p99_ns;
          d.samples = w.samples;
          d.violations = w.violations;
          d.backlog = backlog;
          d.replicas = hedger_.replicas();
          d.dominant_stage = trace::stage_name(fc.dominant_stage);
          d.dominant_stage_ns =
              static_cast<std::uint64_t>(fc.dominant_stage_slope);
          d.hedge_timeout_ns = hedge_timeout_.timeout_ns();
          d.fc_p99_ns = fc.p99_ns;
          d.fc_p999_ns = fc.p999_ns;
          d.fc_confidence = fc.confidence;
          d.fc_horizon_ticks = fc.horizon_ticks;
          d.forecast_logged = true;
          log_decision(d);
        }
      }
    }

    TickInput in;
    in.has_signal = w.samples >= cfg_.min_samples;
    const bool slo_breach =
        in.has_signal && w.violation_fraction() > cfg_.violation_threshold;
    const bool backlog_breach =
        cfg_.backlog_limit > 0 && backlog > cfg_.backlog_limit;
    in.breach = slo_breach || backlog_breach;
    if (slo_breach) ++breach_windows_;
    // Forecast stage, step 3: resolve confirmation episodes against the
    // reactive judge's verdict — a breach inside the window confirms the
    // earlier actuation, expiry books it as a false positive.
    if (est_ && pc.fp_pending) {
      if (slo_breach) {
        ++forecast_confirmed_;
        pc.fp_pending = false;
      } else if (tick_ - pc.fp_since > cfg_.forecast.confirm_window_ticks) {
        ++forecast_false_positives_;
        pc.fp_pending = false;
      }
    }
    if (in.breach) {
      // Backlog evidence needs no sample minimum — a silent blackhole's
      // whole signature is completions that never arrive. When both
      // causes fired in the same window the label says so; a backlog-only
      // quarantine is never mislabeled "slo_breach".
      in.has_signal = true;
      pc.last_breach_reason = slo_breach && backlog_breach
                                  ? "slo+backlog_breach"
                                  : slo_breach ? "slo_breach"
                                               : "backlog_breach";
      pc.last_dominant_stage = dominant_stage;
      pc.last_dominant_ns = dominant_ns;
    }

    switch (before) {
      case PathState::kActive:
        // Capacity guard: losing this path would leave fewer than
        // min_serving_paths serving (forecast pre-quarantined paths are
        // already not serving). A contained tail beats a masked fleet;
        // the breach is suppressed (and counted), not queued.
        if (in.breach && serving_count() <= cfg_.min_serving_paths) {
          in.breach = false;
          ++suppressed_quarantines_;
        }
        break;
      case PathState::kDraining:
        act_.flush_path(p);
        in.drained = act_.path_backlog(p) == 0;
        break;
      case PathState::kReinstated:
        // Every probation observation is a verdict: in-SLO counts toward
        // graduation, out-of-SLO re-quarantines (handled by the FSM).
        in.clean_probes = w.samples - w.violations;
        in.violated_probes = w.violations;
        break;
      case PathState::kQuarantined:
        break;
    }

    const bool changed = pc.fsm.on_tick(in);
    const PathState after = pc.fsm.state();

    // Reactive takeover: once the FSM moves, its transition actuation owns
    // the path's admission — the forecast hold dissolves without touching
    // anything.
    if (changed && pc.pre_quarantined) pc.pre_quarantined = false;

    if (changed) {
      const char* reason = "";
      switch (after) {
        case PathState::kQuarantined:
          reason = before == PathState::kReinstated ? "probe_breach"
                                                    : pc.last_breach_reason;
          act_.set_admission(p, core::PathAdmission::kDisabled);
          break;
        case PathState::kDraining:
          reason = "drain_start";
          act_.flush_path(p);
          break;
        case PathState::kReinstated:
          reason = "drained";
          act_.set_admission(p, core::PathAdmission::kProbeOnly);
          break;
        case PathState::kActive:
          reason = "probation_passed";
          act_.set_admission(p, core::PathAdmission::kEnabled);
          break;
      }
      Decision d;
      d.tick = tick_;
      d.now_ns = now_ns;
      d.path = static_cast<std::uint16_t>(p);
      d.from = before;
      d.to = after;
      d.reason = reason;
      d.p99_ns = w.p99_ns;
      d.samples = w.samples;
      d.violations = w.violations;
      d.backlog = backlog;
      d.replicas = hedger_.replicas();
      // A quarantine's stage verdict is the breaching window's — which may
      // be a tick or two old by the time the FSM trips (hysteresis); the
      // transition window itself can even be empty (masked tick).
      if (after == PathState::kQuarantined) {
        d.dominant_stage = pc.last_dominant_stage;
        d.dominant_stage_ns = pc.last_dominant_ns;
      } else {
        d.dominant_stage = dominant_stage;
        d.dominant_stage_ns = dominant_ns;
      }
      d.hedge_timeout_ns = hedge_timeout_.timeout_ns();
      log_decision(d);
    }

    if (pc.fsm.state() == PathState::kReinstated)
      act_.grant_probes(p, cfg_.probe_grant_per_tick);

    if (pc.fsm.state() == PathState::kActive && !pc.pre_quarantined) {
      if (w.p99_ns > worst_serving_p99) {
        worst_serving_p99 = w.p99_ns;
        worst_serving_p50 = w.p50_ns;
        worst_dominant_stage = dominant_stage;
        worst_dominant_ns = dominant_ns;
      }
      serving_samples += w.samples;
      if (est_ && fc.actionable &&
          (!have_fc_worst || fc.p999_ns > fc_worst.p999_ns)) {
        fc_worst = fc;
        fc_worst_path = static_cast<std::uint16_t>(p);
        have_fc_worst = true;
      }
    }
  }

  // Forecast stage, step 4: the global pre-hedge, BEFORE the reactive
  // hedger reads the measured tail. Replication and the hedge deadline
  // are plane-wide levers, so this is driven by the worst actionable
  // forecast across serving paths: raise replication one step inside the
  // budget and bias the PID deadline toward the floor, so the copies are
  // already flowing when the predicted tail lands.
  if (est_) {
    const double slo = static_cast<double>(cfg_.slo_target_ns);
    const double fc999 =
        have_fc_worst ? static_cast<double>(fc_worst.p999_ns) : 0.0;
    if (prehedge_active_) {
      const bool calmed =
          !have_fc_worst || fc999 < cfg_.forecast.restore_threshold * slo;
      // Past max_hold the episode releases unless the forecast still
      // clears the activation bar — a prediction that stays hot keeps the
      // pre-hedge armed until reactive evidence resolves it.
      const bool stale =
          tick_ - prehedge_since_ >= cfg_.forecast.max_hold_ticks &&
          fc999 < cfg_.forecast.prehedge_threshold * slo;
      if (calmed || stale) {
        prehedge_active_ = false;
        ++forecast_restores_;
        Decision d;
        d.tick = tick_;
        d.now_ns = now_ns;
        d.path = Decision::kHedge;
        d.reason = "forecast_restore";
        d.p99_ns = worst_serving_p99;
        d.samples = serving_samples;
        d.replicas = hedger_.replicas();
        d.hedge_timeout_ns = hedge_timeout_.timeout_ns();
        if (have_fc_worst) {
          d.fc_p99_ns = fc_worst.p99_ns;
          d.fc_p999_ns = fc_worst.p999_ns;
          d.fc_confidence = fc_worst.confidence;
          d.fc_horizon_ticks = fc_worst.horizon_ticks;
        }
        d.forecast_logged = true;
        log_decision(d);
      }
    } else if (have_fc_worst &&
               fc999 >= cfg_.forecast.prehedge_threshold * slo) {
      prehedge_active_ = true;
      prehedge_since_ = tick_;
      ++forecast_prehedges_;
      const std::size_t r_before = hedger_.replicas();
      const std::size_t r_after = hedger_.pre_raise();
      if (r_after != r_before) act_.set_replicas(r_after);
      hedge_timeout_.pre_tighten(cfg_.forecast.pretighten_frac);
      open_fp_episode(fc_worst_path);
      Decision d;
      d.tick = tick_;
      d.now_ns = now_ns;
      d.path = fc_worst_path;
      d.from = paths_[fc_worst_path].fsm.state();
      d.to = paths_[fc_worst_path].fsm.state();
      d.reason = "forecast_prehedge";
      d.p99_ns = worst_serving_p99;
      d.samples = serving_samples;
      d.replicas = r_after;
      if (fc_worst.has_stage && fc_worst.dominant_stage_slope > 0.0)
        d.dominant_stage = trace::stage_name(fc_worst.dominant_stage);
      d.hedge_timeout_ns = hedge_timeout_.timeout_ns();
      d.fc_p99_ns = fc_worst.p99_ns;
      d.fc_p999_ns = fc_worst.p999_ns;
      d.fc_confidence = fc_worst.confidence;
      d.fc_horizon_ticks = fc_worst.horizon_ticks;
      d.forecast_logged = true;
      log_decision(d);
    }
  }

  const std::size_t before_r = hedger_.replicas();
  const std::size_t after_r =
      hedger_.update(worst_serving_p99, serving_samples, cfg_.slo_target_ns);
  if (after_r != before_r) {
    act_.set_replicas(after_r);
    Decision d;
    d.tick = tick_;
    d.now_ns = now_ns;
    d.path = Decision::kHedge;
    d.reason = after_r > before_r ? "hedge_raise" : "hedge_lower";
    d.p99_ns = worst_serving_p99;
    d.samples = serving_samples;
    d.replicas = after_r;
    d.dominant_stage = worst_dominant_stage;
    d.dominant_stage_ns = worst_dominant_ns;
    d.hedge_timeout_ns = hedge_timeout_.timeout_ns();
    log_decision(d);
  }

  // The fine lever: move the hedge-fire deadline from measured p50-vs-SLO
  // headroom on the worst serving path. Actuated (and logged) only when
  // the PID output survives the deadband.
  const std::uint64_t t_before = hedge_timeout_.timeout_ns();
  const std::uint64_t t_after =
      hedge_timeout_.update(worst_serving_p50, worst_serving_p99,
                            serving_samples, cfg_.slo_target_ns);
  if (t_after != t_before && t_after != 0) {
    act_.set_hedge_timeout(t_after);
    Decision d;
    d.tick = tick_;
    d.now_ns = now_ns;
    d.path = Decision::kHedge;
    d.reason = "hedge_timeout";
    d.p99_ns = worst_serving_p99;
    d.samples = serving_samples;
    d.replicas = hedger_.replicas();
    d.dominant_stage = worst_dominant_stage;
    d.dominant_stage_ns = worst_dominant_ns;
    d.hedge_timeout_ns = t_after;
    log_decision(d);
  }

  // Tenant admission stage: harvest each tenant's window, advance its
  // state machine, and mirror transitions into the plane. The judgment is
  // the ARRIVAL contract, not the tenant's latency — under a storm every
  // tenant's tail degrades, so latency evidence points at victims while
  // the arrival budget points at the perpetrator (docs/TENANCY.md).
  if (tenants_) {
    for (std::size_t t = 0; t < tenants_->num_tenants(); ++t) {
      const TenantAdmission::TickResult r = tenants_->tick_tenant(t);
      if (exporter_) {
        telem::TenantTickStats ts;
        ts.tenant = static_cast<std::uint16_t>(t);
        ts.state = tenant_state_name(r.after);
        ts.arrivals = r.arrivals;
        ts.admitted = r.admitted;
        ts.dropped = r.dropped;
        ts.flow_arrivals = r.flow_arrivals;
        ts.samples = r.slo.samples;
        ts.violations = r.slo.violations;
        ts.p50_ns = r.slo.p50_ns;
        ts.p99_ns = r.slo.p99_ns;
        ts.p999_ns = r.slo.p999_ns;
        ts.max_ns = r.slo.max_ns;
        exporter_->add_tenant(ts);
      }
      if (!r.changed) continue;
      Decision d;
      d.tick = tick_;
      d.now_ns = now_ns;
      d.path = Decision::kTenant;
      d.tenant = static_cast<std::uint16_t>(t);
      d.tenant_from = r.before;
      d.tenant_to = r.after;
      d.reason = r.reason;
      d.arrivals = r.arrivals;
      d.p99_ns = r.slo.p99_ns;
      d.samples = r.slo.samples;
      d.violations = r.slo.violations;
      d.replicas = hedger_.replicas();
      d.hedge_timeout_ns = hedge_timeout_.timeout_ns();
      log_decision(d);
    }
  }

  if (exporter_) exporter_->end_tick();
}

std::uint64_t Controller::quarantines() const noexcept {
  std::uint64_t n = 0;
  for (const auto& p : paths_) n += p.fsm.quarantines();
  return n;
}

std::uint64_t Controller::reinstatements() const noexcept {
  std::uint64_t n = 0;
  for (const auto& p : paths_) n += p.fsm.reinstatements();
  return n;
}

std::string Controller::report_json() const {
  trace::JsonWriter w;
  w.begin_object();
  w.key("slo_target_ns").value(cfg_.slo_target_ns);
  w.key("violation_threshold").value(cfg_.violation_threshold);
  w.key("backlog_limit").value(cfg_.backlog_limit);
  w.key("quarantine_after").value(cfg_.path.quarantine_after);
  w.key("probation_probes").value(cfg_.path.probation_probes);
  w.key("ticks").value(tick_);
  w.key("quarantines").value(quarantines());
  w.key("reinstatements").value(reinstatements());
  w.key("suppressed_quarantines").value(suppressed_quarantines_);
  w.key("hedge_raises").value(hedger_.raises());
  w.key("hedge_lowers").value(hedger_.lowers());
  w.key("replicas").value(static_cast<std::uint64_t>(hedger_.replicas()));
  w.key("hedge_timeout_ns").value(hedge_timeout_.timeout_ns());
  w.key("hedge_timeout_adjustments").value(hedge_timeout_.adjustments());
  if (cfg_.forecast.enabled) {
    w.key("forecast_enabled").value(true);
    w.key("forecast_prehedges").value(forecast_prehedges_);
    w.key("forecast_probes").value(forecast_probes_);
    w.key("forecast_prequarantines").value(forecast_prequarantines_);
    w.key("forecast_restores").value(forecast_restores_);
    w.key("forecast_confirmed").value(forecast_confirmed_);
    w.key("forecast_false_positives").value(forecast_false_positives_);
    w.key("forecast_false_positive_fraction")
        .value(forecast_false_positive_fraction());
    w.key("breach_windows").value(breach_windows_);
  }
  w.key("path_states").begin_array();
  for (const auto& p : paths_) w.value(path_state_name(p.fsm.state()));
  w.end_array();
  if (tenants_) {
    w.key("tenant_throttles").value(tenants_->throttles());
    w.key("tenant_sheds").value(tenants_->sheds());
    w.key("tenant_reinstates").value(tenants_->reinstates());
    w.key("tenant_dropped").value(tenants_->total_dropped());
    w.key("tenants").begin_array();
    for (std::size_t t = 0; t < tenants_->num_tenants(); ++t) {
      const TenantSpec& spec = tenants_->spec(t);
      w.begin_object();
      w.key("tenant").value(static_cast<std::uint64_t>(t));
      w.key("name").value(spec.name);
      w.key("state").value(tenant_state_name(
          tenants_->state(static_cast<std::uint16_t>(t))));
      w.key("slo_target_ns").value(tenants_->monitor().slot_target_ns(t));
      w.key("arrival_budget_per_tick").value(spec.arrival_budget_per_tick);
      w.key("hedge_budget_per_tick").value(spec.hedge_budget_per_tick);
      w.key("dropped").value(tenants_->dropped(t));
      w.end_object();
    }
    w.end_array();
  }
  w.key("decisions_evicted").value(decisions_evicted_);
  w.key("decisions").begin_array();
  for (const auto& d : decisions_) {
    w.begin_object();
    w.key("tick").value(d.tick);
    w.key("now_ns").value(d.now_ns);
    if (d.path == Decision::kHedge) {
      w.key("target").value("hedger");
    } else if (d.path == Decision::kTenant) {
      w.key("target").value("tenant");
      w.key("tenant").value(static_cast<std::uint64_t>(d.tenant));
      w.key("from").value(tenant_state_name(d.tenant_from));
      w.key("to").value(tenant_state_name(d.tenant_to));
      w.key("arrivals").value(d.arrivals);
    } else {
      w.key("path").value(static_cast<std::uint64_t>(d.path));
      w.key("from").value(path_state_name(d.from));
      w.key("to").value(path_state_name(d.to));
    }
    w.key("reason").value(d.reason);
    w.key("p99_ns").value(d.p99_ns);
    w.key("samples").value(d.samples);
    w.key("violations").value(d.violations);
    w.key("backlog").value(d.backlog);
    w.key("replicas").value(static_cast<std::uint64_t>(d.replicas));
    if (d.dominant_stage[0] != '\0') {
      w.key("dominant_stage").value(d.dominant_stage);
      w.key("dominant_stage_ns").value(d.dominant_stage_ns);
    }
    if (d.hedge_timeout_ns != 0)
      w.key("hedge_timeout_ns").value(d.hedge_timeout_ns);
    if (d.forecast_logged) {
      w.key("forecast").begin_object();
      w.key("horizon_ticks").value(d.fc_horizon_ticks);
      w.key("p99_ns").value(d.fc_p99_ns);
      w.key("p999_ns").value(d.fc_p999_ns);
      w.key("confidence").value(d.fc_confidence);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

void Controller::register_stats(trace::StatsRegistry& reg) const {
  reg.add_counter("ctrl.ticks", [this] { return tick_; });
  reg.add_counter("ctrl.quarantines", [this] { return quarantines(); });
  reg.add_counter("ctrl.reinstatements",
                  [this] { return reinstatements(); });
  reg.add_counter("ctrl.suppressed_quarantines",
                  [this] { return suppressed_quarantines_; });
  reg.add_counter("ctrl.hedge_raises", [this] { return hedger_.raises(); });
  reg.add_counter("ctrl.hedge_lowers", [this] { return hedger_.lowers(); });
  reg.add_counter("ctrl.hedge_timeout_changes",
                  [this] { return hedge_timeout_.adjustments(); });
  if (cfg_.forecast.enabled) {
    reg.add_counter("ctrl.forecast_prehedges",
                    [this] { return forecast_prehedges_; });
    reg.add_counter("ctrl.forecast_probes",
                    [this] { return forecast_probes_; });
    reg.add_counter("ctrl.forecast_prequarantines",
                    [this] { return forecast_prequarantines_; });
    reg.add_counter("ctrl.forecast_restores",
                    [this] { return forecast_restores_; });
    reg.add_counter("ctrl.forecast_confirmed",
                    [this] { return forecast_confirmed_; });
    reg.add_counter("ctrl.forecast_false_positives",
                    [this] { return forecast_false_positives_; });
    reg.add_counter("ctrl.breach_windows",
                    [this] { return breach_windows_; });
  }
  reg.add_gauge("ctrl.hedge_timeout_ns", [this] {
    return static_cast<double>(hedge_timeout_.timeout_ns());
  });
  reg.add_gauge("ctrl.replicas", [this] {
    return static_cast<double>(hedger_.replicas());
  });
  reg.add_gauge("ctrl.paths_active", [this] {
    return static_cast<double>(active_count());
  });
  reg.add_counter("ctrl.tenant_throttles",
                  [this] { return tenant_throttles(); });
  reg.add_counter("ctrl.tenant_sheds", [this] { return tenant_sheds(); });
  reg.add_counter("ctrl.tenant_reinstates",
                  [this] { return tenant_reinstates(); });
  reg.add_counter("ctrl.tenant_dropped",
                  [this] { return tenant_dropped(); });
  reg.add_gauge("ctrl.tenants_shed", [this] {
    return tenants_ ? static_cast<double>(tenants_->shed_count()) : 0.0;
  });
}

}  // namespace mdp::ctrl

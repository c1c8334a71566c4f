// Extension experiment 3: the online control plane closing the loop.
//
// A noisy neighbor steals path 2's core in long bursts (~2ms at 60% duty)
// mid-run. Which controller arm helps depends on what the dispatch policy
// can see, so the experiment tells two stories over the same interference:
//
//   quarantine story (policy = rss): static hashing keeps feeding the
//     stolen path its full share through the whole burst, so the evidence
//     is loud — queue backlog past the limit during the theft, then a
//     flood of blown deadlines as the core returns. The controller
//     quarantines/drains path 2, probes it through the gaps, and
//     reinstates it when the core comes back; re-quarantines on the next
//     burst.
//
//   hedging story (policy = redundant:1, least-backlog): backlog-aware
//     dispatch self-limits its exposure — only the couple of packets that
//     were in flight when the theft began get stuck, too few for per-path
//     SLO evidence. But those stragglers ARE the tail, and the hedger sees
//     the serving-tail inflation and raises the replication factor so
//     every packet's second copy completes elsewhere.
//
//   hedge-timeout story (policy = redundant:1 + PID deadline vs a fixed
//     redundant:3): brute-force replication buys its tail with bandwidth —
//     every packet pays 2 extra copies whether the thief is active or not,
//     and at the margin the copies ARE the load. The PID loop instead
//     moves the hedge-fire deadline from measured p50-vs-SLO headroom, so
//     only actual stragglers spawn a second copy. The comparison rows
//     (schema mdp.bench_controller.v1) put p99.9 next to the
//     duplicate-send fraction for both arms.
//
// The decision timelines (parsed back out of the run reports' "ctrl"
// section) show when and why each action fired.
#include "bench_common.hpp"
#include "harness/experiment.hpp"

using namespace mdp;

namespace {

harness::ScenarioConfig base_cfg(const std::string& policy) {
  harness::ScenarioConfig cfg;
  cfg.policy = policy;
  cfg.num_paths = 4;
  cfg.load = 0.3;
  cfg.packets = 150'000;
  cfg.warmup_packets = 15'000;
  cfg.seed = 31;
  // Spans feed the SloMonitor stage-attributed evidence, so quarantine
  // decisions carry a dominant-stage verdict in the timelines below.
  cfg.trace = true;
  return cfg;
}

void add_interference(harness::ScenarioConfig& cfg) {
  // Long theft bursts on one path: each burst spans a full controller
  // window, so the per-path evidence is unambiguous while it lasts.
  cfg.interference = true;
  cfg.interference_cfg.duty_cycle = 0.6;
  cfg.interference_cfg.mean_burst_ns = 2'000'000;
  cfg.interference_paths = {2};
}

void add_ctrl(harness::ScenarioConfig& cfg, std::uint64_t slo_ns) {
  cfg.ctrl_enabled = true;
  // Telemetry plane on: every tick's harvested per-path windows land in
  // the "telem" section of the run report, which is what the p99.9
  // trajectory timelines below (and scripts/report_timeline.py) render.
  cfg.telem_enabled = true;
  // The window matches the burst cadence (bursts ~2ms, gaps ~1.3ms): a
  // stolen core produces no completions *during* the theft, so half the
  // evidence is the post-burst flood of blown deadlines — a 2ms window
  // catches one flood per window, making breaches consecutive. The other
  // half is backlog: a stolen-but-still-fed path blows past backlog_limit
  // mid-burst, which needs no completions at all.
  cfg.ctrl_tick_interval_ns = 2'000'000;
  cfg.ctrl.slo_target_ns = slo_ns;
  cfg.ctrl.violation_threshold = 0.05;
  cfg.ctrl.min_samples = 8;
  cfg.ctrl.backlog_limit = 256;
  cfg.ctrl.path.quarantine_after = 2;
  cfg.ctrl.path.probation_probes = 16;
  cfg.ctrl.probe_grant_per_tick = 16;
  cfg.ctrl.min_serving_paths = 2;
}

void enable_hedger(harness::ScenarioConfig& cfg) {
  cfg.ctrl.hedger.enabled = true;
  cfg.ctrl.hedger.max_replicas = 2;
  cfg.ctrl.band.raise_threshold = 1.0;
  cfg.ctrl.band.lower_threshold = 0.3;
  cfg.ctrl.band.sustain_ticks = 2;
  cfg.ctrl.band.cooldown_ticks = 10;
  cfg.ctrl.band.min_samples = 32;
}

void enable_hedge_timeout(harness::ScenarioConfig& cfg) {
  // The fine lever: leave the replica count at 1 and let the PID move the
  // hedge-fire deadline inside [max(p50, 5us), SLO] from tail error.
  cfg.ctrl.hedge_timeout.enabled = true;
  cfg.ctrl.hedge_timeout.min_timeout_ns = 5'000;
  cfg.ctrl.hedge_timeout.min_samples = 32;
}

/// One mdp.bench_controller.v1 row: the hedge-timeout story's comparison
/// unit — tail percentiles next to the duplicate-send fraction they cost.
std::string controller_row(const std::string& arm, const std::string& policy,
                           std::uint64_t slo_ns,
                           const harness::ScenarioResult& r) {
  trace::JsonWriter w;
  w.begin_object();
  w.key("schema").value("mdp.bench_controller.v1");
  w.key("arm").value(arm);
  w.key("policy").value(policy);
  w.key("slo_target_ns").value(slo_ns);
  w.key("p50_ns").value(r.latency.p50());
  w.key("p99_ns").value(r.latency.p99());
  w.key("p999_ns").value(r.latency.p999());
  w.key("max_ns").value(r.latency.max());
  w.key("egressed").value(r.egressed);
  w.key("hedges").value(r.hedges);
  w.key("duplicate_send_fraction").value(r.replica_fraction);
  w.key("quarantines").value(r.ctrl_quarantines);
  w.end_object();
  return w.take();
}

void print_decision_timeline(const std::string& ctrl_report) {
  auto doc = trace::JsonValue::parse(ctrl_report);
  if (!doc) {
    bench::note("ctrl report did not parse");
    return;
  }
  const trace::JsonValue* decisions = doc->find("decisions");
  if (!decisions || decisions->items().empty()) {
    bench::note("controller made no decisions");
    return;
  }
  stats::Table t({"t(ms)", "target", "action", "reason", "evidence p99",
                  "backlog", "replicas"});
  for (const auto& d : decisions->items()) {
    const trace::JsonValue* path = d.find("path");
    const std::string target =
        path ? "path " + std::to_string(path->as_u64()) : "hedger";
    const std::string reason = d.find("reason")->as_string();
    std::string action;
    if (path) {
      action =
          d.find("from")->as_string() + " -> " + d.find("to")->as_string();
    } else if (reason == "hedge_raise") {
      action = "+1 replica";
    } else if (reason == "hedge_lower") {
      action = "-1 replica";
    } else if (reason == "hedge_timeout") {
      action =
          "deadline -> " + bench::us(d.find("hedge_timeout_ns")->as_u64());
    } else {
      action = reason;
    }
    // The stage verdict (tentpole evidence) rides along with the reason:
    // "slo_breach [service]" says not just THAT but WHERE.
    std::string reason_col = reason;
    if (const trace::JsonValue* ds = d.find("dominant_stage"))
      reason_col += " [" + ds->as_string() + "]";
    char tbuf[32];
    std::snprintf(tbuf, sizeof(tbuf), "%.2f",
                  d.find("now_ns")->as_double() / 1e6);
    t.add_row({tbuf, target, action, reason_col,
               bench::us(d.find("p99_ns")->as_u64()),
               stats::fmt_u64(d.find("backlog")->as_u64()),
               stats::fmt_u64(d.find("replicas")->as_u64())});
  }
  bench::print_table(t);
}

/// Render the telem time series as a per-path p99.9 trajectory with the
/// controller's decisions overlaid on the tick where they fired — the
/// same view `scripts/report_timeline.py` renders offline from the run
/// report JSON. Rows are strided down to ~max_rows, but any tick whose
/// interval carried a decision is always shown.
void print_telem_timeline(const std::string& telem_report,
                          const std::string& ctrl_report,
                          std::size_t max_rows = 16) {
  auto doc = trace::JsonValue::parse(telem_report);
  if (!doc) {
    bench::note("telem report did not parse");
    return;
  }
  const trace::JsonValue* ticks = doc->find("ticks");
  if (!ticks || ticks->items().empty()) {
    bench::note("telem series is empty");
    return;
  }
  std::vector<std::pair<std::uint64_t, std::string>> marks;
  if (auto cdoc = trace::JsonValue::parse(ctrl_report)) {
    if (const trace::JsonValue* ds = cdoc->find("decisions"))
      for (const auto& d : ds->items()) {
        std::string m = d.find("reason")->as_string();
        if (const trace::JsonValue* p = d.find("path"))
          m += "@" + std::to_string(p->as_u64());
        marks.emplace_back(d.find("now_ns")->as_u64(), std::move(m));
      }
  }
  const auto& rows = ticks->items();
  const std::size_t npaths = rows.front().find("paths")->items().size();
  std::vector<std::string> hdr = {"tick", "t(ms)"};
  for (std::size_t p = 0; p < npaths; ++p)
    hdr.push_back("p99.9 path" + std::to_string(p));
  hdr.push_back("decisions");
  stats::Table t(hdr);
  const std::size_t stride = rows.size() > max_rows
                                 ? (rows.size() + max_rows - 1) / max_rows
                                 : 1;
  std::size_t mi = 0;
  std::string pending;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const trace::JsonValue& row = rows[i];
    const std::uint64_t now = row.find("now_ns")->as_u64();
    for (; mi < marks.size() && marks[mi].first <= now; ++mi) {
      if (!pending.empty()) pending += ", ";
      pending += marks[mi].second;
    }
    if (i % stride != 0 && pending.empty() && i + 1 != rows.size())
      continue;
    std::vector<std::string> cols;
    char tbuf[32];
    std::snprintf(tbuf, sizeof(tbuf), "%.2f",
                  static_cast<double>(now) / 1e6);
    cols.push_back(stats::fmt_u64(row.find("tick")->as_u64()));
    cols.push_back(tbuf);
    for (std::size_t p = 0; p < npaths; ++p) {
      const trace::JsonValue* ps = nullptr;
      for (const auto& e : row.find("paths")->items())
        if (e.find("path")->as_u64() == p) ps = &e;
      cols.push_back(ps && ps->find("samples")->as_u64() > 0
                         ? bench::us(ps->find("p999_ns")->as_u64())
                         : "-");
    }
    cols.push_back(pending.empty() ? "" : pending);
    pending.clear();
    t.add_row(cols);
  }
  bench::print_table(t);
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Ext 3", "Online control plane: SLO-driven quarantine + "
                         "adaptive hedging vs a noisy neighbor on path 2");
  bench::JsonReportSink sink("ext3", argc, argv);

  // Quiet calibration — the SLO target is 4x the clean p99 (probes share
  // the data path, so they see real queue wait; 4x keeps healthy paths
  // from flapping on probe jitter).
  auto quiet_cfg = base_cfg("rss");
  auto quiet = harness::run_scenario(quiet_cfg);
  sink.add("quiet", quiet_cfg, quiet);
  const std::uint64_t slo_ns = 4 * quiet.latency.p99();
  bench::note("quiet p99 = " + bench::us(quiet.latency.p99()) +
              "; SLO target set to 4x = " + bench::us(slo_ns));

  // --- quarantine story: static hashing can't dodge the thief -------------
  auto rss_off_cfg = base_cfg("rss");
  add_interference(rss_off_cfg);
  auto rss_off = harness::run_scenario(rss_off_cfg);
  sink.add("rss-ctrl-off", rss_off_cfg, rss_off);

  auto rss_on_cfg = base_cfg("rss");
  add_interference(rss_on_cfg);
  add_ctrl(rss_on_cfg, slo_ns);
  // rss has no replication knob (set_replication is a no-op for static
  // hashing), so the hedger stays off; the redundant run below covers it.
  auto rss_on = harness::run_scenario(rss_on_cfg);
  sink.add("rss-ctrl-on", rss_on_cfg, rss_on);

  // --- hedging story: least-backlog self-limits, stragglers remain --------
  auto red_off_cfg = base_cfg("redundant:1");
  add_interference(red_off_cfg);
  auto red_off = harness::run_scenario(red_off_cfg);
  sink.add("red1-ctrl-off", red_off_cfg, red_off);

  auto red_on_cfg = base_cfg("redundant:1");
  add_interference(red_on_cfg);
  add_ctrl(red_on_cfg, slo_ns);
  enable_hedger(red_on_cfg);
  auto red_on = harness::run_scenario(red_on_cfg);
  sink.add("red1-ctrl-on", red_on_cfg, red_on);

  // --- hedge-timeout story: PID deadline vs brute-force replication -------
  auto red3_cfg = base_cfg("redundant:3");
  add_interference(red3_cfg);
  auto red3 = harness::run_scenario(red3_cfg);
  sink.add("red3-fixed", red3_cfg, red3);

  auto pid_cfg = base_cfg("redundant:1");
  add_interference(pid_cfg);
  add_ctrl(pid_cfg, slo_ns);
  enable_hedge_timeout(pid_cfg);
  auto pid = harness::run_scenario(pid_cfg);
  sink.add("red1-pid-timeout", pid_cfg, pid);

  sink.add_raw("controller-row:red3-fixed",
               controller_row("red3-fixed", "redundant:3", slo_ns, red3));
  sink.add_raw("controller-row:red1-pid-timeout",
               controller_row("red1-pid-timeout", "redundant:1+pid", slo_ns,
                              pid));

  stats::Table t({"metric", "quiet", "rss off", "rss+ctrl", "red:1 off",
                  "red:1+ctrl"});
  auto row = [&](const char* name, auto get) {
    t.add_row({name, get(quiet), get(rss_off), get(rss_on), get(red_off),
               get(red_on)});
  };
  row("p50", [](const harness::ScenarioResult& r) {
    return bench::us(r.latency.p50());
  });
  row("p99", [](const harness::ScenarioResult& r) {
    return bench::us(r.latency.p99());
  });
  row("p99.9", [](const harness::ScenarioResult& r) {
    return bench::us(r.latency.p999());
  });
  row("max", [](const harness::ScenarioResult& r) {
    return bench::us(r.latency.max());
  });
  row("egressed", [](const harness::ScenarioResult& r) {
    return stats::fmt_u64(r.egressed);
  });
  row("quarantines", [](const harness::ScenarioResult& r) {
    return r.ctrl_report.empty() ? std::string("-")
                                 : stats::fmt_u64(r.ctrl_quarantines);
  });
  row("reinstatements", [](const harness::ScenarioResult& r) {
    return r.ctrl_report.empty() ? std::string("-")
                                 : stats::fmt_u64(r.ctrl_reinstatements);
  });
  bench::print_table(t);

  // The hedge-timeout story head-to-head: same interference, same SLO —
  // what does each arm's tail cost in duplicate sends?
  std::printf("\nHedge-timeout story — PID deadline vs fixed redundant:3:\n");
  stats::Table ht({"metric", "red:3 fixed", "red:1 + PID deadline"});
  auto ht_row = [&](const char* name, auto get) {
    ht.add_row({name, get(red3), get(pid)});
  };
  ht_row("p50", [](const harness::ScenarioResult& r) {
    return bench::us(r.latency.p50());
  });
  ht_row("p99", [](const harness::ScenarioResult& r) {
    return bench::us(r.latency.p99());
  });
  ht_row("p99.9", [](const harness::ScenarioResult& r) {
    return bench::us(r.latency.p999());
  });
  ht_row("dup-send fraction", [](const harness::ScenarioResult& r) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", r.replica_fraction);
    return std::string(buf);
  });
  ht_row("hedges", [](const harness::ScenarioResult& r) {
    return stats::fmt_u64(r.hedges);
  });
  bench::print_table(ht);

  std::printf("\nDecision timeline — quarantine story (rss + ctrl):\n");
  print_decision_timeline(rss_on.ctrl_report);
  std::printf("\nDecision timeline — hedging story (redundant:1 + ctrl):\n");
  print_decision_timeline(red_on.ctrl_report);
  std::printf(
      "\nDecision timeline — hedge-timeout story (redundant:1 + PID):\n");
  print_decision_timeline(pid.ctrl_report);

  std::printf("\np99.9 trajectory (telem series) — quarantine story:\n");
  print_telem_timeline(rss_on.telem_report, rss_on.ctrl_report);
  std::printf("\np99.9 trajectory (telem series) — hedge-timeout story:\n");
  print_telem_timeline(pid.telem_report, pid.ctrl_report);
  bench::note("the trajectories above are rendered from the \"telem\" "
              "section of the run report; scripts/report_timeline.py "
              "produces the same view (plus CSV) from the JSON offline");

  bench::note("the controller trades a little path capacity (quarantined "
              "windows) or bandwidth (replicas) for the interference tail; "
              "compare p99.9 ctrl on/off against the quiet baseline");
  bench::note("hedge-timeout story: the PID deadline pays for its tail "
              "with hedges fired only at actual stragglers, where fixed "
              "redundant:3 pays 2 extra copies on every packet");
  return sink.flush() ? 0 : 1;
}

// Extension experiment 5: predictive tail control (docs/FORECAST.md).
//
// Three claims, one logical clock (every row is deterministic — same
// seed, same numbers, any machine):
//
//   1. A/B lead time: the SAME seeded ramp-into-storm scenario runs
//      twice, reactive-only (forecast disabled) vs predictive (forecast
//      enabled), identical otherwise. A delay ramp on path 1 climbs
//      strictly inside the 10 us SLO — where only a forecast can see
//      trouble — then jumps over it. The predictive controller pre-raises
//      replication while still in SLO, so by storm onset every sequence
//      already has a clean-path copy and the client-visible tail never
//      breaches; the reactive controller eats the onset windows before
//      its levers engage. Both "client breach windows" and "onset p99.9"
//      are computed bench-side from the rig's delivered-latency log with
//      identical bucketing for both runs.
//
//   2. False positives: pre-actuations must be confirmed by a reactive
//      breach. A calm soak (forecast live, clean wire: it must touch
//      NOTHING) gates at <= 5% FP with zero actuations; the storm run's
//      confirmed/false-positive split gates at <= 50% (a rescue that
//      works erases some of its own confirming evidence — docs/
//      FORECAST.md — so a majority-confirmed bar is the honest one).
//
//   3. Capacity (forecast::CapacityModel): a per-path load sweep replays
//      each run's recorded per-window tails through a TailEstimator; the
//      settled level at each load calibrates the monotone load -> tail
//      curve, which then answers "how many paths does total load L need
//      to hold SLO X" — including the honest 0 ("max_paths cannot hold
//      it") case.
//
// JSON rows (--json): schema mdp.bench_forecast.v1, gated hard by
// scripts/check_perf.py against BENCH_forecast.json (strict A/B wins,
// FP ceiling, calm-soak zero actuations).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chaos_harness.hpp"
#include "forecast/capacity.hpp"
#include "forecast/tail_estimator.hpp"
#include "stats/table.hpp"

using namespace mdp;

namespace {

constexpr std::uint64_t kSloNs = 10'000;
constexpr std::uint64_t kCtrlTickEvery = 64;
constexpr std::uint64_t kWindowNs = kCtrlTickEvery * 1'000;
constexpr std::uint64_t kStormFromIter = 8'000;
constexpr std::uint64_t kStormOnsetNs = kStormFromIter * 1'000;
// The onset span is the first 3 controller windows of the storm: the
// stretch before the reactive confirmation hands control to the
// quarantine/probation machinery, which behaves identically in both
// planes. This is precisely what the pre-hedge's lead time must cover.
constexpr std::uint64_t kOnsetSpanNs = 3 * kWindowNs;
constexpr double kViolationFraction = 0.25;
constexpr std::uint64_t kMinWindowSamples = 16;

/// The A/B scenario. Spraying mode (the multipath plane's normal
/// dispatch): flows are wide enough (96) that resequencer head-of-line
/// victims on the clean path stay under the violation threshold, so the
/// reactive judge quarantines the path that is actually slow. Path 1
/// ramps 2 -> 8 delay ticks in 2000-iteration (~31-window) steps — e2e
/// roughly (d + 1) us, strictly inside the 10 us SLO — then holds 12
/// (a reactive breach) from iteration 8000 to 16000. Late duplicate copies
/// feed the path SLO windows on BOTH runs (the rig always observes them),
/// so a successful pre-hedge cannot erase the evidence that confirms it.
chaos::ChaosScenarioConfig ab_cfg(bool predictive, bool storm) {
  chaos::ChaosScenarioConfig cfg;
  cfg.seed = 11;
  cfg.iterations = 20'000;
  cfg.flows = 96;
  cfg.num_paths = 2;
  cfg.packets_per_iter = 2;
  cfg.drain_per_iter = {8, 8};
  cfg.flow_affinity = false;
  cfg.ctrl_tick_every = kCtrlTickEvery;

  cfg.ctrl.slo_target_ns = kSloNs;
  cfg.ctrl.violation_threshold = kViolationFraction;
  cfg.ctrl.min_samples = kMinWindowSamples;
  cfg.ctrl.path.quarantine_after = 2;
  cfg.ctrl.path.probation_probes = 8;
  cfg.ctrl.probe_grant_per_tick = 8;
  cfg.ctrl.min_serving_paths = 1;
  cfg.ctrl.hedger.enabled = true;  // the lever BOTH controllers share
  cfg.ctrl.hedge_timeout.enabled = false;
  cfg.ctrl.forecast.enabled = predictive;
  // The pre-hedge fires a full ramp phase (~31 ticks) before the storm;
  // the default 8-tick confirmation window would expire a correct call
  // before the breach it predicted arrives. Lead time is the product —
  // the accounting window must be sized to cover it.
  cfg.ctrl.forecast.confirm_window_ticks = 48;

  io::LoopbackFaults base;
  base.delay_ticks = 2;
  cfg.phases.push_back({0, 1'000'000, 0, base});
  if (storm) {
    std::uint64_t from = 0;
    for (std::uint32_t d : {2u, 4u, 6u, 8u}) {
      cfg.phases.push_back({from, from + 2'000, 1, {.delay_ticks = d}});
      from += 2'000;
    }
    cfg.phases.push_back({from, 16'000, 1, {.delay_ticks = 12}});
    cfg.phases.push_back({16'000, 1'000'000, 1, base});
  } else {
    cfg.phases.push_back({0, 1'000'000, 1, base});
  }
  return cfg;
}

/// The capacity sweep: both paths clean (2-tick wire) plus a sparse
/// straggler lane (0.05% of packets held 10 extra ticks), judge and all
/// levers disarmed — pure measurement. Per-path offered load is
/// packets_per_iter / 2 against a drain budget of 4: the top load (4.5)
/// oversubscribes the drain, so its tail is queue growth, not wire — the
/// cliff the capacity answer exists to keep fleets off of.
chaos::ChaosScenarioConfig cap_cfg(std::uint64_t packets_per_iter) {
  chaos::ChaosScenarioConfig cfg;
  cfg.seed = 7;
  cfg.iterations = 8'000;
  cfg.flows = 96;
  cfg.num_paths = 2;
  cfg.packets_per_iter = packets_per_iter;
  cfg.drain_per_iter = {4, 4};
  cfg.flow_affinity = false;
  cfg.ctrl_tick_every = kCtrlTickEvery;
  cfg.pool_size = 32'768;
  cfg.ctrl.slo_target_ns = kSloNs;
  cfg.ctrl.violation_threshold = 1.1;  // judge disarmed: observe only
  cfg.ctrl.hedger.enabled = false;
  cfg.ctrl.hedge_timeout.enabled = false;
  io::LoopbackFaults lane;
  lane.delay_ticks = 2;
  lane.reorder_rate = 0.0005;
  lane.reorder_extra_ticks = 10;
  cfg.phases.push_back({0, 1'000'000, 0, lane});
  cfg.phases.push_back({0, 1'000'000, 1, lane});
  return cfg;
}

std::uint64_t exact_quantile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

/// Client-visible breach windows: bucket the delivered-latency series by
/// egress time into controller-tick windows and count the windows whose
/// SLO-violation fraction clears the same threshold the controller uses.
/// Identical arithmetic for both A/B runs — the rescue's effect on what
/// CLIENTS see, independent of the controller's own path accounting.
std::uint64_t client_breach_windows(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& log) {
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> win;
  for (const auto& [egress_ns, latency_ns] : log) {
    auto& [samples, violations] = win[egress_ns / kWindowNs];
    ++samples;
    if (latency_ns > kSloNs) ++violations;
  }
  std::uint64_t breached = 0;
  for (const auto& [idx, sv] : win) {
    const auto& [samples, violations] = sv;
    if (samples >= kMinWindowSamples &&
        static_cast<double>(violations) >
            kViolationFraction * static_cast<double>(samples))
      ++breached;
  }
  return breached;
}

/// Exact p99.9 of deliveries egressing inside the storm-onset span.
std::uint64_t onset_p999(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& log) {
  std::vector<std::uint64_t> lat;
  for (const auto& [egress_ns, latency_ns] : log)
    if (egress_ns >= kStormOnsetNs && egress_ns < kStormOnsetNs + kOnsetSpanNs)
      lat.push_back(latency_ns);
  return exact_quantile(std::move(lat), 0.999);
}

/// Replay a run's recorded per-window tails through a TailEstimator and
/// return the settled level: the steady-state tail with window noise
/// smoothed out (the calibration input docs/FORECAST.md specifies).
std::uint64_t settled_tail_ns(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& log) {
  std::map<std::uint64_t, std::vector<std::uint64_t>> win;
  for (const auto& [egress_ns, latency_ns] : log)
    win[egress_ns / kWindowNs].push_back(latency_ns);
  forecast::TailEstimator est(1);
  for (auto& [idx, lat] : win) {
    forecast::WindowSample w;
    w.samples = lat.size();
    w.p99_ns = exact_quantile(lat, 0.99);
    w.p999_ns = exact_quantile(std::move(lat), 0.999);
    est.observe(0, w);
  }
  return est.forecast(0).p999_ns;
}

std::string row_json(const std::string& row, double value, const char* unit,
                     const std::vector<std::pair<const char*, double>>&
                         extras = {}) {
  trace::JsonWriter w;
  w.begin_object();
  w.key("schema").value("mdp.bench_forecast.v1");
  w.key("row").value(row);
  w.key("value").value(value);
  w.key("unit").value(unit);
  w.key("wall_clock").value(false);
  for (const auto& [k, v] : extras) w.key(k).value(v);
  w.end_object();
  return w.take();
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReportSink sink("ext5_forecast", argc, argv);
  bench::banner("ext5_forecast",
                "predictive tail control: forecast A/B, FP budget, capacity");

  // --- 1. A/B: reactive-only vs predictive, same seeded storm -------------
  bench::note("ramp 2..8 delay ticks inside the 10 us SLO, then a 12-tick "
              "plateau; identical seed/wire both runs, only "
              "forecast.enabled differs");

  chaos::ChaosResult reactive = chaos::ChaosRig(ab_cfg(false, true)).run();
  chaos::ChaosResult predictive = chaos::ChaosRig(ab_cfg(true, true)).run();

  const std::uint64_t r_breach = client_breach_windows(reactive.latency_log);
  const std::uint64_t p_breach = client_breach_windows(predictive.latency_log);
  const std::uint64_t r_onset = onset_p999(reactive.latency_log);
  const std::uint64_t p_onset = onset_p999(predictive.latency_log);

  // Lead time: first forecast_prehedge tick vs first reactive quarantine.
  std::uint64_t prehedge_tick = 0, quarantine_tick = 0;
  bool saw_prehedge = false, saw_quarantine = false;
  for (const auto& d : predictive.decisions) {
    if (!saw_prehedge && std::string(d.reason) == "forecast_prehedge") {
      prehedge_tick = d.tick;
      saw_prehedge = true;
    }
    if (!saw_quarantine && d.path < ctrl::Decision::kTenant &&
        d.to == ctrl::PathState::kQuarantined) {
      quarantine_tick = d.tick;
      saw_quarantine = true;
    }
  }
  const std::uint64_t lead_ticks =
      (saw_prehedge && saw_quarantine && quarantine_tick > prehedge_tick)
          ? quarantine_tick - prehedge_tick
          : 0;

  const double storm_resolved = static_cast<double>(
      predictive.forecast_confirmed + predictive.forecast_false_positives);
  const double storm_fp =
      storm_resolved > 0.0
          ? static_cast<double>(predictive.forecast_false_positives) /
                storm_resolved
          : 0.0;
  const double dup_fraction =
      predictive.generated
          ? static_cast<double>(predictive.copies_sent -
                                predictive.generated) /
                static_cast<double>(predictive.generated)
          : 0.0;

  stats::Table ab({"metric", "reactive", "predictive"});
  ab.add_row({"client breach windows", stats::fmt_u64(r_breach),
              stats::fmt_u64(p_breach)});
  ab.add_row({"storm-onset p99.9", bench::us(r_onset), bench::us(p_onset)});
  ab.add_row({"ctrl breach windows (evidence)",
              stats::fmt_u64(reactive.breach_windows),
              stats::fmt_u64(predictive.breach_windows)});
  ab.add_row({"quarantines", stats::fmt_u64(reactive.quarantines),
              stats::fmt_u64(predictive.quarantines)});
  ab.add_row({"pre-hedges", "0",
              stats::fmt_u64(predictive.forecast_prehedges)});
  bench::print_table(ab);
  std::printf("-- pre-hedge lead over the reactive quarantine: %llu ticks; "
              "storm FP fraction %.3f; duplicate-copy overhead %.2fx\n",
              static_cast<unsigned long long>(lead_ticks), storm_fp,
              dup_fraction);

  if (predictive.forecast_prehedges == 0 || !saw_quarantine) {
    std::fprintf(stderr, "FATAL: A/B story did not materialize (prehedges "
                         "%llu, quarantine seen %d)\n",
                 static_cast<unsigned long long>(
                     predictive.forecast_prehedges),
                 saw_quarantine ? 1 : 0);
    return 1;
  }

  sink.add_raw("breach_windows_reactive",
               row_json("breach_windows_reactive",
                        static_cast<double>(r_breach), "windows"));
  sink.add_raw("breach_windows_predictive",
               row_json("breach_windows_predictive",
                        static_cast<double>(p_breach), "windows"));
  sink.add_raw("breach_windows_avoided",
               row_json("breach_windows_avoided",
                        static_cast<double>(r_breach - p_breach), "windows"));
  sink.add_raw("onset_p999_reactive",
               row_json("onset_p999_reactive", static_cast<double>(r_onset),
                        "logical_ns"));
  sink.add_raw("onset_p999_predictive",
               row_json("onset_p999_predictive", static_cast<double>(p_onset),
                        "logical_ns"));
  sink.add_raw("prehedge_lead_ticks",
               row_json("prehedge_lead_ticks",
                        static_cast<double>(lead_ticks), "ticks"));
  sink.add_raw("false_positive_fraction_storm",
               row_json("false_positive_fraction_storm", storm_fp, "fraction",
                        {{"confirmed",
                          static_cast<double>(predictive.forecast_confirmed)},
                         {"false_positives",
                          static_cast<double>(
                              predictive.forecast_false_positives)}}));
  sink.add_raw("predictive_duplicate_copy_fraction",
               row_json("predictive_duplicate_copy_fraction", dup_fraction,
                        "fraction"));

  // --- 2. Calm soak: a live forecast on a clean plane must touch nothing --
  chaos::ChaosResult calm = chaos::ChaosRig(ab_cfg(true, false)).run();
  const std::uint64_t calm_actuations = calm.forecast_prehedges +
                                        calm.forecast_probes +
                                        calm.forecast_prequarantines;
  const double calm_resolved = static_cast<double>(
      calm.forecast_confirmed + calm.forecast_false_positives);
  const double calm_fp =
      calm_resolved > 0.0
          ? static_cast<double>(calm.forecast_false_positives) / calm_resolved
          : 0.0;
  bench::note(calm_actuations == 0
                  ? "calm soak: zero forecast actuations [ok]"
                  : "calm soak: forecast ACTUATED on a clean plane");
  sink.add_raw("calm_forecast_actuations",
               row_json("calm_forecast_actuations",
                        static_cast<double>(calm_actuations), "actuations"));
  sink.add_raw("false_positive_fraction_calm",
               row_json("false_positive_fraction_calm", calm_fp, "fraction"));
  sink.add_raw("calm_breach_windows",
               row_json("calm_breach_windows",
                        static_cast<double>(client_breach_windows(
                            calm.latency_log)),
                        "windows"));

  // --- 3. Capacity: load sweep -> settled tails -> paths_needed -----------
  bench::note("per-path load sweep at drain 4/tick; settled estimator tail "
              "per load calibrates the capacity curve");

  const std::uint64_t loads_per_iter[] = {2, 4, 6, 9};
  forecast::CapacityModel model;
  stats::Table ct({"load/path", "settled tail p99.9"});
  for (std::uint64_t l : loads_per_iter) {
    chaos::ChaosResult res = chaos::ChaosRig(cap_cfg(l)).run();
    const double load_per_path = static_cast<double>(l) / 2.0;
    const std::uint64_t tail = settled_tail_ns(res.latency_log);
    model.add_observation(load_per_path, static_cast<double>(tail));
    ct.add_row({stats::fmt_double(load_per_path, 1), bench::us(tail)});
    char name[64];
    std::snprintf(name, sizeof(name), "capacity_tail_load_%llu",
                  static_cast<unsigned long long>(l));
    sink.add_raw(name, row_json(name, static_cast<double>(tail), "logical_ns",
                                {{"load_per_path", load_per_path}}));
  }
  model.finalize();
  bench::print_table(ct);

  struct CapQuery {
    const char* name;
    double total_load;
    std::uint64_t slo_ns;
    std::size_t max_paths;
  };
  const CapQuery queries[] = {
      {"capacity_paths_load9_slo10us", 9.0, kSloNs, 8},
      {"capacity_paths_load18_slo10us", 18.0, kSloNs, 8},
      {"capacity_paths_load18_slo10us_max4", 18.0, kSloNs, 4},
  };
  for (const CapQuery& q : queries) {
    const std::size_t k = model.paths_needed(q.total_load, q.slo_ns,
                                             q.max_paths);
    std::printf("-- paths_needed(load %.0f/tick, slo %s, max %zu) = %zu%s\n",
                q.total_load, bench::us(q.slo_ns).c_str(), q.max_paths, k,
                k == 0 ? " (cannot hold the SLO)" : "");
    sink.add_raw(q.name,
                 row_json(q.name, static_cast<double>(k), "paths",
                          {{"total_load_per_tick", q.total_load},
                           {"slo_ns", static_cast<double>(q.slo_ns)},
                           {"max_paths", static_cast<double>(q.max_paths)}}));
  }

  return sink.flush() ? 0 : 1;
}

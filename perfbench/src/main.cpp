// perfbench: one workload, one seed, one run; the last line of stdout is
// the JSON result (correct, attempted, failed, metrics). Progress and
// diagnostics go to stderr.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//   perfbench --self-test
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.hpp"

using namespace perfbench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed by an untraced run, on every workload.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},      {"ns_per_pkt", "ns"}, {"peak_rss_mib", "MiB"},
    {"lat_p50_us", "us"},  {"lat_tail_us", "us"},
};

// Printed by a traced run, on every workload. A layer the workload
// bypasses reports 0 (no work, no time), so every run prints the same set.
constexpr MetricDef kPerLayer[] = {
    {"workload.gen_ns_per_pkt", "ns"},
    {"net.allocs_per_pkt", "count"},
    {"net.clones_per_pkt", "count"},
    {"net.pool_peak_in_use", "count"},
    {"sim.events_per_pkt", "count"},
    {"sim.event_ns", "ns"},
    {"sim.heap_peak", "count"},
    {"core.ingress_ns_per_pkt", "ns"},
    {"core.sched.select_ns", "ns"},
    {"core.copies_per_pkt", "count"},
    {"core.hedges_per_pkt", "count"},
    {"core.repl.flows_replicated_frac", "ratio"},
    {"nf.chain_ns_per_pkt", "ns"},
    {"nf.filtered_frac", "ratio"},
    {"core.merge_ns_per_copy", "ns"},
    {"core.end_flow_ns", "ns"},
    {"core.dedup.pending_peak", "count"},
    {"core.dedup.late_drops", "count"},
    {"core.reorder.ooo_frac", "ratio"},
    {"core.reorder.timeout_releases", "count"},
    {"core.reorder.late_after_skip", "count"},
    {"core.reorder.dwell_p99_us", "us"},
    {"core.dup_byte_frac", "ratio"},
    {"ctrl.tick_ns", "ns"},
    {"ctrl.observe_ns_per_pkt", "ns"},
    {"ctrl.decisions", "count"},
    {"rt.pump_ns_per_pkt", "ns"},
    {"rt.queue_wait_p50_ns", "ns"},
    {"rt.service_p50_ns", "ns"},
    {"rt.merge_wait_p50_ns", "ns"},
    {"rt.rejected_frac", "ratio"},
    {"rt.gen_late_p99_us", "us"},
    {"rt.lat_p99_us", "us"},
    {"io.rx_ns_per_pkt", "ns"},
    {"io.tx_ns_per_pkt", "ns"},
    {"model.p50_us", "us"},
    {"model.p999_us", "us"},
    {"model.lc_p999_us", "us"},
    {"model.fct_p50_us", "us"},
    {"model.short_fct_p99_us", "us"},
    {"ledger.unattributed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"host.ref_ns", "ns"},
    {"host.ref_mem_ns", "ns"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <sim_noisy_neighbor|"
               "sim_flow_churn|rt_loopback> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n"
               "       perfbench --self-test\n");
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  bool have_workload = false, have_seed = false, have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      const auto failures = self_test();
      for (const auto& f : failures)
        std::fprintf(stderr, "FAIL %s\n", f.c_str());
      std::printf("self-test: %s\n", failures.empty() ? "ok" : "FAILED");
      return failures.empty() ? 0 : 1;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !v.empty();
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end && *end == '\0' && opt.seconds > 0;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage();
      opt.trace = v == "1";
      have_trace = true;
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage();

  RunResult (*run)(const RunOptions&) = nullptr;
  if (opt.workload == "sim_noisy_neighbor") run = run_sim_noisy_neighbor;
  else if (opt.workload == "sim_flow_churn") run = run_sim_flow_churn;
  else if (opt.workload == "rt_loopback") run = run_rt_loopback;
  else return usage();

  // The statistics and the oracle check themselves before they are used.
  const auto self_failures = self_test();
  RunResult res = run(opt);
  for (const auto& f : self_failures) res.fail("self-test: " + f);

  std::string metrics;
  const auto add = [&](const MetricDef& d) {
    double v = 0;
    auto it = res.metrics.find(d.name);
    if (it != res.metrics.end()) v = it->second.value;
    if (!std::isfinite(v)) {
      res.fail(std::string("non-finite value for ") + d.name);
      v = 0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(d.name) + ": {\"value\": " + buf +
               ", \"unit\": " + json_string(d.unit) + "}";
  };
  if (opt.trace) {
    for (const auto& d : kPerLayer) add(d);
  } else {
    for (const auto& d : kEndToEnd) {
      if (!res.metrics.count(d.name))
        res.fail(std::string("workload did not measure ") + d.name);
      add(d);
    }
  }
  for (const auto& p : res.problems)
    std::fprintf(stderr, "problem: %s\n", p.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              res.correct && res.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), metrics.c_str());
  return 0;
}

// Extension experiment 4: the million-flow multi-tenant tier
// (docs/TENANCY.md).
//
// Two claims, two methodologies:
//
//   1. Capacity (wall clock): nf::FlowTable holds 1M+ concurrent flows in
//      memory allocated once at construction, with insert / lookup /
//      eviction-churn costs flat enough to sit on a per-packet path. Each
//      row is the median of 5 repetitions, each on a fresh table.
//
//   2. Isolation (logical clock): a tenant whose connection storm offers
//      ~3x the plane's drain budget is throttled and shed by
//      ctrl::TenantAdmission before its backlog poisons the victim
//      tenant's tail. The victim's EXACT p99.9 is reported for the storm
//      off / storm+admission / storm-without-admission triple: the first
//      two must sit inside the victim's SLO, the third shows the
//      contagion the admission stage exists to prevent. Logical-clock
//      rows are deterministic — same seed, same numbers, any machine.
//
// JSON rows (--json): schema mdp.bench_tenants.v1, gated by
// scripts/check_perf.py against BENCH_tenants.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chaos_harness.hpp"
#include "nf/flow_table.hpp"
#include "stats/table.hpp"

using namespace mdp;

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

net::FlowKey flow_n(std::uint32_t n) {
  return net::FlowKey{0x0b000000 + n, 0x0a006401,
                      static_cast<std::uint16_t>(1000 + n % 60000), 80, 6};
}

struct MicroRow {
  const char* op;
  std::uint64_t ops;
  std::uint64_t elapsed_ns;
  double ns_per_op() const {
    return static_cast<double>(elapsed_ns) / static_cast<double>(ops);
  }
};

std::string micro_row_json(const MicroRow& r, int repetitions) {
  trace::JsonWriter w;
  w.begin_object();
  w.key("schema").value("mdp.bench_tenants.v1");
  w.key("row").value(std::string("flowtable_") + r.op);
  w.key("ops").value(r.ops);
  w.key("value").value(r.ns_per_op());
  w.key("unit").value("ns_per_op");
  w.key("wall_clock").value(true);
  w.key("repetitions").value(repetitions);
  w.end_object();
  return w.take();
}

/// The storm scenario behind the isolation rows: tenant 0 ("storm")
/// ramps to ~3x the plane's total drain budget; tenant 1 ("victim")
/// keeps a steady in-budget load with a 50 us logical SLO.
chaos::ChaosScenarioConfig storm_cfg(bool storm_on, bool admission_on) {
  chaos::ChaosScenarioConfig cfg;
  cfg.seed = 5;
  cfg.iterations = 25'000;
  cfg.num_paths = 2;
  cfg.drain_per_iter = {4, 4};
  cfg.packets_per_iter = 0;
  cfg.pool_size = 32'768;
  cfg.ctrl.slo_target_ns = 50'000;
  cfg.ctrl.hedger.enabled = false;
  cfg.ctrl.hedge_timeout.enabled = false;
  // A constant 2-tick wire delay on both paths: every packet has a real
  // (nonzero) base latency, so the victim's p99.9 is a meaningful number
  // rather than "delivered in the same logical tick".
  io::LoopbackFaults base_wire;
  base_wire.delay_ticks = 2;
  cfg.phases.push_back({0, 1'000'000, 0, base_wire});
  cfg.phases.push_back({0, 1'000'000, 1, base_wire});

  chaos::ChaosScenarioConfig::TenantTraffic a;
  a.storm.base_arrivals_per_tick = 0.05;
  a.storm.conn_lifetime_ticks = 32;
  if (storm_on) {
    a.storm.storm_from = 3'000;
    a.storm.storm_to = 22'000;
    a.storm.storm_peak_arrivals_per_tick = 20.0;
  }
  a.spec.name = "storm";
  // Budget 0 = uncontracted: the admission stage never judges the tenant
  // storming — the "what if we had no admission" ablation.
  a.spec.arrival_budget_per_tick = admission_on ? 320 : 0;
  a.spec.throttle_keep_one_in = 8;
  a.packets_per_iter = 2;

  chaos::ChaosScenarioConfig::TenantTraffic b;
  b.storm.base_arrivals_per_tick = 0.2;
  b.storm.conn_lifetime_ticks = 2'000;
  b.spec.name = "victim";
  b.spec.arrival_budget_per_tick = 1'000;
  b.packets_per_iter = 2;

  cfg.tenants = {a, b};
  cfg.tenant_ctrl.throttle_after = 2;
  cfg.tenant_ctrl.shed_after = 2;
  cfg.tenant_ctrl.cooldown_windows = 4;
  cfg.tenant_ctrl.probation_windows = 4;
  return cfg;
}

std::uint64_t exact_quantile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

struct StormRow {
  const char* label;
  std::uint64_t victim_p999_ns;
  std::uint64_t victim_samples;
  std::uint64_t sheds;
  std::uint64_t dropped;
};

std::string storm_row_json(const StormRow& r, std::uint64_t slo_ns) {
  trace::JsonWriter w;
  w.begin_object();
  w.key("schema").value("mdp.bench_tenants.v1");
  w.key("row").value(std::string("victim_p999_") + r.label);
  w.key("value").value(static_cast<double>(r.victim_p999_ns));
  w.key("unit").value("logical_ns");
  w.key("wall_clock").value(false);
  w.key("slo_target_ns").value(slo_ns);
  w.key("victim_samples").value(r.victim_samples);
  w.key("tenant_sheds").value(r.sheds);
  w.key("tenant_dropped").value(r.dropped);
  w.end_object();
  return w.take();
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReportSink sink("ext4_tenants", argc, argv);
  bench::banner("ext4_tenants",
                "million-flow tenancy: FlowTable capacity + storm isolation");

  // --- 1. FlowTable at 1M+ flows (wall clock) -----------------------------
  // Each repetition times all three phases on a fresh table; a row reports
  // the median repetition, so one descheduled run cannot move it.
  constexpr std::size_t kCap = 1u << 20;  // 1,048,576
  constexpr std::uint32_t kChurn = kCap / 4;
  constexpr int kReps = 5;
  bench::note("FlowTable capacity 1,048,576; memory allocated once; churn "
              "inserts recycle via second-chance eviction; median of 5 "
              "fresh-table repetitions");

  std::vector<MicroRow> micro = {{"insert_1m", kCap, 0},
                                 {"lookup_1m", kCap, 0},
                                 {"churn_insert", kChurn, 0}};
  std::vector<std::vector<std::uint64_t>> elapsed(micro.size());
  for (int rep = 0; rep < kReps; ++rep) {
    nf::FlowTable<std::uint64_t> table(kCap);
    std::uint64_t t0 = now_ns();
    for (std::uint32_t i = 0; i < kCap; ++i) table.insert(flow_n(i), i & 3, i);
    elapsed[0].push_back(now_ns() - t0);

    t0 = now_ns();
    std::uint64_t hits = 0;
    for (std::uint32_t i = 0; i < kCap; ++i)
      hits += table.find(flow_n(i)) != nullptr;
    elapsed[1].push_back(now_ns() - t0);

    t0 = now_ns();
    for (std::uint32_t i = kCap; i < kCap + kChurn; ++i)
      table.insert(flow_n(i), i & 3, i);
    elapsed[2].push_back(now_ns() - t0);

    if (table.size() != kCap || hits != kCap) {
      std::fprintf(stderr, "FATAL: 1M-flow bound or lookup integrity broke "
                           "(size %zu, hits %llu)\n",
                   table.size(), static_cast<unsigned long long>(hits));
      return 1;
    }
    if (rep == kReps - 1)
      std::printf("-- size after churn: %zu (bound held: yes), lookup hits "
                  "%llu, evictions %llu\n",
                  table.size(), static_cast<unsigned long long>(hits),
                  static_cast<unsigned long long>(table.evictions()));
  }

  stats::Table mt({"operation", "ops", "ns/op (median)", "min", "max"});
  for (std::size_t r = 0; r < micro.size(); ++r) {
    auto& e = elapsed[r];
    std::sort(e.begin(), e.end());
    micro[r].elapsed_ns = e[e.size() / 2];
    const auto per_op = [&](std::uint64_t ns) {
      return stats::fmt_double(
          static_cast<double>(ns) / static_cast<double>(micro[r].ops), 1);
    };
    mt.add_row({micro[r].op, stats::fmt_u64(micro[r].ops),
                per_op(micro[r].elapsed_ns), per_op(e.front()),
                per_op(e.back())});
    sink.add_raw(std::string("flowtable_") + micro[r].op,
                 micro_row_json(micro[r], kReps));
  }
  bench::print_table(mt);

  // --- 2. Storm isolation (logical clock, deterministic) ------------------
  bench::note("storm tenant ramps to ~3x drain budget; victim SLO 50,000 "
              "logical ns; p99.9 exact (full per-tenant latency log)");

  struct Scenario {
    const char* label;
    bool storm_on;
    bool admission_on;
  };
  const Scenario scenarios[] = {
      {"storm_off", false, true},
      {"storm_on_admission", true, true},
      {"storm_on_no_admission", true, false},
  };

  stats::Table st({"scenario", "victim p99.9", "victim samples",
                   "sheds", "dropped@door"});
  std::vector<StormRow> rows;
  for (const Scenario& s : scenarios) {
    chaos::ChaosRig rig(storm_cfg(s.storm_on, s.admission_on));
    chaos::ChaosResult r = rig.run();
    StormRow row;
    row.label = s.label;
    row.victim_p999_ns = exact_quantile(r.tenant_latencies[1], 0.999);
    row.victim_samples = r.tenant_latencies[1].size();
    row.sheds = r.tenant_sheds;
    row.dropped = r.tenant_dropped;
    rows.push_back(row);
    st.add_row({s.label, bench::us(row.victim_p999_ns),
                stats::fmt_u64(row.victim_samples),
                stats::fmt_u64(row.sheds), stats::fmt_u64(row.dropped)});
    sink.add_raw(std::string("victim_p999_") + s.label,
                 storm_row_json(row, 50'000));
  }
  bench::print_table(st);

  const double contagion =
      static_cast<double>(rows[2].victim_p999_ns) /
      static_cast<double>(std::max<std::uint64_t>(rows[1].victim_p999_ns, 1));
  std::printf("-- contagion factor (no admission / admission): %.1fx\n",
              contagion);
  bench::note(rows[1].victim_p999_ns <= 50'000
                  ? "victim SLO held under storm with admission [ok]"
                  : "victim SLO BREACHED under storm with admission");

  return sink.flush() ? 0 : 1;
}

// Extension experiment 1: closed-loop path failure handling.
//
// A path silently blackholes (hypervisor wedges its core) mid-run. Two
// variants of the same run:
//   none    — no detection: every packet RSS hashes onto path 2 is stuck
//             until the stall ends (the path looks IDLE — theft is
//             invisible to backlog-blind dispatch).
//   ctrl    — mdp::ctrl Controller, ticking every 250us: the blackhole
//             produces NO completions, so the SLO windows are empty;
//             detection comes from the backlog_limit arm (work that never
//             comes back), then the full quarantine -> drain -> probation
//             -> reinstate loop runs against the stall.
//
// With --json, emits one mdp.bench_failover.v1 row per variant (plus the
// ctrl variant's decision log) so the recovery numbers are scriptable.
#include "bench_common.hpp"
#include "core/dataplane.hpp"
#include "ctrl/controller.hpp"
#include "net/packet_builder.hpp"
#include "workload/traffic_gen.hpp"

using namespace mdp;

namespace {

enum class Variant { kNone, kCtrl };

constexpr sim::TimeNs kFailAt = 20 * sim::kMillisecond;
constexpr sim::TimeNs kFailFor = 30 * sim::kMillisecond;
/// Controller tick period: two backlog breaches (quarantine_after) land
/// within ~500us of the blackhole.
constexpr sim::TimeNs kTickNs = 250'000;

struct Result {
  stats::LatencyHistogram latency;
  std::uint64_t egressed = 0;
  std::uint64_t emitted = 0;
  std::uint64_t stuck_on_failed_path = 0;
  sim::TimeNs detect_ns = 0;   // blackhole start -> masked
  sim::TimeNs recover_ns = 0;  // blackhole end -> serving again
  std::string ctrl_report;     // ctrl variant only
};

Result run(Variant variant) {
  sim::EventQueue eq;
  net::PacketPool pool(8192, 2048);
  core::DataPlaneConfig cfg;
  cfg.num_paths = 4;
  core::MdpDataPlane dp(eq, pool, cfg, core::make_scheduler("rss"));

  Result res;

  // The controller variant: no completions arrive from a blackholed path,
  // so the SLO arm is blind — backlog_limit (stuck work) is the detector.
  // Probation probes ride the stalled core, so reinstatement happens only
  // once the core genuinely serves again.
  std::unique_ptr<ctrl::SloMonitor> slo_mon;
  std::unique_ptr<ctrl::SimPlaneActuator> actuator;
  std::unique_ptr<ctrl::Controller> controller;
  if (variant == Variant::kCtrl) {
    ctrl::Config ccfg;
    ccfg.slo_target_ns = 500'000;
    ccfg.violation_threshold = 0.25;
    ccfg.min_samples = 8;
    ccfg.backlog_limit = 16;
    ccfg.path.quarantine_after = 2;
    ccfg.path.probation_probes = 8;
    ccfg.probe_grant_per_tick = 8;
    ccfg.min_serving_paths = 2;
    slo_mon = std::make_unique<ctrl::SloMonitor>(cfg.num_paths,
                                                 ccfg.slo_target_ns);
    actuator = std::make_unique<ctrl::SimPlaneActuator>(eq, dp, *slo_mon);
    controller = std::make_unique<ctrl::Controller>(ccfg, *actuator,
                                                    *slo_mon);
    struct Ticker {
      static void arm(sim::EventQueue& eq, ctrl::Controller& c,
                      Result& res) {
        eq.schedule_in(kTickNs, [&eq, &c, &res] {
          const std::uint64_t q = c.quarantines();
          const std::uint64_t r = c.reinstatements();
          c.tick(static_cast<std::uint64_t>(eq.now()));
          if (c.quarantines() > q && res.detect_ns == 0)
            res.detect_ns = eq.now() - kFailAt;
          if (c.reinstatements() > r && res.recover_ns == 0 &&
              eq.now() > kFailAt + kFailFor)
            res.recover_ns = eq.now() - (kFailAt + kFailFor);
          arm(eq, c, res);
        });
      }
    };
    Ticker::arm(eq, *controller, res);
  }

  dp.set_egress([&](net::PacketPtr p) {
    if (slo_mon)
      slo_mon->observe(p->anno().path_id,
                       p->anno().egress_ns - p->anno().ingress_ns);
    res.latency.record(p->anno().egress_ns - p->anno().ingress_ns);
    ++res.egressed;
  });

  // The blackhole: invisible theft pinning path 2 for 30ms.
  eq.schedule_at(kFailAt, [&] {
    dp.core(2).submit(kFailFor, [](sim::TimeNs) {}, true, false);
  });

  workload::TrafficGenConfig tg;
  tg.seed = 5;
  workload::TrafficGen gen(
      eq, pool, tg, std::make_unique<workload::PoissonArrivals>(600.0),
      [&](net::PacketPtr pkt) { dp.ingress(std::move(pkt)); });
  gen.start(120'000);

  eq.run_until(150 * sim::kMillisecond);
  res.emitted = gen.emitted();
  // Packets dispatched to path 2 during the blackhole = stuck.
  res.stuck_on_failed_path =
      dp.monitor().dispatched(2) - dp.monitor().completed(2) +
      0;  // residual inflight at horizon
  if (controller) res.ctrl_report = controller->report_json();
  return res;
}

std::string row_json(const char* variant, const Result& r) {
  trace::JsonWriter w;
  w.begin_object();
  w.key("schema").value("mdp.bench_failover.v1");
  w.key("variant").value(variant);
  w.key("fail_at_ns").value(static_cast<std::uint64_t>(kFailAt));
  w.key("fail_for_ns").value(static_cast<std::uint64_t>(kFailFor));
  w.key("detect_ns").value(static_cast<std::uint64_t>(r.detect_ns));
  w.key("recover_ns").value(static_cast<std::uint64_t>(r.recover_ns));
  w.key("p99_ns").value(r.latency.p99());
  w.key("p999_ns").value(r.latency.p999());
  w.key("max_ns").value(r.latency.max());
  w.key("emitted").value(r.emitted);
  w.key("egressed").value(r.egressed);
  w.key("stuck_on_failed_path").value(r.stuck_on_failed_path);
  if (!r.ctrl_report.empty()) w.key("ctrl").raw(r.ctrl_report);
  w.end_object();
  return w.take();
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Ext 1", "Silent path blackhole (30ms on path 2 of 4): "
                         "no detection vs mdp::ctrl "
                         "(RSS static hashing, ~1.7 Mpps)");
  bench::JsonReportSink sink("ext1", argc, argv);

  auto off = run(Variant::kNone);
  auto ctrl = run(Variant::kCtrl);
  sink.add_raw("none", row_json("none", off));
  sink.add_raw("ctrl", row_json("ctrl", ctrl));

  stats::Table t({"metric", "no detection", "mdp::ctrl"});
  t.add_row({"p99", bench::us(off.latency.p99()),
             bench::us(ctrl.latency.p99())});
  t.add_row({"p99.9", bench::us(off.latency.p999()),
             bench::us(ctrl.latency.p999())});
  t.add_row({"max latency", bench::us(off.latency.max()),
             bench::us(ctrl.latency.max())});
  t.add_row({"egressed", stats::fmt_u64(off.egressed),
             stats::fmt_u64(ctrl.egressed)});
  t.add_row({"failure detection", "-", bench::us(ctrl.detect_ns)});
  t.add_row({"recovery detection", "-", bench::us(ctrl.recover_ns)});
  bench::print_table(t);
  bench::note("ctrl detection = ticks until backlog_limit breaches twice "
              "(a blackhole makes no completions, so the SLO arm is "
              "blind); ctrl recovery includes drain + probation");
  return sink.flush() ? 0 : 1;
}

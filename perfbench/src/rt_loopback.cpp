// rt_loopback: the real-thread plane (ThreadedDataPlane, 2 paths, burst 32,
// flight recorder attached) fed real frames over a LoopbackBackend pair.
// The caller thread is the traffic generator, the plane's pump() and the
// receiving peer; with two workers and the collector that is four threads.
//
// Each repetition: set-up, then an open-loop phase at a fixed absolute
// rate well below saturation (latency timed from each frame's due time),
// then a saturated closed-loop phase (a fixed window of frames
// recirculated as fast as the plane returns them).
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <thread>

#include "common.hpp"
#include "core/threaded_dataplane.hpp"
#include "io/loopback_backend.hpp"
#include "net/packet_builder.hpp"
#include "telem/flight_recorder.hpp"

namespace perfbench {
namespace {

using namespace mdp;

constexpr std::size_t kPaths = 2;
constexpr std::size_t kBurst = 32;
constexpr std::size_t kFlows = 64;
constexpr std::size_t kPayload = 64;
/// Open-loop rate and length. 0.1 Mpps is about a thirtieth of what the
/// plane sustains saturated on a 4-vCPU host, so frames rarely queue
/// behind one another; across runs its latencies repeated better than
/// at 0.5 Mpps (see NOTES.md).
constexpr double kPacedPps = 100'000;
constexpr std::uint64_t kPacedFrames = 40'000;  // 0.4 s at kPacedPps
/// Closed-loop window (well under every ring and slot-pool bound, so the
/// plane never has to refuse a frame) and phase length.
constexpr std::size_t kWindow = 1024;
constexpr std::uint64_t kSaturatedNs = 300'000'000;
/// A phase that makes no progress for this long is abandoned; whatever
/// is missing then counts as lost.
constexpr std::uint64_t kStallNs = 5'000'000'000;
/// Frame-state entries reserved for one saturated phase (about twice what
/// the plane delivers in kSaturatedNs on a 4-vCPU host).
constexpr std::size_t kSaturatedFrameCap = std::size_t{1} << 22;
/// Frames the generator may stage ahead of the wire in one iteration.
constexpr std::size_t kMaxTx = 4 * kBurst;

net::FlowKey flow_key(std::size_t f) {
  return {0x0b000001 + static_cast<std::uint32_t>(f), 0x0a006401,
          static_cast<std::uint16_t>(2000 + f), 4789, 0};
}

/// PacketBackend decorator that times rx_burst/tx_burst into the ledger
/// (io layer, children of rt.pump).
class TimedBackend final : public io::PacketBackend {
 public:
  TimedBackend(io::PacketBackend& inner, SpanLedger& ledger)
      : inner_(inner), ledger_(ledger), rx_id_(ledger.layer("io.rx")),
        tx_id_(ledger.layer("io.tx")), pump_id_(ledger.layer("rt.pump")) {}
  const io::BackendCaps& caps() const noexcept override {
    return inner_.caps();
  }
  bool start(std::string* err) override { return inner_.start(err); }
  void stop() override { inner_.stop(); }
  std::size_t rx_burst(std::span<net::PacketPtr> out) override {
    const std::uint64_t t0 = wall_ns();
    const std::size_t n = inner_.rx_burst(out);
    ledger_.record(rx_id_, t0, wall_ns(), pump_id_, n);
    return n;
  }
  std::size_t tx_burst(std::span<net::PacketPtr> pkts) override {
    const std::uint64_t t0 = wall_ns();
    const std::size_t n = inner_.tx_burst(pkts);
    ledger_.record(tx_id_, t0, wall_ns(), pump_id_, n);
    return n;
  }

 private:
  io::PacketBackend& inner_;
  SpanLedger& ledger_;
  int rx_id_, tx_id_, pump_id_;
};

struct RepResult {
  std::uint64_t setup_ns = 0;
  double sat_ns_per_pkt = 0;
  std::uint64_t sat_delivered = 0;
  std::uint64_t sat_wall_ns = 0;
  /// Saturated-phase span totals: rt.pump, workload.drive, io.rx, io.tx.
  std::array<std::uint64_t, 4> sat_spans{};
  std::vector<double> lat_ns;      ///< paced phase, from due time
  std::vector<double> gen_late_ns; ///< paced phase, tx time - due time
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t submitted = 0;
  std::uint64_t allocs = 0;
  std::uint64_t paths_dispatched = 0;
  std::size_t pool_peak = 0;
  std::uint64_t reordered = 0;  ///< open loop, against per-flow order
  bool leak = false;
  double queue_wait_p50 = 0, service_p50 = 0, merge_wait_p50 = 0;
};

/// Gives the caller (generator, pump() and receiving peer) a CPU of its
/// own: created before the plane starts, it narrows the caller to every
/// CPU but the lowest, so the plane's threads inherit that set; pin()
/// then moves the caller alone onto the lowest CPU. Every repetition so
/// runs with the same placement. Restores the caller's CPU set on
/// destruction (the plane's threads end with the plane).
class CpuSplit {
 public:
  CpuSplit() {
    CPU_ZERO(&saved_);
    if (pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_))
      return;
    CPU_ZERO(&first_);
    cpu_set_t rest = saved_;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &saved_)) continue;
      CPU_SET(c, &first_);
      CPU_CLR(c, &rest);
      break;
    }
    // With a single CPU there is nothing to split.
    if (CPU_COUNT(&rest) == 0) return;
    active_ = set(rest);
  }
  void pin() {
    if (active_) set(first_);
  }
  ~CpuSplit() {
    if (active_) set(saved_);
  }
  CpuSplit(const CpuSplit&) = delete;
  CpuSplit& operator=(const CpuSplit&) = delete;

 private:
  static bool set(const cpu_set_t& cpus) {
    return pthread_setaffinity_np(pthread_self(), sizeof(cpus), &cpus) == 0;
  }

  cpu_set_t saved_, first_;
  bool active_ = false;
};

RepResult run_rep(std::uint64_t seed, SpanLedger* ledger) {
  RepResult out;
  const int gen_id = ledger ? ledger->layer("workload.gen") : -1;
  const int pump_id = ledger ? ledger->layer("rt.pump") : -1;
  const int drive_id = ledger ? ledger->layer("workload.drive") : -1;

  // --- set-up -----------------------------------------------------------
  const std::uint64_t t_setup = wall_ns();
  net::PacketPool pool(4096, 2048, /*allow_growth=*/false);
  telem::FlightRecorder recorder;
  io::LoopbackConfig lc;
  lc.seed = seed;
  auto [driver, plane_end] = io::LoopbackBackend::make_pair(lc);
  std::unique_ptr<TimedBackend> timed;
  if (ledger) timed = std::make_unique<TimedBackend>(*plane_end, *ledger);
  core::ThreadedConfig cfg;
  cfg.num_paths = kPaths;
  cfg.payload_bytes = kPayload;
  cfg.work_iterations = 1;
  cfg.policy = "jsq";
  cfg.burst_size = kBurst;
  cfg.backend = timed ? static_cast<io::PacketBackend*>(timed.get())
                      : plane_end.get();
  cfg.recorder = &recorder;
  cfg.record_stage_hist = ledger != nullptr;
  std::uint64_t expected_digest[kFlows];
  {
    CpuSplit cpus;
    core::ThreadedDataPlane dp(cfg, nullptr);
    dp.start();
    cpus.pin();
    for (std::size_t f = 0; f < kFlows; ++f) {
      net::BuildSpec spec;
      spec.flow = flow_key(f);
      spec.payload_len = kPayload;
      spec.payload_fill = static_cast<std::uint8_t>(0x40 + f);
      expected_digest[f] = payload_digest(*net::build_udp(pool, spec));
    }
    out.setup_ns = wall_ns() - t_setup;

    auto build = [&](std::uint64_t seq) {
      const std::size_t f = seq % kFlows;
      net::BuildSpec spec;
      spec.flow = flow_key(f);
      spec.payload_len = kPayload;
      spec.payload_fill = static_cast<std::uint8_t>(0x40 + f);
      net::PacketPtr p = net::build_udp(pool, spec);
      if (p) {
        p->anno().flow_id = static_cast<std::uint32_t>(f);
        p->anno().seq = seq;
      }
      return p;
    };
    // Receive side of the peer: exactly-once and payload checks against
    // a per-frame state table (0 unsent, 1 in flight, 2 delivered).
    std::vector<std::uint8_t> state;
    auto check = [&](const net::Packet& p) {
      const auto& a = p.anno();
      if (a.seq >= state.size() || state[a.seq] != 1 ||
          a.flow_id >= kFlows) {
        ++out.failed;  // duplicate, never sent, or mangled annotations
        return;
      }
      state[a.seq] = 2;
      if (payload_digest(p) != expected_digest[a.flow_id]) ++out.failed;
    };
    auto pump = [&] {
      const std::uint64_t t0 = ledger ? wall_ns() : 0;
      const std::size_t n = dp.pump();
      if (ledger) ledger->record(pump_id, t0, wall_ns(), -1, n);
      return n;
    };

    net::PacketPtr rx[core::ThreadedDataPlane::kMaxBurst];
    std::vector<net::PacketPtr> tx;
    tx.reserve(kMaxTx);

    // --- open-loop phase ------------------------------------------------
    state.assign(kPacedFrames, 0);
    const double interval = 1e9 / kPacedPps;
    const std::uint64_t t_start = wall_ns() + 1000;
    std::uint64_t sent = 0, received = 0, last_progress = wall_ns();
    std::uint64_t last_seq_by_flow[kFlows];
    std::fill(std::begin(last_seq_by_flow), std::end(last_seq_by_flow), 0);
    out.lat_ns.reserve(kPacedFrames);
    out.gen_late_ns.reserve(kPacedFrames);
    const std::uint64_t rejected0 = dp.rejected();
    while (received + (dp.rejected() - rejected0) < kPacedFrames) {
      std::uint64_t now = wall_ns();
      while (sent < kPacedFrames &&
             t_start + static_cast<std::uint64_t>(
                           static_cast<double>(sent) * interval) <= now &&
             tx.size() < kMaxTx) {
        const std::uint64_t due =
            t_start +
            static_cast<std::uint64_t>(static_cast<double>(sent) * interval);
        const std::uint64_t g0 = ledger ? wall_ns() : 0;
        net::PacketPtr p = build(sent);
        if (ledger) ledger->record(gen_id, g0, wall_ns(), -1, sent);
        if (!p) break;
        p->anno().ingress_ns = due;
        state[sent] = 1;
        tx.push_back(std::move(p));
        out.gen_late_ns.push_back(static_cast<double>(now - due));
        ++sent;
      }
      if (!tx.empty()) {
        const std::size_t n = driver->tx_burst(tx);
        tx.erase(tx.begin(), tx.begin() + static_cast<long>(n));
      }
      pump();
      const std::size_t n = driver->rx_burst(rx);
      now = wall_ns();
      for (std::size_t i = 0; i < n; ++i) {
        const auto& a = rx[i]->anno();
        out.lat_ns.push_back(static_cast<double>(now - a.ingress_ns));
        check(*rx[i]);
        if (a.flow_id < kFlows) {
          if (a.seq < last_seq_by_flow[a.flow_id]) ++out.reordered;
          last_seq_by_flow[a.flow_id] = a.seq;
        }
        rx[i].reset();
      }
      received += n;
      if (n) last_progress = now;
      if (now - last_progress > kStallNs) break;
    }
    out.attempted += kPacedFrames;
    for (std::uint8_t s : state) out.failed += s != 2;  // lost or refused

    // --- saturated closed-loop phase ---------------------------------------
    // Sized once for more frames than a saturated phase delivers, so the
    // table's growth never shows in peak_rss_mib.
    std::uint64_t next_seq = 0;
    state.assign(kSaturatedFrameCap, 0);
    auto tag = [&](net::Packet& p) {
      if (next_seq >= state.size()) state.resize(state.size() * 2, 0);
      p.anno().seq = next_seq;
      state[next_seq++] = 1;
    };
    for (std::size_t i = 0; i < kWindow; ++i) {
      net::PacketPtr p = build(i);
      if (!p) break;
      tag(*p);
      tx.push_back(std::move(p));
    }
    auto span_totals = [&] {
      std::array<std::uint64_t, 4> t{};
      if (ledger)
        t = {ledger->total_ns("rt.pump"), ledger->total_ns("workload.drive"),
             ledger->total_ns("io.rx"), ledger->total_ns("io.tx")};
      return t;
    };
    const auto spans0 = span_totals();
    const std::uint64_t sat_start = wall_ns();
    std::uint64_t delivered = 0;
    last_progress = sat_start;
    bool stop_sending = false;
    while (true) {
      if (!tx.empty()) {
        const std::uint64_t d0 = ledger ? wall_ns() : 0;
        const std::size_t n = driver->tx_burst(tx);
        tx.erase(tx.begin(), tx.begin() + static_cast<long>(n));
        if (ledger) ledger->record(drive_id, d0, wall_ns(), -1, n);
      }
      const std::size_t admitted = pump();
      const std::uint64_t d0 = ledger ? wall_ns() : 0;
      const std::size_t n = driver->rx_burst(rx);
      for (std::size_t i = 0; i < n; ++i) {
        check(*rx[i]);
        if (stop_sending) {
          rx[i].reset();
        } else {
          tag(*rx[i]);
          tx.push_back(std::move(rx[i]));
        }
      }
      if (ledger) {
        ledger->record(drive_id, d0, wall_ns(), -1, n);
        out.pool_peak = std::max(out.pool_peak, pool.in_use());
      }
      delivered += n;
      const std::uint64_t now = wall_ns();
      if (n) last_progress = now;
      if (!stop_sending && now - sat_start >= kSaturatedNs) {
        stop_sending = true;
        out.sat_wall_ns = now - sat_start;
        out.sat_delivered = delivered;
        const auto spans1 = span_totals();
        for (std::size_t k = 0; k < spans1.size(); ++k)
          out.sat_spans[k] = spans1[k] - spans0[k];
        for (auto& p : tx) {
          state[p->anno().seq] = 0;  // never handed to the wire
          p.reset();
        }
        tx.clear();
      }
      if (stop_sending && pool.in_use() == 0) break;
      if (now - last_progress > kStallNs) break;
      if (n == 0 && admitted == 0) std::this_thread::yield();
    }
    out.sat_ns_per_pkt = static_cast<double>(out.sat_wall_ns) /
                         static_cast<double>(std::max<std::uint64_t>(
                             out.sat_delivered, 1));
    for (std::uint64_t s = 0; s < next_seq; ++s) {
      if (state[s] == 0) continue;
      ++out.attempted;
      out.failed += state[s] != 2;
    }
    out.rejected = dp.rejected();
    dp.stop();
    out.submitted = dp.submitted();
    for (std::size_t p = 0; p < kPaths; ++p)
      out.paths_dispatched += dp.per_path_count(p);
    if (ledger) {
      out.queue_wait_p50 = hist_quantile(dp.queue_wait_hist(), 0.5);
      out.service_p50 = hist_quantile(dp.service_hist(), 0.5);
      out.merge_wait_p50 = hist_quantile(dp.merge_wait_hist(), 0.5);
    }
    // Drain anything the final stop() handed back to the wire.
    while (std::size_t n = driver->rx_burst(rx))
      for (std::size_t i = 0; i < n; ++i) rx[i].reset();
  }
  out.allocs = pool.total_allocs();
  out.leak = pool.in_use() != 0;
  return out;
}

}  // namespace

RunResult run_rt_loopback(const RunOptions& opt) {
  RunResult res;
  const HostProbe before = run_host_probe();
  std::vector<double> setup_s, nspp, lat_p50, lat_tail, traced_nspp;
  SpanLedger ledger;
  std::vector<RepResult> traced;
  const std::uint64_t start = wall_ns();
  const auto budget = static_cast<std::uint64_t>(opt.seconds * 1e9);
  for (std::size_t rep = 0;; ++rep) {
    // A traced run alternates untraced and traced repetitions, so the
    // tracing overhead is measured under the same host conditions.
    const bool is_traced = opt.trace && rep % 2 == 1;
    RepResult r =
        run_rep(opt.seed * 1000 + rep, is_traced ? &ledger : nullptr);
    std::fprintf(stderr,
                 "rep %zu%s: sat %.1f ns/pkt paced p50 %.2f us p90 %.2f "
                 "p99 %.1f us late p99 %.1f us\n",
                 rep, is_traced ? " (traced)" : "", r.sat_ns_per_pkt,
                 percentile(r.lat_ns, 0.5) / 1e3,
                 percentile(r.lat_ns, 0.9) / 1e3,
                 percentile(r.lat_ns, 0.99) / 1e3,
                 percentile(r.gen_late_ns, 0.99) / 1e3);
    res.attempted += r.attempted;
    res.failed += r.failed;
    if (r.leak) res.fail("frames left in the pool after a repetition");
    if (is_traced) {
      traced_nspp.push_back(r.sat_ns_per_pkt);
      traced.push_back(std::move(r));
    } else {
      setup_s.push_back(static_cast<double>(r.setup_ns) * 1e-9);
      nspp.push_back(r.sat_ns_per_pkt);
      lat_p50.push_back(percentile(r.lat_ns, 0.5) / 1e3);
      // p90: the highest open-loop percentile that repeats on a shared
      // host (the p99 is a traced diagnostic, see NOTES.md).
      lat_tail.push_back(percentile(r.lat_ns, 0.9) / 1e3);
    }
    if (rep >= 3 && wall_ns() - start >= budget) break;
  }
  const double rss = peak_rss_mib();
  const HostProbe after = run_host_probe();
  std::fprintf(stderr, "host probe: alu %.3f/%.3f ns, mem %.1f/%.1f ns "
               "(before/after)\n", before.alu_ns, after.alu_ns,
               before.mem_ns, after.mem_ns);
  std::fprintf(stderr,
               "repetitions: %zu, within-run spread of ns/pkt %.3f, "
               "of p50 %.3f\n",
               nspp.size(), spread(nspp), spread(lat_p50));
  if (!opt.trace) {
    res.set("setup_s", median(setup_s), "s");
    res.set("ns_per_pkt", median(nspp), "ns");
    res.set("peak_rss_mib", rss, "MiB");
    res.set("lat_p50_us", median(lat_p50), "us");
    res.set("lat_tail_us", median(lat_tail), "us");
    return res;
  }
  std::vector<double> lat_all, late_all, qw, sv, mw;
  std::array<double, 4> sat_spans{};
  double sat_wall = 0, sat_delivered = 0, rejected = 0, submitted = 0;
  double allocs = 0, dispatched = 0, pool_peak = 0, reordered = 0;
  for (const RepResult& r : traced) {
    reordered += static_cast<double>(r.reordered);
    lat_all.insert(lat_all.end(), r.lat_ns.begin(), r.lat_ns.end());
    late_all.insert(late_all.end(), r.gen_late_ns.begin(), r.gen_late_ns.end());
    qw.push_back(r.queue_wait_p50);
    sv.push_back(r.service_p50);
    mw.push_back(r.merge_wait_p50);
    for (std::size_t k = 0; k < sat_spans.size(); ++k)
      sat_spans[k] += static_cast<double>(r.sat_spans[k]);
    sat_wall += static_cast<double>(r.sat_wall_ns);
    sat_delivered += static_cast<double>(r.sat_delivered);
    rejected += static_cast<double>(r.rejected);
    submitted += static_cast<double>(r.submitted);
    allocs += static_cast<double>(r.allocs);
    dispatched += static_cast<double>(r.paths_dispatched);
    pool_peak = std::max(pool_peak, static_cast<double>(r.pool_peak));
  }
  const double frames = std::max(submitted, 1.0);
  const double sat_pkts = std::max(sat_delivered, 1.0);
  const double gen_n = static_cast<double>(ledger.count("workload.gen"));
  res.set("workload.gen_ns_per_pkt",
          gen_n > 0 ? static_cast<double>(ledger.total_ns("workload.gen")) /
                          gen_n
                    : 0,
          "ns");
  res.set("net.allocs_per_pkt", allocs / frames, "count");
  res.set("net.clones_per_pkt", 0, "count");
  res.set("net.pool_peak_in_use", pool_peak, "count");
  res.set("core.copies_per_pkt", dispatched / frames, "count");
  // No reorder buffer on this plane: frames of one flow served by both
  // paths can reach the peer out of order. Counted, never failed.
  res.set("core.reorder.ooo_frac",
          reordered / std::max(static_cast<double>(lat_all.size()), 1.0),
          "ratio");
  // Saturated phase: the caller thread's spans (pump with io inside it,
  // and the peer's rx/tx plus checks) against that phase's wall time.
  res.set("rt.pump_ns_per_pkt", sat_spans[0] / sat_pkts, "ns");
  res.set("io.rx_ns_per_pkt", sat_spans[2] / sat_pkts, "ns");
  res.set("io.tx_ns_per_pkt", sat_spans[3] / sat_pkts, "ns");
  res.set("ledger.unattributed_frac",
          sat_wall > 0 ? 1.0 - (sat_spans[0] + sat_spans[1]) / sat_wall : 0,
          "ratio");
  res.set("rt.queue_wait_p50_ns", median(qw), "ns");
  res.set("rt.service_p50_ns", median(sv), "ns");
  res.set("rt.merge_wait_p50_ns", median(mw), "ns");
  res.set("rt.rejected_frac", rejected / std::max(submitted + rejected, 1.0),
          "ratio");
  res.set("rt.gen_late_p99_us", percentile(late_all, 0.99) / 1e3, "us");
  res.set("rt.lat_p99_us", percentile(lat_all, 0.99) / 1e3, "us");
  res.set("trace.overhead_frac", median(traced_nspp) / median(nspp) - 1.0,
          "ratio");
  res.set("host.ref_ns",
          (before.alu_ns + before.mem_ns + after.alu_ns + after.mem_ns) / 2,
          "ns");
  res.set("host.ref_mem_ns", (before.mem_ns + after.mem_ns) / 2, "ns");
  if (!opt.out_dir.empty())
    ledger.write(opt.out_dir + "/spans-" + opt.workload + "-seed" +
                 std::to_string(opt.seed) + ".tsv");
  return res;
}

}  // namespace perfbench

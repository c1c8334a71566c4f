// MdpDataPlane integration tests: exactly-once end-to-end delivery across
// every policy, functional chain effects (NAT/firewall really applied),
// redundancy accounting, hedging, failover, pool balance, determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/dataplane.hpp"
#include "net/packet_builder.hpp"
#include "nf/conntrack.hpp"
#include "nf/flow_monitor.hpp"
#include "nf/load_balancer.hpp"
#include "nf/nat.hpp"
#include "sim/interference.hpp"

namespace mdp::core {
namespace {

struct DpFixture {
  sim::EventQueue eq;
  net::PacketPool pool{2048, 2048};
  std::unique_ptr<MdpDataPlane> dp;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> egressed;
  stats::LatencyHistogram latency;

  ~DpFixture() {
    // Pending closures may own packets; destroy them before the pool.
    eq.clear();
  }

  explicit DpFixture(const std::string& policy, std::size_t paths = 4,
                     DataPlaneConfig cfg = {}) {
    cfg.num_paths = paths;
    dp = std::make_unique<MdpDataPlane>(eq, pool, cfg,
                                        make_scheduler(policy));
    dp->set_egress([this](net::PacketPtr p) {
      egressed.emplace_back(p->anno().flow_id, p->anno().seq);
      latency.record(p->anno().egress_ns - p->anno().ingress_ns);
    });
  }

  void send(std::uint32_t flow_id, sim::TimeNs at,
            net::TrafficClass tc = net::TrafficClass::kBestEffort,
            std::uint32_t src_ip = 0x0a010101) {
    eq.schedule_at(at, [this, flow_id, tc, src_ip] {
      net::BuildSpec spec;
      spec.flow = {src_ip, 0x0a006401,
                   static_cast<std::uint16_t>(1024 + flow_id), 80, 0};
      auto pkt = net::build_udp(pool, spec);
      ASSERT_TRUE(pkt);
      pkt->anno().flow_id = flow_id;
      pkt->anno().flow_hash = net::hash_flow(spec.flow);
      pkt->anno().traffic_class = tc;
      dp->ingress(std::move(pkt));
    });
  }
};

class PolicyEndToEnd : public ::testing::TestWithParam<std::string> {};

TEST_P(PolicyEndToEnd, ExactlyOnceInOrderDelivery) {
  DpFixture f(GetParam());
  constexpr int kFlows = 8;
  constexpr int kPerFlow = 100;
  sim::TimeNs t = 0;
  for (int i = 0; i < kPerFlow; ++i)
    for (std::uint32_t fl = 0; fl < kFlows; ++fl)
      f.send(fl, t += 700,
             fl == 0 ? net::TrafficClass::kLatencyCritical
                     : net::TrafficClass::kBestEffort);
  f.eq.run();

  EXPECT_EQ(f.egressed.size(),
            static_cast<std::size_t>(kFlows * kPerFlow))
      << GetParam() << ": every ingress packet must egress exactly once";

  // Exactly-once and per-flow in-order.
  std::map<std::uint32_t, std::uint64_t> next;
  for (auto [flow, seq] : f.egressed) {
    EXPECT_EQ(seq, next[flow]) << GetParam() << " flow " << flow;
    next[flow] = seq + 1;
  }
  EXPECT_EQ(f.pool.in_use(), 0u) << "no packet leaks";
  EXPECT_GT(f.latency.count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyEndToEnd,
                         ::testing::Values("single", "rss", "rr", "jsq",
                                           "lla", "flowlet", "red2", "red3",
                                           "adaptive"));

TEST(DataPlane, FunctionalChainAppliesNatRewrite) {
  sim::EventQueue eq;
  net::PacketPool pool(256, 2048);
  DataPlaneConfig cfg;
  cfg.num_paths = 2;
  cfg.chain = "fw-nat";
  MdpDataPlane dp(eq, pool, cfg, make_scheduler("jsq"));
  std::uint32_t seen_src = 0;
  dp.set_egress([&](net::PacketPtr p) {
    auto parsed = net::parse(*p);
    ASSERT_TRUE(parsed);
    seen_src = parsed->flow.src_ip;
  });
  net::BuildSpec spec;
  spec.flow = {0x0a010101, 0x0a006401, 7777, 80, 0};
  auto pkt = net::build_udp(pool, spec);
  pkt->anno().flow_id = 1;
  dp.ingress(std::move(pkt));
  eq.run();
  EXPECT_EQ(seen_src, 0x0a0a0a0au) << "NAT must rewrite at the real chain";
}

/// Address of the per-flow state of every `T` stage, one per path.
template <typename T, typename Get>
std::vector<const void*> state_addresses(MdpDataPlane& dp, Get get) {
  std::vector<const void*> out;
  for (const auto& e : dp.router().elements())
    if (auto* t = dynamic_cast<T*>(e.get())) out.push_back(&get(*t));
  return out;
}

TEST(DataPlane, PathReplicasShareOneNfStatePerPlane) {
  constexpr std::size_t kPaths = 8;
  sim::EventQueue eq;
  net::PacketPool pool(64, 2048);
  DataPlaneConfig cfg;
  cfg.num_paths = kPaths;
  cfg.chain = "fw-nat-lb-mon";
  MdpDataPlane dp(eq, pool, cfg, make_scheduler("rr"));
  cfg.chain = "stateful";
  MdpDataPlane sdp(eq, pool, cfg, make_scheduler("rr"));

  auto all_one = [&](std::vector<const void*> addrs, const char* what) {
    ASSERT_EQ(addrs.size(), kPaths) << what;
    for (std::size_t p = 1; p < kPaths; ++p)
      EXPECT_EQ(addrs[p], addrs[0]) << what << " of path " << p;
  };
  all_one(state_addresses<nf::Nat>(
              dp, [](nf::Nat& n) -> auto& { return n.table(); }),
          "NatTable");
  all_one(state_addresses<nf::LoadBalancer>(
              dp, [](nf::LoadBalancer& l) -> auto& { return l.core(); }),
          "LoadBalancerCore");
  all_one(state_addresses<nf::FlowMonitor>(
              dp, [](nf::FlowMonitor& m) -> auto& { return m.core(); }),
          "FlowMonitorCore");
  all_one(state_addresses<nf::StatefulFirewall>(
              sdp,
              [](nf::StatefulFirewall& f) -> auto& { return f.tracker(); }),
          "ConnTracker");
  eq.clear();
}

TEST(DataPlane, FirewallFiltersDarkTraffic) {
  sim::EventQueue eq;
  net::PacketPool pool(256, 2048);
  DataPlaneConfig cfg;
  cfg.num_paths = 2;
  cfg.chain = "fw";
  MdpDataPlane dp(eq, pool, cfg, make_scheduler("jsq"));
  std::uint64_t egressed = 0;
  dp.set_egress([&](net::PacketPtr) { ++egressed; });

  auto send = [&](std::uint32_t src) {
    net::BuildSpec spec;
    spec.flow = {src, 0x0a006401, 1000, 80, 0};
    auto pkt = net::build_udp(pool, spec);
    pkt->anno().flow_id = src;
    dp.ingress(std::move(pkt));
  };
  send(0x7f000001);  // 127.0.0.1 -> denied by preset rules
  send(0x0a010101);  // allowed
  eq.run();
  EXPECT_EQ(egressed, 1u);
  EXPECT_EQ(dp.counters().get("chain_filtered"), 1u);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(DataPlane, RedundantPolicyDropsDuplicatesAtMerge) {
  DpFixture f("red2");
  for (int i = 0; i < 50; ++i) f.send(1, 1000 * (i + 1));
  f.eq.run();
  EXPECT_EQ(f.egressed.size(), 50u);
  const auto& c = f.dp->counters();
  EXPECT_EQ(c.get("replicas"), 50u) << "one extra copy per packet";
  // Each packet's second copy is either deduped or filtered; with the
  // default allow-all flow nothing is filtered, so 50 dup drops.
  EXPECT_EQ(c.get("dup_dropped"), 50u);
  EXPECT_EQ(f.dp->dedup().pending(), 0u);
}

TEST(DataPlane, HedgeFiresWhenPathStalls) {
  sim::EventQueue eq;
  net::PacketPool pool(512, 2048);
  DataPlaneConfig cfg;
  cfg.num_paths = 2;
  AdaptiveMdpConfig acfg;
  acfg.hedge_timeout_ns = 5'000;  // fixed, aggressive
  MdpDataPlane dp(eq, pool, cfg,
                  std::make_unique<AdaptiveMdpScheduler>(acfg));
  std::uint64_t egressed = 0;
  dp.set_egress([&](net::PacketPtr) { ++egressed; });

  // Stall path 0 with a long high-priority theft job, then inject a BE
  // packet that JSQ-flowlet will route to... path 0 or 1; stall both is
  // overkill — stall the one the packet lands on by stalling both briefly
  // except path 1 recovers fast.
  dp.core(0).submit(2'000'000, [](sim::TimeNs) {}, true, /*visible=*/false);

  net::BuildSpec spec;
  spec.flow = {0x0a010101, 0x0a006401, 1024, 80, 0};
  auto pkt = net::build_udp(pool, spec);
  pkt->anno().flow_id = 1;
  eq.schedule_at(100, [&, p = std::move(pkt)]() mutable {
    // Force dispatch onto the stalled path by stalling path 1 less: JSQ
    // picks path 1 normally, so instead mark path 1 down.
    dp.set_path_up(1, false);
    dp.ingress(std::move(p));
    dp.set_path_up(1, true);
  });
  eq.run();
  EXPECT_EQ(egressed, 1u);
  EXPECT_EQ(dp.counters().get("hedges"), 1u)
      << "hedge must fire for the stalled path";
  // The hedge copy (path 1) completes long before the stalled original.
  EXPECT_GE(dp.monitor().completed(1), 1u);
}

// A hedge is disarmed when its merge entry retires, so it never fires
// for a packet the merge already settled. Each case below retires the
// entry while the hedge timer (rss:50000, 50 us) is still pending.
TEST(DataPlane, HedgeDisarmedWhenChainFiltersTheOriginal) {
  DataPlaneConfig cfg;
  cfg.chain = "fw";
  DpFixture f("rss:50000", 2, cfg);
  f.send(1, 100, net::TrafficClass::kBestEffort,
         0x7f000001);  // 127.0.0.1: denied by the preset rules
  f.eq.run();
  const auto c = f.dp->counters();
  EXPECT_EQ(c.get("chain_filtered"), 1u) << "only the original is filtered";
  EXPECT_EQ(c.get("hedges"), 0u) << "a hedge fired for a filtered packet";
  EXPECT_EQ(f.egressed.size(), 0u);
  EXPECT_EQ(f.dp->dedup().pending(), 0u);
  EXPECT_EQ(f.pool.in_use(), 0u);
}

TEST(DataPlane, HedgeDisarmedWhenTheOriginalIsTailDropped) {
  DataPlaneConfig cfg;
  cfg.path_queue_capacity = 1;
  DpFixture f("rss:50000", 2, cfg);
  // Both paths full: one job in service, one queued; both idle by 40 us.
  for (std::size_t p = 0; p < 2; ++p)
    for (int j = 0; j < 2; ++j) f.dp->core(p).submit(20'000, [](sim::TimeNs) {});
  f.send(1, 100);
  f.eq.run();
  const auto c = f.dp->counters();
  EXPECT_EQ(c.get("queue_drops"), 1u);
  EXPECT_EQ(c.get("hedges"), 0u) << "a hedge fired for a dropped packet";
  EXPECT_EQ(f.dp->dedup().late_drops(), 0u);
  EXPECT_EQ(f.egressed.size(), 0u);
  EXPECT_EQ(f.dp->dedup().pending(), 0u);
  EXPECT_EQ(f.pool.in_use(), 0u);
}

TEST(DataPlane, HedgeDisarmedWhenItsFlowEnds) {
  DpFixture f("rss:50000", 2);
  // Both paths stalled for 1 ms (invisible theft): the original is still
  // queued when its flow ends at 1 us.
  for (std::size_t p = 0; p < 2; ++p)
    f.dp->core(p).submit(1'000'000, [](sim::TimeNs) {}, true,
                         /*visible=*/false);
  f.send(1, 100);
  f.eq.schedule_at(1'000, [&] { f.dp->end_flow(1); });
  f.eq.run();
  EXPECT_EQ(f.dp->counters().get("hedges"), 0u)
      << "a hedge fired for an ended flow";
  EXPECT_EQ(f.dp->dedup().late_drops(), 1u) << "the original, after the end";
  EXPECT_EQ(f.egressed.size(), 0u);
  EXPECT_EQ(f.dp->dedup().pending(), 0u);
  EXPECT_EQ(f.pool.in_use(), 0u);
}

TEST(DataPlane, LcPriorityJumpsQueueUnderCongestion) {
  auto run = [](bool prio) {
    DataPlaneConfig cfg;
    cfg.lc_priority = prio;
    DpFixture f("single", 1, cfg);
    stats::LatencyHistogram lc, be;
    f.dp->set_egress([&](net::PacketPtr p) {
      auto& h = p->anno().traffic_class ==
                        net::TrafficClass::kLatencyCritical
                    ? lc
                    : be;
      h.record(p->anno().egress_ns - p->anno().ingress_ns);
    });
    // Overload one path briefly so a queue forms; 1 LC packet per 10 BE.
    // LC traffic lives on its own flows (as in TrafficGen) — otherwise
    // in-order delivery makes priority wait for queued same-flow BE seqs.
    sim::TimeNs t = 0;
    for (int i = 0; i < 2000; ++i) {
      bool lc = i % 10 == 0;
      f.send(lc ? 100 + (i / 10) % 4 : i % 16, t += 500,
             lc ? net::TrafficClass::kLatencyCritical
                : net::TrafficClass::kBestEffort);
    }
    f.eq.run();
    return std::make_pair(lc.p99(), be.p99());
  };
  auto [lc_off, be_off] = run(false);
  auto [lc_on, be_on] = run(true);
  EXPECT_LT(lc_on, lc_off / 4)
      << "priority must collapse LC queueing delay";
  EXPECT_LT(lc_on, be_on) << "LC must beat BE when prioritized";
  (void)be_off;
}

TEST(DataPlane, PathDownFailsOverEverything) {
  DpFixture f("jsq");
  f.dp->set_path_up(0, false);
  f.dp->set_path_up(2, false);
  for (int i = 0; i < 40; ++i) f.send(i % 4, 500 * (i + 1));
  f.eq.run();
  EXPECT_EQ(f.egressed.size(), 40u);
  EXPECT_EQ(f.dp->monitor().dispatched(0), 0u);
  EXPECT_EQ(f.dp->monitor().dispatched(2), 0u);
  EXPECT_GT(f.dp->monitor().dispatched(1), 0u);
  EXPECT_GT(f.dp->monitor().dispatched(3), 0u);
}

TEST(DataPlane, InterferenceInflatesSinglePathTail) {
  auto run = [](bool noisy) {
    DpFixture f("single", 1);
    std::unique_ptr<sim::InterferenceModel> noise;
    if (noisy) {
      sim::InterferenceConfig icfg;
      icfg.duty_cycle = 0.3;
      icfg.mean_burst_ns = 200'000;
      noise = std::make_unique<sim::InterferenceModel>(f.eq, f.dp->core(0),
                                                       icfg, 99);
      noise->start();
    }
    sim::TimeNs t = 0;
    for (int i = 0; i < 3000; ++i) f.send(i % 16, t += 4000);
    f.eq.run_until(t + 50 * sim::kMillisecond);
    return f.latency.p999();
  };
  auto quiet = run(false);
  auto noisy = run(true);
  EXPECT_GT(noisy, quiet * 5)
      << "interference must inflate the single-path p99.9 dramatically";
}

TEST(DataPlane, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    DataPlaneConfig cfg;
    cfg.seed = seed;
    DpFixture f("adaptive", 4, cfg);
    sim::TimeNs t = 0;
    for (int i = 0; i < 500; ++i)
      f.send(i % 8, t += 900,
             i % 5 == 0 ? net::TrafficClass::kLatencyCritical
                        : net::TrafficClass::kBestEffort);
    f.eq.run();
    return std::make_pair(f.egressed, f.latency.p999());
  };
  auto a = run(7);
  auto b = run(7);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// Property: even with paths flapping up/down randomly mid-run and an
// aggressive hedging policy, delivery stays exactly-once and in order and
// no packet leaks. (Down paths still *drain* — down only stops new
// dispatches — so nothing strands.)
class FailureFlappingFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FailureFlappingFuzz, ExactlyOnceUnderPathFlapping) {
  sim::EventQueue eq;
  net::PacketPool pool(4096, 2048);
  DataPlaneConfig cfg;
  cfg.num_paths = 4;
  cfg.seed = GetParam();
  // Strict order is only guaranteed while the resequencer never times out;
  // give it a budget beyond any stall this run can produce. (With the
  // default 200us timeout, stacked theft bursts legitimately force
  // late-after-skip deliveries — that path is covered in reorder tests.)
  cfg.reorder.timeout_ns = 1 * sim::kSecond;
  AdaptiveMdpConfig acfg;
  acfg.hedge_timeout_ns = 10'000;  // hedge aggressively
  MdpDataPlane dp(eq, pool, cfg,
                  std::make_unique<AdaptiveMdpScheduler>(acfg));

  std::map<std::uint32_t, std::uint64_t> next_seq;
  std::uint64_t egressed = 0;
  bool order_ok = true;
  dp.set_egress([&](net::PacketPtr p) {
    ++egressed;
    if (p->anno().seq != next_seq[p->anno().flow_id]) order_ok = false;
    next_seq[p->anno().flow_id] = p->anno().seq + 1;
  });

  sim::Rng rng(GetParam() * 77 + 5);
  // Random path flapping, always leaving at least path 0 up.
  for (int i = 0; i < 200; ++i) {
    eq.schedule_at(rng.uniform_u64(3'000'000), [&dp, &rng] {
      std::size_t p = 1 + rng.uniform_u64(3);
      dp.set_path_up(p, rng.bernoulli(0.5));
    });
  }
  // Random theft stalls.
  for (int i = 0; i < 30; ++i) {
    eq.schedule_at(rng.uniform_u64(3'000'000), [&dp, &rng] {
      dp.core(rng.uniform_u64(4))
          .submit(10'000 + rng.uniform_u64(100'000), [](sim::TimeNs) {},
                  true, false);
    });
  }

  constexpr int kPackets = 3000;
  for (int i = 0; i < kPackets; ++i) {
    eq.schedule_at(1 + i * 900, [&dp, &pool, i] {
      net::BuildSpec spec;
      spec.flow = {0x0a010101, 0x0a006401,
                   static_cast<std::uint16_t>(1024 + i % 12), 80, 0};
      auto pkt = net::build_udp(pool, spec);
      pkt->anno().flow_id = i % 12;
      pkt->anno().traffic_class = i % 7 == 0
                                      ? net::TrafficClass::kLatencyCritical
                                      : net::TrafficClass::kBestEffort;
      dp.ingress(std::move(pkt));
    });
  }
  eq.run();

  EXPECT_EQ(egressed, static_cast<std::uint64_t>(kPackets))
      << "every packet exactly once despite flapping + hedging";
  EXPECT_TRUE(order_ok) << "per-flow order preserved";
  EXPECT_EQ(pool.in_use(), 0u) << "no leaks";
  EXPECT_EQ(dp.dedup().pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailureFlappingFuzz,
                         ::testing::Range(1, 7));

TEST(DataPlane, BoundedPathQueueDropsUnderOverload) {
  DataPlaneConfig cfg;
  cfg.path_queue_capacity = 8;
  DpFixture f("single", 1, cfg);
  // Arrivals far faster than service: the bounded queue must tail-drop.
  for (int i = 0; i < 500; ++i) f.send(i % 4, 10 * (i + 1));
  f.eq.run();
  const auto& c = f.dp->counters();
  EXPECT_GT(c.get("queue_drops"), 0u);
  EXPECT_EQ(f.egressed.size() + c.get("queue_drops"), 500u)
      << "every packet either egresses or is a counted drop";
  EXPECT_EQ(f.pool.in_use(), 0u);
  EXPECT_EQ(f.dp->dedup().pending(), 0u) << "dropped slots released";
}

TEST(DataPlane, RedundancySurvivesOneCopyQueueDrop) {
  // Path 0's queue is full; red2 sends copies to paths 0 and 1 — the
  // path-1 copy must still deliver exactly once.
  DataPlaneConfig cfg;
  cfg.path_queue_capacity = 4;
  DpFixture f("red2", 2, cfg);
  // Pre-fill path 0's queue with invisible stall + visible packets so it
  // stays the "least backlogged" choice for a while yet drops.
  f.dp->core(0).submit(10'000'000, [](sim::TimeNs) {}, true, false);
  // Arrival pace leaves path 1 comfortably below capacity: only path 0's
  // copies (stuck behind the stall) tail-drop.
  for (int i = 0; i < 40; ++i) f.send(i % 4, 2000 * (i + 1));
  f.eq.run();
  EXPECT_EQ(f.egressed.size(), 40u)
      << "surviving copies must cover the dropped ones";
  EXPECT_EQ(f.dp->dedup().pending(), 0u);
}

// Merge state retires on arrival, cancel_copy or end_flow, never by age:
// a copy that waits in a path queue far longer than any fixed age bound
// is still delivered, exactly once.
TEST(DataPlane, SlowQueueStillDeliversEveryPacketOnce) {
  sim::EventQueue eq;
  net::PacketPool pool(2048, 2048);
  DataPlaneConfig cfg;
  cfg.num_paths = 1;
  cfg.service_jitter_sigma = 0;
  cfg.per_byte_ns = 2000;  // ~100 us per frame
  MdpDataPlane dp(eq, pool, cfg, make_scheduler("single"));
  std::vector<std::uint64_t> seqs;
  sim::TimeNs max_wait = 0;
  dp.set_egress([&](net::PacketPtr p) {
    seqs.push_back(p->anno().seq);
    max_wait = std::max(max_wait, p->anno().egress_ns - p->anno().ingress_ns);
  });
  constexpr std::uint64_t kPackets = 1000;
  eq.schedule_at(1, [&] {
    net::BuildSpec spec;
    spec.flow = {0x0a010101, 0x0a006401, 1025, 80, 0};
    for (std::uint64_t i = 0; i < kPackets; ++i) {
      auto pkt = net::build_udp(pool, spec);
      pkt->anno().flow_id = 1;
      dp.ingress(std::move(pkt));
    }
  });
  eq.run_until(2 * sim::kSecond);

  EXPECT_GT(max_wait, 80 * sim::kMillisecond)
      << "the last packets must wait well past 60 ms in the queue";
  ASSERT_EQ(seqs.size(), kPackets);
  for (std::uint64_t i = 0; i < kPackets; ++i) EXPECT_EQ(seqs[i], i);
  EXPECT_EQ(dp.dedup().late_drops(), 0u);
  EXPECT_EQ(dp.dedup().pending(), 0u);
  eq.clear();
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(DataPlane, CostModelScalesWithChainLength) {
  sim::EventQueue eq;
  net::PacketPool pool(64, 2048);
  DataPlaneConfig short_cfg;
  short_cfg.chain = "ipcheck";
  DataPlaneConfig long_cfg;
  long_cfg.chain = "full";
  MdpDataPlane a(eq, pool, short_cfg, make_scheduler("jsq"));
  MdpDataPlane b(eq, pool, long_cfg, make_scheduler("jsq"));
  EXPECT_GT(b.chain_cost_ns(), a.chain_cost_ns() * 3);
}

// Property: conservation holds for every chain preset — each ingress
// packet either egresses exactly once or is accounted as chain-filtered.
class ChainPresetConservation
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ChainPresetConservation, IngressFullyAccounted) {
  sim::EventQueue eq;
  net::PacketPool pool(2048, 2048);
  DataPlaneConfig cfg;
  cfg.num_paths = 3;
  cfg.chain = GetParam();
  MdpDataPlane dp(eq, pool, cfg, make_scheduler("adaptive"));
  std::uint64_t egressed = 0;
  dp.set_egress([&](net::PacketPtr) { ++egressed; });

  sim::Rng rng(99);
  constexpr int kPackets = 400;
  for (int i = 0; i < kPackets; ++i) {
    eq.schedule_at(1 + i * 1500, [&, i] {
      net::BuildSpec spec;
      // Mix of allowed and (for fw chains) denied sources.
      std::uint32_t src = rng.bernoulli(0.1)
                              ? 0x7f000001  // 127.0.0.1: denied by presets
                              : 0x0a010000 + static_cast<std::uint32_t>(
                                                 rng.uniform_u64(1000));
      spec.flow = {src, 0x0a006401,
                   static_cast<std::uint16_t>(1024 + i % 10), 80, 0};
      auto pkt = net::build_udp(pool, spec);
      pkt->anno().flow_id = i % 10;
      if (i % 6 == 0)
        pkt->anno().traffic_class = net::TrafficClass::kLatencyCritical;
      dp.ingress(std::move(pkt));
    });
  }
  eq.run();

  std::uint64_t filtered = dp.counters().get("chain_filtered");
  std::uint64_t dup = dp.counters().get("dup_dropped");
  // Copies of one packet may split between filtered and delivered, so
  // per-PACKET accounting uses the dedup ledger: nothing pending, every
  // packet either egressed once or had every copy filtered.
  EXPECT_EQ(dp.dedup().pending(), 0u) << GetParam();
  EXPECT_LE(egressed, static_cast<std::uint64_t>(kPackets)) << GetParam();
  EXPECT_EQ(dp.counters().get("dispatched"),
            egressed + dup + filtered)
      << GetParam() << ": every dispatched copy accounted";
  EXPECT_EQ(pool.in_use(), 0u) << GetParam();
  if (GetParam() == "ipcheck") EXPECT_EQ(egressed, 400u);
}

INSTANTIATE_TEST_SUITE_P(
    AllChains, ChainPresetConservation,
    ::testing::Values("ipcheck", "fw", "stateful", "fw-nat", "fw-nat-lb",
                      "fw-nat-lb-mon", "overlay", "full"));

TEST(DataPlane, RejectsInvalidConfig) {
  sim::EventQueue eq;
  net::PacketPool pool(8, 2048);
  DataPlaneConfig cfg;
  cfg.num_paths = 0;
  EXPECT_THROW(MdpDataPlane(eq, pool, cfg, make_scheduler("jsq")),
               std::invalid_argument);
  DataPlaneConfig cfg2;
  EXPECT_THROW(MdpDataPlane(eq, pool, cfg2, nullptr),
               std::invalid_argument);
  DataPlaneConfig cfg3;
  cfg3.chain = "no-such-chain";
  EXPECT_THROW(MdpDataPlane(eq, pool, cfg3, make_scheduler("jsq")),
               std::runtime_error);
}

}  // namespace
}  // namespace mdp::core

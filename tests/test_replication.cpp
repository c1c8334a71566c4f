// Flow-granularity replication tests (RepNet, see docs/ARCHITECTURE.md):
//   - FlowReplicator unit behavior: size-class gating, per-tenant token
//     budgets (charged once per flow), disjoint path selection from
//     backlog evidence, starvation fallback, decision caching;
//   - core::Merge under flow replication: first-copy-wins per sequence,
//     end_flow retiring in-flight copies;
//   - MdpDataPlane end to end: replication enabled with no qualifying
//     flow is byte-identical to the seed plane; enabled replication keeps
//     exactly-once / in-order / zero-leak while actually double-sending
//     short flows; end_flow retires every per-flow entry under 100k-flow
//     churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/dataplane.hpp"
#include "core/flow_replicator.hpp"
#include "net/packet_builder.hpp"

namespace mdp {
namespace {

using core::FlowReplicator;
using core::FlowReplicatorConfig;

// ---------------------------------------------------------------------------
// FlowReplicator units.

struct StubCtx final : core::PathContext {
  std::vector<std::uint8_t> ups;
  std::vector<sim::TimeNs> backlogs;
  std::size_t num_paths() const override { return ups.size(); }
  bool up(std::size_t p) const override { return ups[p] != 0; }
  sim::TimeNs backlog_ns(std::size_t p) const override {
    return backlogs[p];
  }
  std::size_t queue_depth(std::size_t) const override { return 0; }
  std::uint64_t inflight(std::size_t) const override { return 0; }
  double ewma_latency_ns(std::size_t) const override { return 0; }
  sim::TimeNs now() const override { return 0; }
};

struct ReplFixture {
  net::PacketPool pool{256, 512};
  StubCtx ctx;
  core::PathVec out;

  ReplFixture() {
    ctx.ups = {1, 1, 1, 1};
    ctx.backlogs = {50, 10, 30, 20};
  }

  net::PacketPtr make(std::uint32_t flow, std::uint32_t flow_bytes,
                      net::TrafficClass tc = net::TrafficClass::kBestEffort,
                      std::uint16_t tenant = 0) {
    net::BuildSpec spec;
    spec.flow = {0x0a010101 + flow, 0x0a006401,
                 static_cast<std::uint16_t>(1024 + flow), 80, 0};
    auto pkt = net::build_udp(pool, spec);
    auto& a = pkt->anno();
    a.flow_id = flow;
    a.flow_bytes = flow_bytes;
    a.traffic_class = tc;
    a.tenant_id = tenant;
    return pkt;
  }
};

TEST(FlowReplicator, ShortFlowRidesTheTwoLeastBackloggedPaths) {
  ReplFixture f;
  FlowReplicator repl({.enabled = true, .size_cutoff_bytes = 30'000});
  auto pkt = f.make(7, 2'000);
  ASSERT_TRUE(repl.route(*pkt, f.ctx, f.out));
  // Backlogs are {50, 10, 30, 20}: the disjoint pair is {1, 3}.
  ASSERT_EQ(f.out.size(), 2u);
  EXPECT_EQ(f.out[0], 1u);
  EXPECT_EQ(f.out[1], 3u);
  EXPECT_EQ(repl.flows_replicated(), 1u);

  // The decision is cached: later packets reuse the pair even after the
  // backlog picture inverts (path stability is the point — reordering
  // within the flow stays bounded to its two paths).
  f.ctx.backlogs = {1, 900, 2, 900};
  auto pkt2 = f.make(7, 2'000);
  ASSERT_TRUE(repl.route(*pkt2, f.ctx, f.out));
  ASSERT_EQ(f.out.size(), 2u);
  EXPECT_EQ(f.out[0], 1u);
  EXPECT_EQ(f.out[1], 3u);
  EXPECT_EQ(repl.flows_seen(), 1u) << "decided once, cached thereafter";
}

TEST(FlowReplicator, SizeClassGateRefusesElephants) {
  ReplFixture f;
  FlowReplicator repl({.enabled = true, .size_cutoff_bytes = 30'000});
  auto big = f.make(1, 1'000'000);
  EXPECT_FALSE(repl.route(*big, f.ctx, f.out));
  EXPECT_EQ(repl.size_gated(), 1u);
  EXPECT_EQ(repl.flows_replicated(), 0u);
  // The elephant's verdict is cached too: no re-gating per packet.
  auto big2 = f.make(1, 1'000'000);
  EXPECT_FALSE(repl.route(*big2, f.ctx, f.out));
  EXPECT_EQ(repl.flows_seen(), 1u);
  EXPECT_EQ(repl.size_gated(), 1u);

  // Unknown size (0 bytes) falls back to the traffic-class hint.
  auto lc = f.make(2, 0, net::TrafficClass::kLatencyCritical);
  EXPECT_TRUE(repl.route(*lc, f.ctx, f.out));
  auto be = f.make(3, 0, net::TrafficClass::kBestEffort);
  EXPECT_FALSE(repl.route(*be, f.ctx, f.out));
}

TEST(FlowReplicator, TokenExhaustionFallsBackToSinglePath) {
  ReplFixture f;
  FlowReplicator repl({.enabled = true});
  int budget = 1;
  int charges = 0;
  repl.set_token_fn([&](std::uint16_t) {
    ++charges;
    return budget-- > 0;
  });
  // Flow 1 takes the last token and replicates; flow 2 is denied and
  // must fall back to the caller's normal single-path scheduler.
  auto p1 = f.make(1, 2'000);
  EXPECT_TRUE(repl.route(*p1, f.ctx, f.out));
  auto p2 = f.make(2, 2'000);
  EXPECT_FALSE(repl.route(*p2, f.ctx, f.out));
  EXPECT_EQ(repl.token_denied(), 1u);
  // The budget is charged per FLOW, not per packet: more packets of
  // flow 1 must not touch the token fn again.
  for (int i = 0; i < 5; ++i) {
    auto p = f.make(1, 2'000);
    EXPECT_TRUE(repl.route(*p, f.ctx, f.out));
  }
  EXPECT_EQ(charges, 2) << "one charge per first-packet decision";
}

TEST(FlowReplicator, PathStarvationAndDownedReplicaSets) {
  ReplFixture f;
  FlowReplicator repl({.enabled = true});
  // Only one path up at decision time: cannot build a pair.
  f.ctx.ups = {0, 1, 0, 0};
  auto p = f.make(1, 2'000);
  EXPECT_FALSE(repl.route(*p, f.ctx, f.out));
  EXPECT_EQ(repl.path_starved(), 1u);

  // A replicated flow whose paths later go down: filtered by up(), and
  // when the whole set is dark, one live path keeps the flow moving.
  f.ctx.ups = {1, 1, 1, 1};
  auto q = f.make(2, 2'000);
  ASSERT_TRUE(repl.route(*q, f.ctx, f.out));
  ASSERT_EQ(f.out.size(), 2u);
  const auto kept = f.out[0];
  f.ctx.ups[f.out[1]] = 0;
  auto q2 = f.make(2, 2'000);
  ASSERT_TRUE(repl.route(*q2, f.ctx, f.out));
  ASSERT_EQ(f.out.size(), 1u);
  EXPECT_EQ(f.out[0], kept);
  f.ctx.ups = {0, 0, 0, 1};  // entire pair down; path 3 is the survivor
  auto q3 = f.make(2, 2'000);
  ASSERT_TRUE(repl.route(*q3, f.ctx, f.out));
  ASSERT_EQ(f.out.size(), 1u);
  EXPECT_EQ(f.out[0], 3u);
}

TEST(FlowReplicator, EraseForgetsDecisions) {
  ReplFixture f;
  FlowReplicator repl({.enabled = true});
  for (std::uint32_t flow : {1u, 2u, 3u}) {
    auto p = f.make(flow, 2'000);
    repl.route(*p, f.ctx, f.out);
  }
  EXPECT_EQ(repl.tracked(), 3u);
  EXPECT_TRUE(repl.erase(2));
  EXPECT_EQ(repl.tracked(), 2u);
  EXPECT_FALSE(repl.erase(2)) << "double-erase must be a no-op";
  // A forgotten flow is decided afresh on its next packet.
  auto p = f.make(2, 2'000);
  EXPECT_TRUE(repl.route(*p, f.ctx, f.out));
  EXPECT_EQ(repl.flows_seen(), 4u);
  EXPECT_EQ(repl.flows_replicated(), 4u);
}

// ---------------------------------------------------------------------------
// core::Merge under flow replication (every sequence sent as two copies).

TEST(MergeFlowCopies, EndFlowRetiresInFlightCopies) {
  sim::EventQueue eq;
  net::PacketPool pool{64, 256};
  std::size_t egressed = 0;
  core::Merge merge(eq, {}, [&](net::PacketPtr) { ++egressed; });
  auto arrive = [&](std::uint32_t flow, std::uint64_t seq) {
    auto p = pool.alloc();
    p->anno().flow_id = flow;
    p->anno().seq = seq;
    return !merge.receive(std::move(p));  // true iff the copy won
  };
  for (std::uint64_t seq = 0; seq < 3; ++seq) merge.expect(3, seq, 2);
  merge.expect(4, 0, 2);
  EXPECT_TRUE(arrive(3, 0));
  EXPECT_FALSE(arrive(3, 0)) << "second copy of a sequence is dropped";
  EXPECT_TRUE(arrive(3, 2));  // early: held for seq 1
  EXPECT_EQ(merge.reorder().buffered(), 1u);
  EXPECT_EQ(merge.dedup().pending(), 3u);
  // Flow 3 completes with copies still in flight: its dedup entries and
  // its window retire (the held seq 2 leaves now); flow 4's survive.
  merge.end_flow(3, 3);
  EXPECT_EQ(merge.dedup().pending(), 1u);
  EXPECT_EQ(merge.reorder().buffered(), 0u);
  EXPECT_EQ(merge.reorder().tracked_flows(), 0u);
  EXPECT_EQ(egressed, 2u);
  // The straggler copies arrive after the end: late drops, not deliveries.
  EXPECT_FALSE(arrive(3, 1));
  EXPECT_FALSE(arrive(3, 2));
  EXPECT_EQ(merge.dedup().late_drops(), 2u);
  EXPECT_TRUE(arrive(4, 0));
  EXPECT_EQ(egressed, 3u);
  EXPECT_EQ(pool.in_use(), 0u);
}

// ---------------------------------------------------------------------------
// MdpDataPlane end to end.

struct DpFixture {
  sim::EventQueue eq;
  net::PacketPool pool{4096, 2048};
  std::unique_ptr<core::MdpDataPlane> dp;
  /// (flow, seq, egress_ns): the byte-identity artifact.
  std::vector<std::tuple<std::uint32_t, std::uint64_t, std::uint64_t>> log;

  ~DpFixture() { eq.clear(); }

  explicit DpFixture(core::DataPlaneConfig cfg) {
    cfg.num_paths = 4;
    dp = std::make_unique<core::MdpDataPlane>(eq, pool, cfg,
                                              core::make_scheduler("rss"));
    dp->set_egress([this](net::PacketPtr p) {
      log.emplace_back(p->anno().flow_id, p->anno().seq,
                       p->anno().egress_ns);
    });
  }

  void send(std::uint32_t flow, sim::TimeNs at, std::uint32_t flow_bytes) {
    eq.schedule_at(at, [this, flow, flow_bytes] {
      net::BuildSpec spec;
      spec.flow = {0x0a010101 + flow, 0x0a006401,
                   static_cast<std::uint16_t>(1024 + flow), 80, 0};
      auto pkt = net::build_udp(pool, spec);
      ASSERT_TRUE(pkt);
      auto& a = pkt->anno();
      a.flow_id = flow;
      a.flow_hash = net::hash_flow(spec.flow);
      a.flow_bytes = flow_bytes;
      a.ingress_ns = eq.now();
      dp->ingress(std::move(pkt));
    });
  }

  void drive(std::uint32_t flows = 6, int per_flow = 60,
             std::uint32_t flow_bytes = 2'000) {
    sim::TimeNs t = 0;
    for (int i = 0; i < per_flow; ++i)
      for (std::uint32_t fl = 0; fl < flows; ++fl)
        send(fl, t += 600, flow_bytes);
    eq.run();
  }
};

TEST(DataPlaneReplication, DisabledIsByteIdenticalToSeed) {
  core::DataPlaneConfig off{};  // flow_repl defaulted off: the seed plane
  DpFixture a(off);
  a.drive();

  // Enabled, but every flow is an elephant: the replicator decides and
  // gates each flow without touching dispatch.
  core::DataPlaneConfig gated{};
  gated.flow_repl.enabled = true;
  gated.flow_repl.size_cutoff_bytes = 1'000;
  DpFixture b(gated);
  b.drive();

  ASSERT_FALSE(a.log.empty());
  EXPECT_EQ(a.log, b.log)
      << "a replicator that replicates nothing must not perturb egress "
         "order or timing by a single event";
  EXPECT_EQ(
      b.dp->fast_counters().get(core::DpCounter::kFlowReplicas), 0u);
  EXPECT_EQ(b.dp->flow_replicator()->size_gated(), 6u);
}

TEST(DataPlaneReplication, ReplicatedFlowsStayExactlyOnceInOrder) {
  core::DataPlaneConfig cfg{};
  cfg.flow_repl.enabled = true;
  cfg.flow_repl.size_cutoff_bytes = 30'000;
  DpFixture f(cfg);
  constexpr std::uint32_t kFlows = 6;
  constexpr int kPerFlow = 60;
  constexpr auto kPkts = static_cast<std::uint64_t>(kFlows * kPerFlow);
  f.drive(kFlows, kPerFlow, /*flow_bytes=*/2'000);

  EXPECT_EQ(f.log.size(), kPkts)
      << "every (flow, seq) must egress exactly once despite double-send";
  const auto& fc = f.dp->fast_counters();
  EXPECT_EQ(fc.get(core::DpCounter::kFlowReplicas), kPkts)
      << "every packet of every short flow must have sent a second copy";
  EXPECT_EQ(f.dp->flow_replicator()->flows_replicated(), kFlows);
  EXPECT_GT(f.dp->dedup().dup_drops(), 0u) << "losing copies must be real";
  EXPECT_GT(f.dp->extra_copy_bytes(), 0u);

  std::map<std::uint32_t, std::uint64_t> next;
  for (const auto& [flow, seq, ns] : f.log) {
    EXPECT_EQ(seq, next[flow]) << "flow " << flow;
    next[flow] = seq + 1;
  }
  EXPECT_EQ(f.pool.in_use(), 0u) << "no leaks";

  // Flow completion retires all per-flow state.
  for (std::uint32_t fl = 0; fl < kFlows; ++fl) f.dp->end_flow(fl);
  EXPECT_EQ(f.dp->flow_replicator()->tracked(), 0u);
  EXPECT_EQ(f.dp->dedup().pending(), 0u);
  EXPECT_EQ(f.dp->reorder().tracked_flows(), 0u);
  EXPECT_EQ(f.dp->seq_tracked_flows(), 0u);
}

TEST(DataPlaneReplication, EndFlowRetiresAllPerFlowStateUnderChurn) {
  // 100k one-packet flows, each sent as two copies and ended from inside
  // the egress callback (the RpcWorkload pattern: the resequencer is
  // still draining that flow when end_flow runs). Nothing per-flow may
  // outlive its flow.
  core::DataPlaneConfig cfg{};
  cfg.num_paths = 4;
  cfg.chain = "ipcheck";
  cfg.flow_repl.enabled = true;
  sim::EventQueue eq;
  net::PacketPool pool{1024, 256};
  core::MdpDataPlane dp(eq, pool, cfg, core::make_scheduler("rss"));
  constexpr std::uint32_t kFlows = 100'000;
  std::vector<std::uint8_t> delivered(kFlows, 0);
  dp.set_egress([&](net::PacketPtr p) {
    ++delivered[p->anno().flow_id];
    dp.end_flow(p->anno().flow_id);
  });
  for (std::uint32_t fl = 0; fl < kFlows; ++fl) {
    eq.schedule_at(static_cast<sim::TimeNs>(fl) * 600, [&, fl] {
      net::BuildSpec spec;
      spec.flow = {0x0a010101 + fl, 0x0a006401, 1024, 80, 0};
      auto pkt = net::build_udp(pool, spec);
      ASSERT_TRUE(pkt);
      auto& a = pkt->anno();
      a.flow_id = fl;
      a.flow_hash = fl * 0x9e3779b97f4a7c15ULL;
      a.flow_bytes = 200;
      dp.ingress(std::move(pkt));
    });
  }
  eq.run();

  EXPECT_EQ(dp.flow_replicator()->flows_replicated(), kFlows);
  EXPECT_EQ(dp.fast_counters().get(core::DpCounter::kFlowReplicas), kFlows);
  EXPECT_EQ(std::count(delivered.begin(), delivered.end(), 1),
            static_cast<std::ptrdiff_t>(kFlows))
      << "every packet delivered exactly once";
  EXPECT_EQ(dp.dedup().late_drops(), kFlows)
      << "each losing copy arrived after its flow ended";
  EXPECT_EQ(dp.reorder().tracked_flows(), 0u);
  EXPECT_EQ(dp.seq_tracked_flows(), 0u);
  EXPECT_EQ(dp.dedup().pending(), 0u);
  EXPECT_EQ(dp.flow_replicator()->tracked(), 0u);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(DataPlaneReplication, ElephantsAreGatedToSinglePath) {
  core::DataPlaneConfig cfg{};
  cfg.flow_repl.enabled = true;
  cfg.flow_repl.size_cutoff_bytes = 30'000;
  DpFixture f(cfg);
  f.drive(/*flows=*/4, /*per_flow=*/40, /*flow_bytes=*/1'000'000);
  EXPECT_EQ(f.dp->fast_counters().get(core::DpCounter::kFlowReplicas), 0u);
  EXPECT_EQ(f.dp->flow_replicator()->flows_replicated(), 0u);
  EXPECT_EQ(f.dp->flow_replicator()->size_gated(), 4u);
  EXPECT_EQ(f.log.size(), 160u);
  EXPECT_EQ(f.pool.in_use(), 0u);
}

}  // namespace
}  // namespace mdp

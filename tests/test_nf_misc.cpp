// Token bucket, flow monitor, and chain builder tests.
#include <gtest/gtest.h>

#include "click/elements.hpp"
#include "click/router.hpp"
#include "net/packet_builder.hpp"
#include "net/vxlan.hpp"
#include "nf/chain.hpp"
#include "nf/conntrack.hpp"
#include "nf/flow_monitor.hpp"
#include "nf/load_balancer.hpp"
#include "nf/nat.hpp"
#include "nf/rate_limiter.hpp"

namespace mdp::nf {
namespace {

TEST(TokenBucket, AdmitsWithinBurst) {
  TokenBucket tb(/*rate_bps=*/1'000'000, /*burst=*/1000);
  EXPECT_TRUE(tb.admit(1000, 0));
  EXPECT_FALSE(tb.admit(1, 0)) << "bucket drained";
}

TEST(TokenBucket, RefillsAtConfiguredRate) {
  TokenBucket tb(1'000'000, 1000);  // 1 MB/s = 1 byte/us
  EXPECT_TRUE(tb.admit(1000, 0));
  // 500us later: 500 bytes refilled.
  EXPECT_TRUE(tb.admit(400, 500'000));
  EXPECT_FALSE(tb.admit(200, 500'000));
  // Long idle caps at burst.
  EXPECT_TRUE(tb.admit(1000, 10'000'000'000ULL));
  EXPECT_FALSE(tb.admit(1001, 10'000'000'001ULL));
}

TEST(TokenBucket, LongRunThroughputMatchesRate) {
  TokenBucket tb(1'000'000, 2000);
  std::uint64_t t = 0;
  std::uint64_t passed_bytes = 0;
  for (int i = 0; i < 100'000; ++i) {
    t += 500;  // 2 M packets/s offered, way over rate
    if (tb.admit(100, t)) passed_bytes += 100;
  }
  double achieved_bps = static_cast<double>(passed_bytes) * 1e9 /
                        static_cast<double>(t);
  EXPECT_NEAR(achieved_bps, 1'000'000, 50'000);
}

TEST(RateLimiterElement, SplitsConformingAndExcess) {
  sim::EventQueue eq;
  net::PacketPool pool(64, 2048);
  click::Router router(click::Router::Context{&eq, &pool});
  std::string err;
  // 0.008 Mbps = 1000 bytes/s; burst 1 KB.
  ASSERT_TRUE(router.configure(R"(
    rl :: RateLimiter(0.008, 1);
    ok :: Counter; drop :: Counter;
    rl [0] -> ok -> Discard; rl [1] -> drop -> Discard;
  )",
                               &err))
      << err;
  ASSERT_TRUE(router.initialize(&err)) << err;
  net::BuildSpec spec;
  spec.flow = {1, 2, 3, 4, 17};
  spec.payload_len = 400;
  auto* rl = router.find("rl");
  for (int i = 0; i < 5; ++i) {
    auto pkt = net::build_udp(pool, spec);
    pkt->anno().ingress_ns = 1000 * i;  // all within ~0 time
    rl->push(0, std::move(pkt));
  }
  auto* ok = router.find_as<click::Counter>("ok");
  auto* drop = router.find_as<click::Counter>("drop");
  EXPECT_GE(ok->packets(), 1u);
  EXPECT_GE(drop->packets(), 1u);
  EXPECT_EQ(ok->packets() + drop->packets(), 5u);
}

TEST(FlowMonitorCore, TracksPerFlowStats) {
  FlowMonitorCore mon(16);
  net::FlowKey f{1, 2, 3, 4, 17};
  mon.record(f, 100, 1000);
  mon.record(f, 200, 2000);
  const FlowStats* st = mon.lookup(f);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->packets, 2u);
  EXPECT_EQ(st->bytes, 300u);
  EXPECT_EQ(st->first_seen_ns, 1000u);
  EXPECT_EQ(st->last_seen_ns, 2000u);
  EXPECT_EQ(mon.lookup(net::FlowKey{9, 9, 9, 9, 6}), nullptr);
}

TEST(FlowMonitorCore, TopKReturnsHeaviest) {
  FlowMonitorCore mon(64);
  for (std::uint32_t i = 0; i < 10; ++i) {
    net::FlowKey f{i, 2, 3, 4, 17};
    mon.record(f, (i + 1) * 1000, 0);
  }
  auto top = mon.top_k(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].second.bytes, 10'000u);
  EXPECT_EQ(top[1].second.bytes, 9'000u);
  EXPECT_EQ(top[2].second.bytes, 8'000u);
}

TEST(FlowMonitorCore, BoundedTableCountsOverflow) {
  FlowMonitorCore mon(2);
  for (std::uint32_t i = 0; i < 5; ++i)
    mon.record(net::FlowKey{i, 2, 3, 4, 17}, 10, 0);
  EXPECT_EQ(mon.num_flows(), 2u);
  EXPECT_EQ(mon.overflow(), 3u);
}

TEST(ChainSpec, PresetsHaveExpectedLengths) {
  EXPECT_EQ(ChainSpec::preset("ipcheck").length(), 1u);
  EXPECT_EQ(ChainSpec::preset("fw").length(), 2u);
  EXPECT_EQ(ChainSpec::preset("stateful").length(), 2u);
  EXPECT_EQ(ChainSpec::preset("fw-nat").length(), 3u);
  EXPECT_EQ(ChainSpec::preset("fw-nat-lb").length(), 4u);
  EXPECT_EQ(ChainSpec::preset("fw-nat-lb-mon").length(), 5u);
  EXPECT_EQ(ChainSpec::preset("overlay").length(), 5u);
  EXPECT_EQ(ChainSpec::preset("full").length(), 6u);
  EXPECT_EQ(ChainSpec::preset("no-such").length(), 0u);
}

TEST(ChainBuilder, OverlayChainEncapsulates) {
  sim::EventQueue eq;
  net::PacketPool pool(64, 2048);
  click::Router router(click::Router::Context{&eq, &pool});
  std::string err;
  auto built =
      build_chain(router, "c", ChainSpec::preset("overlay"), &err);
  ASSERT_TRUE(built) << err;
  auto* q = router.add_element("q", "Queue", {"8"}, &err);
  ASSERT_TRUE(router.connect(built->tail, 0, q, 0, &err)) << err;
  ASSERT_TRUE(router.initialize(&err)) << err;

  net::BuildSpec spec;
  spec.flow = {0x0a010101, 0x0a006401, 1234, 80, 0};
  std::size_t inner_len = net::frame_length(spec, net::kIpProtoUdp);
  built->head->push(0, net::build_udp(pool, spec));
  auto out = router.find_as<click::Queue>("q")->pull(0);
  ASSERT_TRUE(out);
  EXPECT_EQ(out->length(), inner_len + net::kVxlanOverhead);
  auto parsed = net::parse(*out);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->flow.dst_port, net::kVxlanPort);
}

TEST(ChainBuilder, BuildsAndCostsGrowWithLength) {
  sim::EventQueue eq;
  net::PacketPool pool(64, 2048);
  click::Router router(click::Router::Context{&eq, &pool});
  std::string err;
  sim::TimeNs prev_cost = 0;
  int idx = 0;
  for (const auto& name : ChainSpec::preset_names()) {
    auto built = build_chain(router, "c" + std::to_string(idx++),
                             ChainSpec::preset(name), &err);
    ASSERT_TRUE(built) << name << ": " << err;
    EXPECT_GT(built->cost_ns, prev_cost)
        << "longer chain must cost more (" << name << ")";
    prev_cost = built->cost_ns;
  }
}

TEST(ChainBuilder, FunctionalEndToEndThroughFullChain) {
  sim::EventQueue eq;
  net::PacketPool pool(64, 2048);
  click::Router router(click::Router::Context{&eq, &pool});
  std::string err;
  auto built =
      build_chain(router, "c", ChainSpec::preset("fw-nat-lb"), &err);
  ASSERT_TRUE(built) << err;
  // Terminate with a queue so we can inspect the output.
  auto* q = router.add_element("q", "Queue", {"16"}, &err);
  ASSERT_NE(q, nullptr) << err;
  ASSERT_TRUE(router.connect(built->tail, 0, q, 0, &err)) << err;
  ASSERT_TRUE(router.initialize(&err)) << err;

  net::BuildSpec spec;
  spec.flow = {0x0a010101, 0x0a006401, 1234, 80, 0};  // allowed src, VIP dst
  built->head->push(0, net::build_udp(pool, spec));
  auto out = router.find_as<click::Queue>("q")->pull(0);
  ASSERT_TRUE(out) << "packet must traverse fw->nat->lb";
  auto parsed = net::parse(*out);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->flow.src_ip, 0x0a0a0a0au) << "NAT applied";
  EXPECT_NE(parsed->flow.dst_ip, 0x0a006401u) << "LB applied";
}

TEST(ChainBuilder, DistinctChainsInOneRouterKeepTheirOwnState) {
  sim::EventQueue eq;
  net::PacketPool pool(64, 2048);
  click::Router router(click::Router::Context{&eq, &pool});
  std::string err;
  auto a = build_chain(router, "a", ChainSpec::preset("fw-nat-lb"), &err);
  auto b = build_chain(router, "b", ChainSpec::preset("full"), &err);
  ASSERT_TRUE(a && b) << err;
  ASSERT_TRUE(router.initialize(&err)) << err;
  auto* nat_a = dynamic_cast<Nat*>(a->stages[2]);
  auto* nat_b = dynamic_cast<Nat*>(b->stages[2]);
  auto* lb_a = dynamic_cast<LoadBalancer*>(a->stages[3]);
  auto* lb_b = dynamic_cast<LoadBalancer*>(b->stages[3]);
  ASSERT_TRUE(nat_a && nat_b && lb_a && lb_b);
  EXPECT_NE(&nat_a->table(), &nat_b->table());
  EXPECT_NE(&lb_a->core(), &lb_b->core());

  net::BuildSpec spec;
  spec.flow = {0x0a010101, 0x0a006401, 1234, 80, 0};
  a->head->push(0, net::build_udp(pool, spec));
  EXPECT_EQ(nat_a->table().size(), 1u);
  EXPECT_EQ(nat_b->table().size(), 0u) << "b never saw the flow";
}

TEST(ChainBuilder, ReplicaBindsToThePrimaryState) {
  sim::EventQueue eq;
  net::PacketPool pool(64, 2048);
  click::Router router(click::Router::Context{&eq, &pool});
  std::string err;
  const ChainSpec spec = ChainSpec::preset("fw-nat-lb");
  auto primary = build_chain(router, "p", spec, &err);
  ASSERT_TRUE(primary) << err;
  auto replica = build_chain(router, "r", spec, &err, &*primary);
  ASSERT_TRUE(replica) << err;
  ASSERT_EQ(replica->stages.size(), spec.length());
  ASSERT_TRUE(router.initialize(&err)) << err;
  auto* nat_p = dynamic_cast<Nat*>(primary->stages[2]);
  auto* nat_r = dynamic_cast<Nat*>(replica->stages[2]);
  ASSERT_TRUE(nat_p && nat_r);
  EXPECT_EQ(&nat_p->table(), &nat_r->table());

  // A replica of a chain with other stages is refused.
  EXPECT_FALSE(build_chain(router, "x", ChainSpec::preset("full"), &err,
                           &*primary));
  EXPECT_FALSE(build_chain(router, "y", ChainSpec::preset("stateful"), &err,
                           &*primary));
}

TEST(ChainBuilder, StandaloneStatefulElementsWorkAfterInitialize) {
  sim::EventQueue eq;
  net::PacketPool pool(64, 2048);
  click::Router router(click::Router::Context{&eq, &pool});
  std::string err;
  ASSERT_TRUE(router.configure(
      "nat :: Nat(10.10.10.10); lb :: LoadBalancer(10.0.100.1, 10.0.200.1, "
      "policy rr); sfw :: StatefulFirewall(default allow); "
      "mon :: FlowMonitor(16); q :: Queue(8); "
      "nat -> lb -> sfw -> mon -> q;",
      &err))
      << err;
  ASSERT_TRUE(router.initialize(&err)) << err;

  net::BuildSpec spec;
  spec.flow = {0x0a010101, 0x0a006401, 1234, 80, 0};
  router.find("nat")->push(0, net::build_udp(pool, spec));
  ASSERT_TRUE(router.find_as<click::Queue>("q")->pull(0));
  EXPECT_EQ(router.find_as<Nat>("nat")->table().size(), 1u);
  auto& lb = router.find_as<LoadBalancer>("lb")->core();
  EXPECT_EQ(lb.policy(), LoadBalancerCore::Policy::kWeightedRR);
  EXPECT_EQ(lb.num_backends(), 1u);
  EXPECT_EQ(lb.affinity_entries(), 1u);
  EXPECT_EQ(router.find_as<StatefulFirewall>("sfw")->tracker().size(), 1u);
  EXPECT_EQ(router.find_as<FlowMonitor>("mon")->core().num_flows(), 1u);
}

TEST(ChainBuilder, UnknownPresetFails) {
  sim::EventQueue eq;
  net::PacketPool pool(8, 2048);
  click::Router router(click::Router::Context{&eq, &pool});
  std::string err;
  EXPECT_FALSE(build_chain(router, "x", ChainSpec::preset("nope"), &err));
}

}  // namespace
}  // namespace mdp::nf

// NAT tests: binding stability, port uniqueness, reverse lookups, LRU and
// idle expiry, and in-place packet rewriting with valid checksums.
#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "click/elements.hpp"
#include "click/router.hpp"
#include "net/checksum.hpp"
#include "net/packet_builder.hpp"
#include "nf/nat.hpp"

namespace mdp::nf {
namespace {

net::FlowKey flow_n(std::uint32_t n) {
  return net::FlowKey{0xc0a80000 + n, 0x08080808,
                      static_cast<std::uint16_t>(1000 + n % 50000), 443,
                      net::kIpProtoTcp};
}

// The evict callback captures the table's `this`: a copied or moved table
// would return freed ports to the wrong pool.
static_assert(!std::is_copy_constructible_v<NatTable> &&
              !std::is_copy_assignable_v<NatTable> &&
              !std::is_move_constructible_v<NatTable> &&
              !std::is_move_assignable_v<NatTable>);

TEST(NatTable, BindingIsStablePerFlow) {
  NatTable t;
  auto p1 = t.translate(flow_n(1), 100);
  auto p2 = t.translate(flow_n(1), 200);
  ASSERT_TRUE(p1 && p2);
  EXPECT_EQ(*p1, *p2);
  EXPECT_EQ(t.size(), 1u);
}

TEST(NatTable, DistinctFlowsGetDistinctPorts) {
  NatTable t;
  std::set<std::uint16_t> ports;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    auto p = t.translate(flow_n(i), i);
    ASSERT_TRUE(p);
    EXPECT_TRUE(ports.insert(*p).second) << "port " << *p << " reused";
  }
}

TEST(NatTable, PortsComeFromConfiguredRange) {
  NatConfig cfg;
  cfg.port_lo = 20000;
  cfg.port_hi = 20010;
  NatTable t(cfg);
  for (std::uint32_t i = 0; i < 11; ++i) {
    auto p = t.translate(flow_n(i), i);
    ASSERT_TRUE(p);
    EXPECT_GE(*p, 20000);
    EXPECT_LE(*p, 20010);
  }
}

TEST(NatTable, ReverseLookupFindsOwner) {
  NatTable t;
  auto p = t.translate(flow_n(7), 0);
  ASSERT_TRUE(p);
  auto owner = t.reverse(*p);
  ASSERT_TRUE(owner);
  EXPECT_EQ(*owner, flow_n(7));
  EXPECT_FALSE(t.reverse(1).has_value());
}

TEST(NatTable, LruEvictionWhenPortsExhausted) {
  NatConfig cfg;
  cfg.port_lo = 30000;
  cfg.port_hi = 30002;  // 3 ports
  NatTable t(cfg);
  ASSERT_TRUE(t.translate(flow_n(0), 0));
  ASSERT_TRUE(t.translate(flow_n(1), 1));
  ASSERT_TRUE(t.translate(flow_n(2), 2));
  // Refresh flow 0 so flow 1 is the LRU.
  ASSERT_TRUE(t.translate(flow_n(0), 3));
  auto p = t.translate(flow_n(3), 4);
  ASSERT_TRUE(p) << "eviction must free a port";
  EXPECT_EQ(t.evictions(), 1u);
  // Flow 1 (the LRU) must be gone; flow 0 must survive.
  auto p0 = t.translate(flow_n(0), 5);
  ASSERT_TRUE(p0);
  EXPECT_EQ(t.size(), 3u);
}

TEST(NatTable, IdleExpiryRemovesOldBindings) {
  NatConfig cfg;
  cfg.idle_timeout_ns = 1000;
  NatTable t(cfg);
  t.translate(flow_n(0), 0);
  t.translate(flow_n(1), 1500);
  EXPECT_EQ(t.expire(2000), 1u) << "only flow 0 is older than the timeout";
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.expire(10'000), 1u);
  EXPECT_EQ(t.size(), 0u);
}

TEST(NatTable, MaxEntriesTriggersEviction) {
  NatConfig cfg;
  cfg.max_entries = 4;
  NatTable t(cfg);
  for (std::uint32_t i = 0; i < 10; ++i)
    ASSERT_TRUE(t.translate(flow_n(i), i));
  EXPECT_LE(t.size(), 4u);
}

struct NatElementFixture : ::testing::Test {
  sim::EventQueue eq;
  net::PacketPool pool{64, 2048};
  click::Router router{click::Router::Context{&eq, &pool}};
  click::Counter* out = nullptr;
  Nat* nat = nullptr;

  void SetUp() override {
    std::string err;
    ASSERT_TRUE(router.configure(
        "nat :: Nat(10.10.10.10); chk :: CheckIPHeader; out :: Counter; "
        "nat -> chk -> out -> Discard;",
        &err))
        << err;
    ASSERT_TRUE(router.initialize(&err)) << err;
    out = router.find_as<click::Counter>("out");
    nat = router.find_as<Nat>("nat");
  }
};

TEST_F(NatElementFixture, RewritesSourceAndKeepsChecksumsValid) {
  net::BuildSpec spec;
  spec.flow = {0xc0a80101, 0x08080808, 3333, 443, 0};
  auto pkt = net::build_tcp(pool, spec);

  // Intercept at the egress: reconfigure is complex, so push and inspect
  // via the NAT table + the CheckIPHeader pass-through count.
  nat->push(0, std::move(pkt));
  EXPECT_EQ(out->packets(), 1u)
      << "rewritten packet must still pass IPv4 header validation";
  EXPECT_EQ(nat->translated(), 1u);

  auto parsed_flow = spec.flow;
  parsed_flow.protocol = net::kIpProtoTcp;
  auto port = nat->table().translate(parsed_flow, 0);
  ASSERT_TRUE(port);
  auto rev = nat->table().reverse(*port);
  ASSERT_TRUE(rev);
  EXPECT_EQ(rev->src_ip, 0xc0a80101u);
}

TEST_F(NatElementFixture, TcpChecksumStillVerifies) {
  net::BuildSpec spec;
  spec.flow = {0xc0a80102, 0x08080808, 4444, 443, 0};
  spec.payload_len = 33;
  auto pkt = net::build_tcp(pool, spec);
  // Snapshot before push via a side channel: run the NAT inline.
  net::Packet* raw = pkt.get();
  nat->push(0, std::move(pkt));
  // The packet has been recycled by Discard; re-do the rewrite on a fresh
  // packet and verify L4 checksum manually instead.
  auto pkt2 = net::build_tcp(pool, spec);
  raw = pkt2.get();
  (void)raw;
  // Manually apply a NAT-equivalent rewrite path: use a second NAT element
  // wired into a capture sink.
  click::Router r2(click::Router::Context{&eq, &pool});
  std::string err;
  ASSERT_TRUE(r2.configure("n :: Nat(10.10.10.10); q :: Queue(4); n -> q;",
                           &err))
      << err;
  ASSERT_TRUE(r2.initialize(&err)) << err;
  r2.find("n")->push(0, std::move(pkt2));
  auto got = r2.find_as<click::Queue>("q")->pull(0);
  ASSERT_TRUE(got);
  auto parsed = net::parse(*got);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->flow.src_ip, 0x0a0a0a0au) << "src must be external IP";
  // Verify the TCP checksum over the pseudo header folds to zero.
  net::Ipv4View ip(got->data() + parsed->l3_offset);
  std::uint16_t l4_len =
      static_cast<std::uint16_t>(ip.total_length() - ip.header_len());
  std::uint32_t sum = net::pseudo_header_sum(ip.src(), ip.dst(),
                                             ip.protocol(), l4_len);
  sum = net::checksum_partial(got->data() + parsed->l4_offset, l4_len, sum);
  EXPECT_EQ(net::checksum_fold(sum), 0);
}

TEST_F(NatElementFixture, NonIpGoesToFailPortOrDrops) {
  auto junk = pool.alloc();
  junk->set_length(30);
  std::size_t in_use = pool.in_use();
  nat->push(0, std::move(junk));
  EXPECT_EQ(nat->failed(), 1u);
  EXPECT_EQ(pool.in_use(), in_use - 1) << "untranslatable packet recycles";
}

TEST(NatElement, ConfigRejectsBadArgs) {
  sim::EventQueue eq;
  net::PacketPool pool(8, 2048);
  click::Router r(click::Router::Context{&eq, &pool});
  std::string err;
  EXPECT_FALSE(r.configure("n :: Nat(notanip);", &err));
  click::Router r2(click::Router::Context{&eq, &pool});
  EXPECT_FALSE(r2.configure("n :: Nat(10.0.0.1, 500);", &err));
  click::Router r3(click::Router::Context{&eq, &pool});
  EXPECT_FALSE(r3.configure("n :: Nat(10.0.0.1, 9000, 100);", &err));
}

}  // namespace
}  // namespace mdp::nf

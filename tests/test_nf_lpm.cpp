// LPM table and IPLookup element tests, plus link-scheduler elements
// (PrioSched / DrrSched) and the FlowCache fast path.
#include <gtest/gtest.h>

#include <algorithm>

#include "click/elements.hpp"
#include "click/elements_sched.hpp"
#include "click/router.hpp"
#include "net/checksum.hpp"
#include "net/headers.hpp"
#include "net/packet_builder.hpp"
#include "nf/flow_cache.hpp"
#include "nf/lpm.hpp"
#include "sim/rng.hpp"

namespace mdp::nf {
namespace {

std::uint32_t ip(const char* s) {
  std::uint32_t v = 0;
  EXPECT_TRUE(net::ipv4_from_string(s, &v));
  return v;
}

TEST(LpmTable, LongestPrefixWinsRegardlessOfInsertOrder) {
  LpmTable t;
  t.insert(Prefix{ip("10.0.0.0"), 8}, 1);
  t.insert(Prefix{ip("10.1.0.0"), 16}, 2);
  t.insert(Prefix{ip("10.1.2.0"), 24}, 3);
  EXPECT_EQ(t.lookup(ip("10.1.2.3")), 3);
  EXPECT_EQ(t.lookup(ip("10.1.9.9")), 2);
  EXPECT_EQ(t.lookup(ip("10.9.9.9")), 1);
  EXPECT_FALSE(t.lookup(ip("11.0.0.1")).has_value());

  // Same routes in reverse order: identical answers.
  LpmTable t2;
  t2.insert(Prefix{ip("10.1.2.0"), 24}, 3);
  t2.insert(Prefix{ip("10.1.0.0"), 16}, 2);
  t2.insert(Prefix{ip("10.0.0.0"), 8}, 1);
  for (const char* a : {"10.1.2.3", "10.1.9.9", "10.9.9.9"})
    EXPECT_EQ(t.lookup(ip(a)), t2.lookup(ip(a))) << a;
}

TEST(LpmTable, DefaultRouteCatchesEverything) {
  LpmTable t;
  t.insert(Prefix{0, 0}, 99);
  t.insert(Prefix{ip("192.168.0.0"), 16}, 1);
  EXPECT_EQ(t.lookup(ip("8.8.8.8")), 99);
  EXPECT_EQ(t.lookup(ip("192.168.1.1")), 1);
}

TEST(LpmTable, HostRoutesAndRemoval) {
  LpmTable t;
  t.insert(Prefix{ip("10.0.0.0"), 8}, 1);
  t.insert(Prefix{ip("10.0.0.5"), 32}, 7);
  EXPECT_EQ(t.lookup(ip("10.0.0.5")), 7);
  EXPECT_TRUE(t.remove(Prefix{ip("10.0.0.5"), 32}));
  EXPECT_EQ(t.lookup(ip("10.0.0.5")), 1) << "falls back to the /8";
  EXPECT_FALSE(t.remove(Prefix{ip("10.0.0.5"), 32})) << "already gone";
  EXPECT_EQ(t.num_routes(), 1u);
}

TEST(LpmTable, OverwriteKeepsRouteCount) {
  LpmTable t;
  t.insert(Prefix{ip("10.0.0.0"), 8}, 1);
  t.insert(Prefix{ip("10.0.0.0"), 8}, 5);
  EXPECT_EQ(t.num_routes(), 1u);
  EXPECT_EQ(t.lookup(ip("10.1.1.1")), 5);
}

TEST(LpmTable, AgreesWithLinearScanOnRandomInputs) {
  sim::Rng rng(606);
  LpmTable t;
  std::vector<std::pair<Prefix, int>> routes;
  for (int i = 0; i < 200; ++i) {
    Prefix p;
    p.len = static_cast<std::uint8_t>(rng.uniform_u64(25) + 8);
    std::uint32_t mask =
        p.len >= 32 ? 0xffffffffu : ~(0xffffffffu >> p.len);
    p.addr = static_cast<std::uint32_t>(rng.next_u64()) & mask;
    // Overwrite semantics: last insert for a prefix wins, mirror that.
    int v = i;
    t.insert(p, v);
    bool replaced = false;
    for (auto& [rp, rv] : routes)
      if (rp.addr == p.addr && rp.len == p.len) {
        rv = v;
        replaced = true;
      }
    if (!replaced) routes.emplace_back(p, v);
  }
  for (int i = 0; i < 20'000; ++i) {
    std::uint32_t addr = static_cast<std::uint32_t>(rng.next_u64());
    if (rng.bernoulli(0.5) && !routes.empty()) {
      // Bias toward covered space.
      const auto& [rp, rv] = routes[rng.uniform_u64(routes.size())];
      std::uint32_t mask =
          rp.len >= 32 ? 0xffffffffu : ~(0xffffffffu >> rp.len);
      addr = (rp.addr & mask) | (addr & ~mask);
    }
    // Linear reference: longest matching prefix, latest on tie len.
    int best = -1, best_len = -1;
    for (const auto& [rp, rv] : routes)
      if (rp.contains(addr) && rp.len > best_len) {
        best_len = rp.len;
        best = rv;
      }
    auto got = t.lookup(addr);
    if (best < 0) {
      ASSERT_FALSE(got.has_value()) << net::ipv4_to_string(addr);
    } else {
      ASSERT_TRUE(got.has_value()) << net::ipv4_to_string(addr);
      ASSERT_EQ(*got, best) << net::ipv4_to_string(addr);
    }
  }
}

TEST(IPLookupElement, RoutesByDstPrefix) {
  sim::EventQueue eq;
  net::PacketPool pool(64, 2048);
  click::Router router(click::Router::Context{&eq, &pool});
  std::string err;
  ASSERT_TRUE(router.configure(R"(
    rt :: IPLookup("10.0.0.0/8 0", "192.168.0.0/16 1", "0.0.0.0/0 2");
    a :: Counter; b :: Counter; c :: Counter;
    rt [0] -> a -> Discard; rt [1] -> b -> Discard; rt [2] -> c -> Discard;
  )",
                               &err))
      << err;
  ASSERT_TRUE(router.initialize(&err)) << err;
  auto send = [&](const char* dst) {
    net::BuildSpec spec;
    spec.flow = {ip("1.1.1.1"), ip(dst), 1, 2, 0};
    router.find("rt")->push(0, net::build_udp(pool, spec));
  };
  send("10.5.5.5");
  send("192.168.3.3");
  send("8.8.8.8");
  EXPECT_EQ(router.find_as<click::Counter>("a")->packets(), 1u);
  EXPECT_EQ(router.find_as<click::Counter>("b")->packets(), 1u);
  EXPECT_EQ(router.find_as<click::Counter>("c")->packets(), 1u);
}

TEST(IPLookupElement, ConfigErrors) {
  sim::EventQueue eq;
  net::PacketPool pool(8, 2048);
  std::string err;
  click::Router r1(click::Router::Context{&eq, &pool});
  EXPECT_FALSE(r1.configure("rt :: IPLookup;", &err));
  click::Router r2(click::Router::Context{&eq, &pool});
  EXPECT_FALSE(r2.configure("rt :: IPLookup(\"10.0.0.0/40 1\");", &err));
  click::Router r3(click::Router::Context{&eq, &pool});
  EXPECT_FALSE(r3.configure("rt :: IPLookup(\"10.0.0.0/8\");", &err));
}

// --- FlowCache ---------------------------------------------------------------

struct FlowCacheFixture : ::testing::Test {
  sim::EventQueue eq;
  net::PacketPool pool{256, 2048};
  click::Router router{click::Router::Context{&eq, &pool}};
  FlowCache* fc = nullptr;
  click::Queue* fast_out = nullptr;

  void SetUp() override {
    // miss path: cache [1] -> NAT chain -> back into cache input 1.
    std::string err;
    ASSERT_TRUE(router.configure(R"(
      fc :: FlowCache(1024);
      nat :: Nat(10.10.10.10);
      out :: Queue(64);
      fc [0] -> out;
      fc [1] -> nat -> [1] fc;
    )",
                                 &err))
        << err;
    ASSERT_TRUE(router.initialize(&err)) << err;
    fc = router.find_as<FlowCache>("fc");
    fast_out = router.find_as<click::Queue>("out");
  }

  void send(std::uint16_t sport, bool tcp = false) {
    net::BuildSpec spec;
    spec.flow = {0xc0a80101, 0x08080808, sport, 443, 0};
    spec.payload_len = 101;  // odd: the L4 sum ends on a pad byte
    fc->push(0, tcp ? net::build_tcp(pool, spec) : net::build_udp(pool, spec));
  }

  // True when the TCP/UDP checksum over pseudo-header and segment folds
  // to 0.
  static bool l4_checksum_valid(net::Packet& pkt,
                                const net::ParsedPacket& parsed) {
    net::Ipv4View ip(pkt.data() + parsed.l3_offset);
    const auto l4_len =
        static_cast<std::uint16_t>(ip.total_length() - ip.header_len());
    std::uint32_t sum =
        net::pseudo_header_sum(ip.src(), ip.dst(), ip.protocol(), l4_len);
    sum = net::checksum_partial(pkt.data() + parsed.l4_offset, l4_len, sum);
    return net::checksum_fold(sum) == 0;
  }
};

TEST_F(FlowCacheFixture, FirstPacketSlowPathRestHitCache) {
  send(1000);  // miss -> slow path -> learned
  EXPECT_EQ(fc->core().misses(), 1u);
  EXPECT_EQ(fc->core().hits(), 0u);
  EXPECT_EQ(fc->core().size(), 1u);
  for (int i = 0; i < 9; ++i) send(1000);
  EXPECT_EQ(fc->core().hits(), 9u);
  EXPECT_EQ(fc->core().misses(), 1u);
  EXPECT_NEAR(fc->core().hit_rate(), 0.9, 1e-9);
  EXPECT_EQ(fast_out->size(), 10u);
}

TEST_F(FlowCacheFixture, CachedRewriteMatchesSlowPathRewrite) {
  send(2000);
  auto slow = fast_out->pull(0);
  ASSERT_TRUE(slow);
  auto slow_parsed = net::parse(*slow);
  ASSERT_TRUE(slow_parsed);
  ASSERT_EQ(slow_parsed->flow.src_ip, 0x0a0a0a0au) << "NAT on slow path";

  send(2000);  // hit: the cache must reproduce the same rewrite
  auto fast = fast_out->pull(0);
  ASSERT_TRUE(fast);
  auto fast_parsed = net::parse(*fast);
  ASSERT_TRUE(fast_parsed);
  EXPECT_EQ(fast_parsed->flow, slow_parsed->flow)
      << "fast path must produce the slow path's 5-tuple";
  EXPECT_TRUE(net::validate_ipv4_csum(*fast, *fast_parsed));
}

TEST_F(FlowCacheFixture, CachedHitFrameEqualsSlowPathFrameUdpAndTcp) {
  for (const bool tcp : {false, true}) {
    const std::uint16_t sport = tcp ? 3001 : 3000;
    send(sport, tcp);  // miss: NAT rewrites and patches the checksums
    auto slow = fast_out->pull(0);
    send(sport, tcp);  // hit: the cache replays the rewrite
    auto fast = fast_out->pull(0);
    ASSERT_TRUE(slow && fast);
    auto parsed = net::parse(*fast);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->flow.protocol, tcp ? net::kIpProtoTcp : net::kIpProtoUdp);
    ASSERT_EQ(fast->length(), slow->length());
    EXPECT_TRUE(std::equal(fast->data(), fast->data() + fast->length(),
                           slow->data()))
        << (tcp ? "TCP" : "UDP") << ": cached frame differs from slow path";
    EXPECT_TRUE(net::validate_ipv4_csum(*fast, *parsed));
    EXPECT_TRUE(l4_checksum_valid(*fast, *parsed))
        << (tcp ? "TCP" : "UDP") << " checksum invalid after a cache hit";
  }
  EXPECT_EQ(fc->core().hits(), 2u);
}

TEST_F(FlowCacheFixture, DistinctFlowsDistinctEntries) {
  for (std::uint16_t p = 1; p <= 20; ++p) send(p);
  EXPECT_EQ(fc->core().size(), 20u);
  EXPECT_EQ(fc->core().misses(), 20u);
}

TEST_F(FlowCacheFixture, ConfiguredCapacityIsHonoured) {
  EXPECT_EQ(fc->core().capacity(), 1024u);  // FlowCache(1024)
  // A full cache displaces instead of growing past the configured bound.
  for (std::uint16_t p = 1; p <= 1100; ++p) {
    send(p);
    fast_out->pull(0);
  }
  EXPECT_EQ(fc->core().size(), 1024u);
  EXPECT_GE(fc->core().evictions(), 1100u - 1024u);

  // No argument: the documented default capacity.
  click::Router r(click::Router::Context{&eq, &pool});
  std::string err;
  ASSERT_TRUE(r.configure("fc :: FlowCache; fc [0] -> Discard; "
                          "fc [1] -> Discard;",
                          &err))
      << err;
  ASSERT_TRUE(r.initialize(&err)) << err;
  EXPECT_EQ(r.find_as<FlowCache>("fc")->core().capacity(), 32768u);
}

TEST(FlowCacheCore, LruEvictionAtCapacity) {
  FlowCacheCore c(2);
  net::FlowKey f1{1, 2, 3, 4, 17}, f2{2, 2, 3, 4, 17}, f3{3, 2, 3, 4, 17};
  c.install(f1, {});
  c.install(f2, {});
  c.lookup(f1);  // f1 recent, f2 is LRU
  c.install(f3, {});
  EXPECT_EQ(c.evictions(), 1u);
  EXPECT_NE(c.lookup(f1), nullptr);
  EXPECT_EQ(c.lookup(f2), nullptr) << "LRU entry must be the one evicted";
}

}  // namespace
}  // namespace mdp::nf

// --- link schedulers -------------------------------------------------------------

namespace mdp::click {
namespace {

struct SchedFixture : ::testing::Test {
  sim::EventQueue eq;
  net::PacketPool pool{512, 2048};
  Router router{Router::Context{&eq, &pool}};

  net::PacketPtr pkt_of_size(std::size_t payload, std::uint8_t paint) {
    net::BuildSpec spec;
    spec.flow = {1, 2, 3, 4, 17};
    spec.payload_len = payload;
    auto p = net::build_udp(pool, spec);
    p->anno().paint = paint;
    return p;
  }
};

TEST_F(SchedFixture, PrioSchedServesLowInputFirst) {
  std::string err;
  ASSERT_TRUE(router.configure(R"(
    hi :: Queue(16); lo :: Queue(16); ps :: PrioSched;
    hi -> [0] ps; lo -> [1] ps;
  )",
                               &err))
      << err;
  ASSERT_TRUE(router.initialize(&err)) << err;
  auto* hi = router.find_as<Queue>("hi");
  auto* lo = router.find_as<Queue>("lo");
  auto* ps = router.find("ps");
  lo->push(0, pkt_of_size(64, 1));
  hi->push(0, pkt_of_size(64, 0));
  auto first = ps->pull(0);
  ASSERT_TRUE(first);
  EXPECT_EQ(first->anno().paint, 0) << "high-priority input served first";
  auto second = ps->pull(0);
  ASSERT_TRUE(second);
  EXPECT_EQ(second->anno().paint, 1);
  EXPECT_FALSE(ps->pull(0));
}

TEST_F(SchedFixture, DrrIsByteFairAcrossUnequalPacketSizes) {
  std::string err;
  ASSERT_TRUE(router.configure(R"(
    big :: Queue(512); small :: Queue(512); drr :: DrrSched(500);
    big -> [0] drr; small -> [1] drr;
  )",
                               &err))
      << err;
  ASSERT_TRUE(router.initialize(&err)) << err;
  auto* big = router.find_as<Queue>("big");
  auto* small = router.find_as<Queue>("small");
  auto* drr = router.find_as<DrrSched>("drr");
  // Input 0: 1400B packets; input 1: 100B packets. Byte-fair service
  // means ~equal bytes, i.e. ~14x more small packets served.
  for (int i = 0; i < 200; ++i) big->push(0, pkt_of_size(1400 - 42, 0));
  for (int i = 0; i < 400; ++i) small->push(0, pkt_of_size(100 - 42, 1));
  std::uint64_t drained = 0;
  while (true) {
    auto p = drr->pull(0);
    if (!p) break;
    if (++drained >= 220) break;  // stop while both queues still backlogged
  }
  double bytes_big = static_cast<double>(drr->served_bytes(0));
  double bytes_small = static_cast<double>(drr->served_bytes(1));
  ASSERT_GT(bytes_big, 0);
  ASSERT_GT(bytes_small, 0);
  EXPECT_NEAR(bytes_big / bytes_small, 1.0, 0.25)
      << "DRR must serve roughly equal bytes per input";
  EXPECT_GT(drr->served(1), drr->served(0) * 8)
      << "packet counts skew toward the small-packet input";
}

TEST_F(SchedFixture, DrrDrainsFullyAndStops) {
  std::string err;
  ASSERT_TRUE(router.configure(R"(
    a :: Queue(16); b :: Queue(16); drr :: DrrSched;
    a -> [0] drr; b -> [1] drr;
  )",
                               &err))
      << err;
  ASSERT_TRUE(router.initialize(&err)) << err;
  auto* a = router.find_as<Queue>("a");
  auto* b = router.find_as<Queue>("b");
  for (int i = 0; i < 5; ++i) {
    a->push(0, pkt_of_size(100, 0));
    b->push(0, pkt_of_size(100, 1));
  }
  auto* drr = router.find("drr");
  int got = 0;
  while (drr->pull(0)) ++got;
  EXPECT_EQ(got, 10);
  EXPECT_FALSE(drr->pull(0));
  EXPECT_EQ(pool.in_use(), 0u);
}

}  // namespace
}  // namespace mdp::click

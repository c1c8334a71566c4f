// Wire-identity oracle: however the multipath plane spreads a flow's
// packets (and their copies) over the paths, the flow must leave as ONE
// flow. Every path's chain replica shares one NAT table, one LB core and
// one connection tracker, so
//   - each flow leaves under exactly one egress 5-tuple and one backend;
//   - no external (ip, port) is held by two flows;
//   - NatTable::reverse maps the external identity back to the pre-chain
//     flow.
// The setup is quickstart-shaped: 4 paths, fw-nat-lb, 256 Poisson flows
// with 10% latency-critical, a noisy neighbor on path 0.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/dataplane.hpp"
#include "net/packet_builder.hpp"
#include "nf/conntrack.hpp"
#include "nf/load_balancer.hpp"
#include "nf/nat.hpp"
#include "sim/interference.hpp"
#include "workload/traffic_gen.hpp"

namespace mdp::core {
namespace {

constexpr std::size_t kPaths = 4;
constexpr std::size_t kFlows = 256;

/// Every element of class T in the plane's router, path order.
template <typename T>
std::vector<T*> elements_of(MdpDataPlane& dp) {
  std::vector<T*> out;
  for (const auto& e : dp.router().elements())
    if (auto* t = dynamic_cast<T*>(e.get())) out.push_back(t);
  return out;
}

struct Case {
  std::string name;
  std::string policy;
  bool flow_replication = false;

  friend void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }
};

class WireIdentity : public ::testing::TestWithParam<Case> {};

TEST_P(WireIdentity, EachFlowLeavesAsOneFlow) {
  const Case& c = GetParam();
  sim::EventQueue eq;
  net::PacketPool pool(4096, 2048);
  DataPlaneConfig cfg;
  cfg.num_paths = kPaths;
  cfg.chain = "fw-nat-lb";
  if (c.flow_replication) {
    cfg.flow_repl.enabled = true;
    cfg.flow_repl.replicas = 2;
  }
  MdpDataPlane dp(eq, pool, cfg, make_scheduler(c.policy));

  // Keyed by flow id: the 5-tuple at ingress, the distinct 5-tuples and
  // backends seen at egress; keyed by external (ip, port): its flow ids.
  std::map<std::uint32_t, net::FlowKey> pre_chain;
  std::map<std::uint32_t, std::vector<net::FlowKey>> egress;
  std::map<std::uint32_t, std::set<std::uint32_t>> backends;
  std::map<std::pair<std::uint32_t, std::uint16_t>, std::set<std::uint32_t>>
      owners;
  dp.set_egress([&](net::PacketPtr pkt) {
    auto parsed = net::parse(*pkt);
    ASSERT_TRUE(parsed);
    const std::uint32_t id = pkt->anno().flow_id;
    auto& tuples = egress[id];
    if (std::find(tuples.begin(), tuples.end(), parsed->flow) == tuples.end())
      tuples.push_back(parsed->flow);
    backends[id].insert(parsed->flow.dst_ip);
    owners[{parsed->flow.src_ip, parsed->flow.src_port}].insert(id);
  });

  sim::InterferenceConfig noise_cfg;
  noise_cfg.duty_cycle = 0.2;
  sim::InterferenceModel noise(eq, dp.core(0), noise_cfg, /*seed=*/7);
  noise.start();

  workload::TrafficGenConfig gen_cfg;
  gen_cfg.num_flows = kFlows;
  gen_cfg.latency_critical_fraction = 0.1;
  workload::TrafficGen gen(
      eq, pool, gen_cfg, std::make_unique<workload::PoissonArrivals>(600.0),
      [&](net::PacketPtr pkt) {
        auto parsed = net::parse(*pkt);
        ASSERT_TRUE(parsed);
        pre_chain[pkt->anno().flow_id] = parsed->flow;
        dp.ingress(std::move(pkt));
      });
  gen.start(20'000);
  eq.run_until(100 * sim::kMillisecond);

  ASSERT_EQ(egress.size(), kFlows) << "every flow egressed";
  if (c.flow_replication) {
    EXPECT_GT(dp.fast_counters().get(DpCounter::kFlowReplicas), 0u)
        << "some flows must actually be replicated";
  }

  auto nats = elements_of<nf::Nat>(dp);
  ASSERT_EQ(nats.size(), kPaths);
  const nf::NatTable& table = nats[0]->table();
  // Count violations per invariant, so a broken plane reports how broken
  // it is in a few lines rather than one failure per packet.
  std::size_t multi_tuple = 0, multi_backend = 0, bad_reverse = 0;
  for (const auto& [id, tuples] : egress) {
    if (tuples.size() != 1) ++multi_tuple;
    if (backends[id].size() != 1) ++multi_backend;
    for (const auto& t : tuples) {
      auto back = table.reverse(t.src_ip, t.src_port);
      if (!back || *back != pre_chain.at(id)) ++bad_reverse;
    }
  }
  std::size_t shared_external = 0;
  for (const auto& [ext, ids] : owners)
    if (ids.size() != 1) ++shared_external;
  EXPECT_EQ(multi_tuple, 0u) << "flows leaving under several 5-tuples";
  EXPECT_EQ(multi_backend, 0u) << "flows reaching several backends";
  EXPECT_EQ(shared_external, 0u) << "external (ip, port) held by >1 flow";
  EXPECT_EQ(bad_reverse, 0u) << "egress tuples NatTable::reverse misses";
  EXPECT_EQ(table.size(), kFlows) << "one binding per flow";
  eq.clear();
}

INSTANTIATE_TEST_SUITE_P(
    Policies, WireIdentity,
    ::testing::Values(Case{"single", "single"}, Case{"rss", "rss"},
                      Case{"rr", "rr"}, Case{"jsq", "jsq"},
                      Case{"flowlet", "flowlet"}, Case{"red2", "red2"},
                      Case{"adaptive", "adaptive"},
                      Case{"repnet2", "rss", /*flow_replication=*/true}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.name;
    });

// A TCP connection sprayed round-robin over the paths: the SYN opens it on
// one path, the following segments arrive on the others. With one shared
// connection table none of them is out of state.
TEST(WireIdentityStateful, RoundRobinTcpIsNeverOutOfState) {
  sim::EventQueue eq;
  net::PacketPool pool(1024, 2048);
  DataPlaneConfig cfg;
  cfg.num_paths = kPaths;
  cfg.chain = "stateful";
  MdpDataPlane dp(eq, pool, cfg, make_scheduler("rr"));
  std::uint64_t delivered = 0;
  dp.set_egress([&](net::PacketPtr) { ++delivered; });

  constexpr std::uint32_t kTcpFlows = 32;
  constexpr int kSegments = 8;
  sim::TimeNs t = 0;
  for (std::uint32_t f = 0; f < kTcpFlows; ++f) {
    for (int seg = 0; seg < kSegments; ++seg) {
      // A flow's segments are consecutive, so rr sends each to the next
      // path. They are spaced well beyond the chain's service time, so
      // each is processed before the next one arrives.
      eq.schedule_at(t += 20 * sim::kMicrosecond, [&, f, seg] {
        net::BuildSpec spec;
        spec.flow = {0x0b000001 + f, 0x0a006401,
                     static_cast<std::uint16_t>(20000 + f), 443,
                     net::kIpProtoTcp};
        spec.tcp_flags = seg == 0 ? net::TcpView::kSyn : net::TcpView::kAck;
        auto pkt = net::build_tcp(pool, spec);
        ASSERT_TRUE(pkt);
        pkt->anno().flow_id = f;
        pkt->anno().flow_hash = net::hash_flow(spec.flow);
        dp.ingress(std::move(pkt));
      });
    }
  }
  eq.run();

  auto sfws = elements_of<nf::StatefulFirewall>(dp);
  ASSERT_EQ(sfws.size(), kPaths);
  for (std::size_t p = 0; p < sfws.size(); ++p)
    EXPECT_EQ(sfws[p]->out_of_state(), 0u) << "path " << p;
  EXPECT_EQ(delivered, std::uint64_t{kTcpFlows} * kSegments);
  EXPECT_EQ(sfws[0]->tracker().size(), kTcpFlows);
}

}  // namespace
}  // namespace mdp::core

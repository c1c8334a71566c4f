// Workload tests: arrival processes, flow-size CDFs, the open-loop traffic
// generator (rate calibration, flow identity, class marking) and the
// RPC/FCT workload.
#include <gtest/gtest.h>

#include <set>

#include "workload/arrival.hpp"
#include "workload/flow_size.hpp"
#include "workload/rpc_workload.hpp"
#include "workload/traffic_gen.hpp"

namespace mdp::workload {
namespace {

TEST(Arrivals, PoissonMeanGapConverges) {
  PoissonArrivals a(2000);
  sim::Rng rng(1);
  double sum = 0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) sum += static_cast<double>(a.next_gap(rng));
  EXPECT_NEAR(sum / kN, 2000, 50);
}

TEST(Arrivals, DeterministicIsExact) {
  DeterministicArrivals a(500);
  sim::Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_gap(rng), 500u);
}

TEST(Arrivals, MmppLongRunRateMatchesMeanGap) {
  MmppConfig cfg;
  cfg.base_gap_ns = 2000;
  cfg.burst_factor = 10;
  cfg.mean_hi_dwell_ns = 50'000;
  cfg.mean_lo_dwell_ns = 450'000;
  MmppArrivals a(cfg);
  sim::Rng rng(3);
  double sum = 0;
  constexpr int kN = 500'000;
  for (int i = 0; i < kN; ++i) sum += static_cast<double>(a.next_gap(rng));
  EXPECT_NEAR(sum / kN, a.mean_gap_ns(), a.mean_gap_ns() * 0.05);
}

TEST(Arrivals, MmppIsBurstier) {
  // Variance of gap counts in fixed windows must exceed Poisson's.
  auto dispersion = [](ArrivalProcess& a) {
    sim::Rng rng(7);
    constexpr std::uint64_t kWindow = 100'000;
    std::vector<int> counts;
    std::uint64_t t = 0, edge = kWindow;
    int c = 0;
    for (int i = 0; i < 300'000; ++i) {
      t += a.next_gap(rng);
      while (t >= edge) {
        counts.push_back(c);
        c = 0;
        edge += kWindow;
      }
      ++c;
    }
    double mean = 0, var = 0;
    for (int x : counts) mean += x;
    mean /= counts.size();
    for (int x : counts) var += (x - mean) * (x - mean);
    var /= counts.size();
    return var / mean;  // index of dispersion; 1 for Poisson
  };
  PoissonArrivals poisson(2000);
  MmppArrivals mmpp(MmppConfig{2000, 10, 50'000, 450'000});
  EXPECT_NEAR(dispersion(poisson), 1.0, 0.3);
  EXPECT_GT(dispersion(mmpp), 3.0);
}

TEST(FlowSizes, FactoriesProduceSaneDistributions) {
  for (const auto& name : flow_size_workload_names()) {
    auto d = flow_sizes_by_name(name);
    ASSERT_NE(d, nullptr) << name;
    sim::Rng rng(4);
    for (int i = 0; i < 10'000; ++i) {
      double v = d->sample(rng);
      ASSERT_GT(v, 0) << name;
      ASSERT_LE(v, 1e9 + 1) << name;
    }
  }
  EXPECT_EQ(flow_sizes_by_name("nope"), nullptr);
}

TEST(FlowSizes, DataMiningIsHeavierTailedThanWebSearch) {
  auto ws = web_search_flow_sizes();
  auto dm = data_mining_flow_sizes();
  sim::Rng r1(5), r2(5);
  // Median: data-mining flows are mostly tiny.
  std::vector<double> wsv, dmv;
  for (int i = 0; i < 50'000; ++i) {
    wsv.push_back(ws->sample(r1));
    dmv.push_back(dm->sample(r2));
  }
  std::sort(wsv.begin(), wsv.end());
  std::sort(dmv.begin(), dmv.end());
  EXPECT_LT(dmv[25'000], wsv[25'000]) << "data-mining median smaller";
  EXPECT_GT(dmv[49'900], wsv[49'900]) << "data-mining tail fatter";
}

TEST(TrafficGen, EmitsRequestedCountAtCalibratedRate) {
  sim::EventQueue eq;
  net::PacketPool pool(1024, 2048);
  TrafficGenConfig cfg;
  cfg.num_flows = 16;
  std::uint64_t count = 0;
  TrafficGen gen(eq, pool, cfg,
                 std::make_unique<PoissonArrivals>(1000),
                 [&](net::PacketPtr) { ++count; });
  gen.start(5000);
  eq.run();
  EXPECT_EQ(count, 5000u);
  EXPECT_EQ(gen.emitted(), 5000u);
  // Mean gap 1000ns * 5000 packets ~ 5ms total.
  EXPECT_NEAR(static_cast<double>(eq.now()), 5e6, 5e5);
}

TEST(TrafficGen, FlowKeysAreDistinctAndStable) {
  sim::EventQueue eq;
  net::PacketPool pool(64, 2048);
  TrafficGenConfig cfg;
  cfg.num_flows = 64;
  TrafficGen gen(eq, pool, cfg, std::make_unique<DeterministicArrivals>(1),
                 [](net::PacketPtr) {});
  std::set<std::string> keys;
  for (std::uint32_t f = 0; f < 64; ++f)
    keys.insert(gen.flow_key(f).to_string());
  EXPECT_EQ(keys.size(), 64u);
  EXPECT_EQ(gen.flow_key(3), gen.flow_key(3));
}

TEST(TrafficGen, MarksConfiguredCriticalFraction) {
  sim::EventQueue eq;
  net::PacketPool pool(1024, 2048);
  TrafficGenConfig cfg;
  cfg.num_flows = 100;
  cfg.latency_critical_fraction = 0.2;
  std::uint64_t critical = 0, total = 0;
  TrafficGen gen(eq, pool, cfg, std::make_unique<DeterministicArrivals>(10),
                 [&](net::PacketPtr p) {
                   ++total;
                   if (p->anno().traffic_class ==
                       net::TrafficClass::kLatencyCritical)
                     ++critical;
                 });
  gen.start(20'000);
  eq.run();
  EXPECT_NEAR(static_cast<double>(critical) / total, 0.2, 0.03);
}

TEST(TrafficGen, PacketsParseAndSizesWithinBounds) {
  sim::EventQueue eq;
  net::PacketPool pool(1024, 2048);
  TrafficGenConfig cfg;
  TrafficGen gen(eq, pool, cfg, std::make_unique<DeterministicArrivals>(10),
                 [&](net::PacketPtr p) {
                   auto parsed = net::parse(*p);
                   ASSERT_TRUE(parsed.has_value());
                   ASSERT_GE(parsed->payload_len, cfg.min_payload);
                   ASSERT_LE(parsed->payload_len, cfg.max_payload);
                 });
  gen.start(2000);
  eq.run();
}

TEST(RpcWorkload, FlowsCompleteWithPositiveFct) {
  sim::EventQueue eq;
  net::PacketPool pool(4096, 2048);
  RpcWorkloadConfig cfg;
  cfg.mean_interarrival_ns = 50'000;
  RpcWorkload* rpc_ptr = nullptr;
  RpcWorkload rpc(eq, pool, cfg, uniform_rpc_flow_sizes(),
                  [&](net::PacketPtr p) {
                    // Instant network: echo egress immediately.
                    rpc_ptr->on_packet_egress(p->anno().flow_id, eq.now());
                  });
  rpc_ptr = &rpc;
  rpc.start(200);
  eq.run();
  EXPECT_EQ(rpc.flows_started(), 200u);
  EXPECT_EQ(rpc.flows_completed(), 200u);
  EXPECT_EQ(rpc.all_fct().count(), 200u);
  EXPECT_EQ(rpc.flows_incomplete(), 0u);
  // Uniform 1-16 KB at 1448 MSS: multi-packet flows pace at 1us, so FCT
  // must be positive for flows with >1 packet.
  EXPECT_GT(rpc.all_fct().max(), 0u);
}

TEST(RpcWorkload, ShortAndLongSplitByCutoff) {
  sim::EventQueue eq;
  net::PacketPool pool(65536, 2048);
  RpcWorkloadConfig cfg;
  cfg.short_flow_cutoff_bytes = 100'000;
  RpcWorkload* rpc_ptr = nullptr;
  RpcWorkload rpc(eq, pool, cfg, web_search_flow_sizes(),
                  [&](net::PacketPtr p) {
                    rpc_ptr->on_packet_egress(p->anno().flow_id, eq.now());
                  });
  rpc_ptr = &rpc;
  rpc.start(300);
  eq.run();
  EXPECT_EQ(rpc.short_fct().count() + rpc.long_fct().count(), 300u);
  EXPECT_GT(rpc.short_fct().count(), 0u);
  EXPECT_GT(rpc.long_fct().count(), 0u);
}

}  // namespace
}  // namespace mdp::workload

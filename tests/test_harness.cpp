// Harness-level integration tests. These are small versions of the real
// experiments: they assert the *qualitative* results the paper's figures
// depend on (interference inflates single-path tails; multipath removes
// them; redundancy costs throughput headroom).
#include <gtest/gtest.h>

#include "core/dataplane.hpp"
#include "harness/experiment.hpp"
#include "net/headers.hpp"
#include "nf/chain.hpp"

namespace mdp::harness {
namespace {

ScenarioConfig small_scenario(const std::string& policy) {
  ScenarioConfig cfg;
  cfg.policy = policy;
  cfg.packets = 30'000;
  cfg.warmup_packets = 3'000;
  cfg.load = 0.4;
  cfg.num_paths = 4;
  cfg.seed = 11;
  return cfg;
}

TEST(Harness, ScenarioCompletesAndAccountsPackets) {
  auto res = run_scenario(small_scenario("jsq"));
  EXPECT_EQ(res.emitted, 30'000u);
  // Everything not filtered by the chain must egress.
  EXPECT_EQ(res.egressed + res.chain_filtered, res.emitted);
  EXPECT_EQ(res.measured, res.latency.count());
  EXPECT_GT(res.latency.count(), 20'000u);
  EXPECT_GT(res.latency.p50(), 0u);
  EXPECT_GT(res.achieved_mpps, 0.0);
  EXPECT_EQ(res.per_path_dispatched.size(), 4u);
}

TEST(Harness, MeanServiceReflectsChainChoice) {
  ScenarioConfig a = small_scenario("jsq");
  a.chain = "ipcheck";
  ScenarioConfig b = small_scenario("jsq");
  b.chain = "full";
  EXPECT_GT(mean_service_ns(b), mean_service_ns(a) * 3);
}

TEST(Harness, MeanServiceEqualsAOnePathPlanesChainCost) {
  // mean_service_ns reads the chain cost from build_chain alone; it must
  // equal what a built plane charges: a 1-path plane's chain_cost_ns()
  // plus the per-byte term over the mean frame.
  for (const std::string& chain : nf::ChainSpec::preset_names()) {
    ScenarioConfig cfg = small_scenario("jsq");
    cfg.chain = chain;
    cfg.dp.per_byte_ns = 0.37;
    sim::EventQueue eq;
    net::PacketPool pool(8, 2048);
    core::DataPlaneConfig dpc = cfg.dp;
    dpc.num_paths = 1;
    dpc.chain = cfg.chain;
    core::MdpDataPlane plane(eq, pool, dpc, core::make_scheduler("single"));
    const double frame = net::kEthernetHeaderLen + net::kIpv4MinHeaderLen +
                         net::kUdpHeaderLen + cfg.mean_payload;
    EXPECT_EQ(mean_service_ns(cfg),
              static_cast<double>(plane.chain_cost_ns()) +
                  cfg.dp.per_byte_ns * frame)
        << chain;
  }
  ScenarioConfig bad = small_scenario("jsq");
  bad.chain = "no-such-chain";
  EXPECT_THROW(mean_service_ns(bad), std::runtime_error);
}

TEST(Harness, InterferenceInflatesSinglePathTailNotMultipath) {
  auto base = small_scenario("single");
  base.interference = true;
  base.interference_cfg.duty_cycle = 0.25;
  base.interference_cfg.mean_burst_ns = 150'000;
  // Interference on path 0 only: single-path eats it, JSQ routes around.
  base.interference_paths = {0};
  auto single = run_scenario(base);

  auto multi_cfg = base;
  multi_cfg.policy = "jsq";
  auto jsq = run_scenario(multi_cfg);

  EXPECT_GT(single.latency.p999(), jsq.latency.p999() * 4)
      << "single p999=" << single.latency.p999()
      << " jsq p999=" << jsq.latency.p999();
  // Medians stay comparable (the tail is the story, not the median).
  EXPECT_LT(jsq.latency.p50(), single.latency.p50() * 3);
}

TEST(Harness, RedundancyDoublesInternalWork) {
  auto cfg = small_scenario("red2");
  auto res = run_scenario(cfg);
  EXPECT_NEAR(res.replica_fraction, 1.0, 0.05)
      << "red2 must add ~1 extra copy per packet";
  EXPECT_GT(res.duplicate_fraction, 0.3)
      << "roughly half of dispatched copies are dropped at merge";
}

TEST(Harness, UtilizationMatchesOfferedLoad) {
  auto cfg = small_scenario("jsq");
  cfg.load = 0.5;
  cfg.packets = 60'000;
  auto res = run_scenario(cfg);
  double mean_util = 0;
  for (double u : res.per_path_utilization) mean_util += u;
  mean_util /= static_cast<double>(res.per_path_utilization.size());
  EXPECT_NEAR(mean_util, 0.5, 0.1);
}

TEST(Harness, BurstyArrivalsWidenTheTail) {
  auto smooth = small_scenario("single");
  smooth.num_paths = 1;
  auto bursty = smooth;
  bursty.bursty_arrivals = true;
  bursty.mmpp.burst_factor = 12;
  auto a = run_scenario(smooth);
  auto b = run_scenario(bursty);
  EXPECT_GT(b.latency.p999(), a.latency.p999() * 2);
}

TEST(Harness, QueueSamplingProducesSeries) {
  auto cfg = small_scenario("jsq");
  cfg.packets = 5'000;
  cfg.sample_queues_interval_ns = 100'000;
  auto res = run_scenario(cfg);
  ASSERT_EQ(res.queue_depth_series.size(), 4u);
  EXPECT_GT(res.queue_depth_series[0].samples().size(), 10u);
}

TEST(Harness, RpcScenarioCompletesFlows) {
  auto cfg = small_scenario("adaptive");
  cfg.load = 0.3;
  auto res = run_rpc_scenario(cfg, "uniform", 400);
  EXPECT_EQ(res.flows_started, 400u);
  EXPECT_GT(res.flows_completed, 390u);
  EXPECT_GT(res.all_fct.p50(), 0u);
}

TEST(Harness, UnknownPolicyAndWorkloadThrow) {
  auto cfg = small_scenario("not-a-policy");
  EXPECT_THROW(run_scenario(cfg), std::invalid_argument);
  auto cfg2 = small_scenario("jsq");
  EXPECT_THROW(run_rpc_scenario(cfg2, "not-a-workload", 10),
               std::invalid_argument);
}

TEST(Harness, DeterministicAcrossRuns) {
  auto a = run_scenario(small_scenario("adaptive"));
  auto b = run_scenario(small_scenario("adaptive"));
  EXPECT_EQ(a.latency.p999(), b.latency.p999());
  EXPECT_EQ(a.egressed, b.egressed);
  EXPECT_EQ(a.hedges, b.hedges);
}

}  // namespace
}  // namespace mdp::harness

// ReorderBuffer tests: in-order passthrough, hole buffering, timeout skip,
// late delivery after skip, detection-only mode, the random-permutation
// in-order-egress property, and core::Merge's burst receive against its
// per-packet receive.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/reorder.hpp"
#include "merge_stream.hpp"
#include "sim/rng.hpp"

namespace mdp::core {
namespace {

struct ReorderFixture : ::testing::Test {
  sim::EventQueue eq;
  net::PacketPool pool{512, 256};
  std::vector<std::pair<std::uint32_t, std::uint64_t>> egressed;

  std::unique_ptr<ReorderBuffer> make(bool enabled = true,
                                      sim::TimeNs timeout = 10'000) {
    ReorderConfig cfg;
    cfg.enabled = enabled;
    cfg.timeout_ns = timeout;
    return std::make_unique<ReorderBuffer>(
        eq, cfg, [this](net::PacketPtr p) {
          egressed.emplace_back(p->anno().flow_id, p->anno().seq);
        });
  }

  net::PacketPtr pkt(std::uint32_t flow, std::uint64_t seq) {
    auto p = pool.alloc();
    p->set_length(64);
    p->anno().flow_id = flow;
    p->anno().seq = seq;
    return p;
  }
};

TEST_F(ReorderFixture, InOrderPassesThroughImmediately) {
  auto rb = make();
  for (std::uint64_t s = 0; s < 5; ++s) rb->submit(pkt(1, s));
  ASSERT_EQ(egressed.size(), 5u);
  for (std::uint64_t s = 0; s < 5; ++s) EXPECT_EQ(egressed[s].second, s);
  EXPECT_EQ(rb->in_order(), 5u);
  EXPECT_EQ(rb->out_of_order(), 0u);
}

TEST_F(ReorderFixture, EarlyPacketWaitsForPredecessor) {
  auto rb = make();
  rb->submit(pkt(1, 1));  // hole: seq 0 missing
  EXPECT_TRUE(egressed.empty());
  EXPECT_EQ(rb->buffered(), 1u);
  rb->submit(pkt(1, 0));
  ASSERT_EQ(egressed.size(), 2u);
  EXPECT_EQ(egressed[0].second, 0u);
  EXPECT_EQ(egressed[1].second, 1u);
  EXPECT_EQ(rb->buffered(), 0u);
}

TEST_F(ReorderFixture, TimeoutSkipsHole) {
  auto rb = make(true, 10'000);
  rb->submit(pkt(1, 1));
  rb->submit(pkt(1, 2));
  EXPECT_TRUE(egressed.empty());
  eq.run_until(20'000);
  ASSERT_EQ(egressed.size(), 2u) << "timeout must release past the hole";
  EXPECT_EQ(egressed[0].second, 1u);
  EXPECT_EQ(egressed[1].second, 2u);
  EXPECT_GE(rb->timeout_releases(), 1u);
}

TEST_F(ReorderFixture, LatePacketAfterSkipStillDelivered) {
  auto rb = make(true, 10'000);
  rb->submit(pkt(1, 1));
  eq.run_until(20'000);  // skip past seq 0
  ASSERT_EQ(egressed.size(), 1u);
  rb->submit(pkt(1, 0));  // the missing packet finally arrives
  ASSERT_EQ(egressed.size(), 2u);
  EXPECT_EQ(egressed[1].second, 0u);
  EXPECT_EQ(rb->late_after_skip(), 1u);
}

TEST_F(ReorderFixture, FlowsAreIndependent) {
  auto rb = make();
  rb->submit(pkt(1, 0));
  rb->submit(pkt(2, 1));  // flow 2 has a hole; flow 1 must be unaffected
  rb->submit(pkt(1, 1));
  ASSERT_EQ(egressed.size(), 2u);
  EXPECT_EQ(egressed[0].first, 1u);
  EXPECT_EQ(egressed[1].first, 1u);
}

TEST_F(ReorderFixture, DisabledModeDetectsButPassesThrough) {
  auto rb = make(/*enabled=*/false);
  rb->submit(pkt(1, 2));
  rb->submit(pkt(1, 0));  // out of order but must egress immediately
  ASSERT_EQ(egressed.size(), 2u);
  EXPECT_EQ(egressed[0].second, 2u);
  EXPECT_EQ(rb->out_of_order(), 2u)
      << "seq 2 (gap) and seq 0 (below window) both count";
  EXPECT_EQ(rb->buffered(), 0u);
}

TEST_F(ReorderFixture, DwellRecordedForBufferedPackets) {
  auto rb = make(true, 100'000);
  rb->submit(pkt(1, 1));
  eq.run_until(5'000);
  rb->submit(pkt(1, 0));
  ASSERT_EQ(egressed.size(), 2u);
  EXPECT_EQ(rb->dwell().count(), 2u);
  EXPECT_GE(rb->dwell().max(), 5'000u) << "seq 1 dwelled ~5us";
}

TEST_F(ReorderFixture, OooFractionComputed) {
  auto rb = make();
  rb->submit(pkt(1, 0));  // in order
  rb->submit(pkt(1, 2));  // gap: out of order
  rb->submit(pkt(1, 1));  // fills the hole: arrives in (buffer) order
  EXPECT_NEAR(rb->ooo_fraction(), 1.0 / 3.0, 1e-9);
}

TEST_F(ReorderFixture, NoPacketLeaksThroughLifecycle) {
  auto rb = make(true, 1'000);
  sim::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    std::uint32_t flow = static_cast<std::uint32_t>(rng.uniform_u64(4));
    static std::uint64_t next_seq[4] = {0, 0, 0, 0};
    // Randomly drop (skip) some seqs to create permanent holes.
    if (rng.bernoulli(0.1)) next_seq[flow]++;
    rb->submit(pkt(flow, next_seq[flow]++));
    eq.run_until(eq.now() + rng.uniform_u64(500));
  }
  eq.run_until(eq.now() + 100'000);  // drain all timers
  EXPECT_EQ(rb->buffered(), 0u);
  EXPECT_EQ(pool.in_use(), 0u) << "every packet must have been released";
}

// Property: any permutation of a window of packets, submitted with a
// generous timeout, egresses fully and in order.
class ReorderPermutationProperty : public ::testing::TestWithParam<int> {};

TEST_P(ReorderPermutationProperty, PermutedWindowEgressesInOrder) {
  sim::EventQueue eq;
  net::PacketPool pool(256, 256);
  std::vector<std::uint64_t> egressed;
  ReorderConfig cfg;
  cfg.enabled = true;
  cfg.timeout_ns = 1'000'000'000;  // effectively infinite
  ReorderBuffer rb(eq, cfg, [&](net::PacketPtr p) {
    egressed.push_back(p->anno().seq);
  });

  sim::Rng rng(GetParam());
  constexpr std::uint64_t kWindow = 64;
  std::vector<std::uint64_t> seqs(kWindow);
  for (std::uint64_t i = 0; i < kWindow; ++i) seqs[i] = i;
  // Fisher-Yates with our deterministic RNG.
  for (std::size_t i = kWindow - 1; i > 0; --i)
    std::swap(seqs[i], seqs[rng.uniform_u64(i + 1)]);

  for (std::uint64_t s : seqs) {
    auto p = pool.alloc();
    p->set_length(10);
    p->anno().flow_id = 1;
    p->anno().seq = s;
    rb.submit(std::move(p));
  }
  ASSERT_EQ(egressed.size(), kWindow);
  for (std::uint64_t i = 0; i < kWindow; ++i)
    ASSERT_EQ(egressed[i], i) << "out of order at position " << i;
  EXPECT_EQ(pool.in_use(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReorderPermutationProperty,
                         ::testing::Range(1, 9));


TEST(MergeDifferential, BurstReceiveMatchesPerPacketOnReorderHeavyStreams) {
  // Wide arrival spread, holes that only the timeout closes, and flows
  // ended from inside the emit callback (their windows retire once the
  // emitting drain returns): burst and per-packet receive must agree on
  // egress order, egress times and dwell.
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(seed);
    const test::MergeStreamConfig c{.seed = seed,
                                    .flows = 16,
                                    .packets_per_flow = 120,
                                    .max_delay_ticks = 40,
                                    .cancel_p = 0.08,
                                    .end_flows = true};
    const test::MergeRun a = test::run_merge_stream(c, false);
    const test::MergeRun b = test::run_merge_stream(c, true);
    EXPECT_EQ(a.won, b.won);
    EXPECT_EQ(a.egress, b.egress);
    EXPECT_TRUE(a.stats == b.stats);
    EXPECT_EQ(a.pool_in_use + b.pool_in_use, 0u);
    EXPECT_GT(a.stats.out_of_order, 0u);
    EXPECT_GT(a.stats.timeout_releases, 0u);
    // A flow whose last seq egressed was ended and its window is gone;
    // only flows whose last seq was lost in flight keep one.
    std::uint64_t ended = 0;
    for (const auto& e : a.egress)
      if ((e.first & 0xffffffffu) + 1 == c.packets_per_flow) ++ended;
    EXPECT_GT(ended, 0u);
    EXPECT_EQ(a.stats.tracked_flows, c.flows - ended);
    EXPECT_EQ(a.stats.buffered, 0u);
  }
}

}  // namespace
}  // namespace mdp::core

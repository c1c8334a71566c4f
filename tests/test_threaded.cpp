// ThreadedDataPlane tests: real-thread end-to-end completion accounting,
// policy steering, backpressure, restartability, backend-pumped I/O, and
// batch-aware exemplar attribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/threaded_dataplane.hpp"
#include "io/loopback_backend.hpp"
#include "io/synthetic_backend.hpp"
#include "net/packet_builder.hpp"

namespace mdp::core {
namespace {

TEST(ThreadedDataPlane, AllSubmittedPacketsComplete) {
  ThreadedConfig cfg;
  cfg.num_paths = 2;
  std::atomic<std::uint64_t> completions{0};
  ThreadedDataPlane dp(cfg, [&](std::uint64_t latency, std::uint16_t) {
    EXPECT_GT(latency, 0u);
    completions.fetch_add(1);
  });
  dp.start();
  constexpr std::uint64_t kPackets = 20'000;
  std::uint64_t submitted = 0;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    while (!dp.ingress(i * 0x9e3779b97f4a7c15ULL)) {
    }
    ++submitted;
  }
  dp.stop();
  EXPECT_EQ(submitted, kPackets);
  EXPECT_EQ(dp.completed(), kPackets);
  EXPECT_EQ(completions.load(), kPackets);
  std::uint64_t per_path_sum = 0;
  for (std::size_t p = 0; p < cfg.num_paths; ++p)
    per_path_sum += dp.per_path_count(p);
  EXPECT_EQ(per_path_sum, kPackets);
}

TEST(ThreadedDataPlane, StageHistogramsRecordWhenEnabled) {
  ThreadedConfig cfg;
  cfg.num_paths = 2;
  cfg.record_stage_hist = true;
  ThreadedDataPlane dp(cfg, [](std::uint64_t, std::uint16_t) {});
  dp.start();
  constexpr std::uint64_t kPackets = 5'000;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    while (!dp.ingress(i * 0x9e3779b97f4a7c15ULL)) {
    }
  }
  dp.stop();
  // Every completed packet contributes one sample per stage histogram.
  EXPECT_EQ(dp.queue_wait_hist().count(), kPackets);
  EXPECT_EQ(dp.service_hist().count(), kPackets);
  EXPECT_EQ(dp.merge_wait_hist().count(), kPackets);
  EXPECT_GT(dp.service_hist().sum(), 0u);
}

TEST(ThreadedDataPlane, StageHistogramsOffByDefault) {
  ThreadedConfig cfg;
  cfg.num_paths = 2;
  ThreadedDataPlane dp(cfg, [](std::uint64_t, std::uint16_t) {});
  dp.start();
  for (std::uint64_t i = 0; i < 1'000; ++i) {
    while (!dp.ingress(i)) {
    }
  }
  dp.stop();
  EXPECT_EQ(dp.queue_wait_hist().count(), 0u);
  EXPECT_EQ(dp.service_hist().count(), 0u);
  EXPECT_EQ(dp.merge_wait_hist().count(), 0u);
}

TEST(ThreadedDataPlane, HashPolicySteersFlowConsistently) {
  ThreadedConfig cfg;
  cfg.num_paths = 4;
  cfg.policy = "hash";
  ThreadedDataPlane dp(cfg, nullptr);
  dp.start();
  // One flow hash: all packets must land on one path.
  for (int i = 0; i < 1000; ++i)
    while (!dp.ingress(0xabcdef)) {
    }
  dp.stop();
  int used = 0;
  for (std::size_t p = 0; p < 4; ++p)
    if (dp.per_path_count(p) > 0) ++used;
  EXPECT_EQ(used, 1);
}

TEST(ThreadedDataPlane, RrPolicySpreadsEvenly) {
  ThreadedConfig cfg;
  cfg.num_paths = 4;
  cfg.policy = "rr";
  ThreadedDataPlane dp(cfg, nullptr);
  dp.start();
  for (int i = 0; i < 4000; ++i)
    while (!dp.ingress(static_cast<std::uint64_t>(i))) {
    }
  dp.stop();
  for (std::size_t p = 0; p < 4; ++p)
    EXPECT_EQ(dp.per_path_count(p), 1000u);
}

TEST(ThreadedDataPlane, RejectsWhenPoolExhaustedInsteadOfBlocking) {
  ThreadedConfig cfg;
  cfg.num_paths = 1;
  cfg.pool_size = 8;
  cfg.ring_capacity = 4;
  ThreadedDataPlane dp(cfg, nullptr);
  // Workers not started: rings fill up and ingress must fail-fast.
  int accepted = 0;
  for (int i = 0; i < 100; ++i)
    if (dp.ingress(i)) ++accepted;
  EXPECT_LE(accepted, 8);
  EXPECT_GT(dp.rejected(), 0u);
  dp.start();  // drain what was queued
  dp.stop();
  EXPECT_EQ(dp.completed(), static_cast<std::uint64_t>(accepted));
}

TEST(ThreadedDataPlane, JsqAvoidsBuriedPath) {
  // With JSQ on ring occupancy and workers stopped, all packets pile onto
  // alternating rings rather than one.
  ThreadedConfig cfg;
  cfg.num_paths = 2;
  cfg.ring_capacity = 64;
  cfg.pool_size = 64;
  ThreadedDataPlane dp(cfg, nullptr);
  for (int i = 0; i < 60; ++i) dp.ingress(i);
  // Not started: ring sizes visible to JSQ; spread must be ~even.
  auto a = dp.per_path_count(0);
  auto b = dp.per_path_count(1);
  EXPECT_NEAR(static_cast<double>(a), static_cast<double>(b), 2.0);
  dp.start();
  dp.stop();
}

// Counter-equivalence under end-to-end bursting: every accepted packet
// completes exactly once (in == out + rejected) and the plane quiesces
// with zero inflight, at both burst extremes.
class ThreadedBurst : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThreadedBurst, CounterEquivalenceAndZeroInflightQuiesce) {
  ThreadedConfig cfg;
  cfg.num_paths = 2;
  cfg.burst_size = GetParam();
  std::atomic<std::uint64_t> completions{0};
  ThreadedDataPlane dp(cfg, [&](std::uint64_t latency, std::uint16_t) {
    EXPECT_GT(latency, 0u);
    completions.fetch_add(1);
  });
  EXPECT_EQ(dp.burst_size(), GetParam());
  dp.start();
  constexpr std::uint64_t kPackets = 20'000;
  std::vector<std::uint64_t> hashes(64);
  std::uint64_t accepted = 0, offered = 0;
  while (offered < kPackets) {
    std::size_t n = std::min<std::uint64_t>(hashes.size(),
                                            kPackets - offered);
    for (std::size_t i = 0; i < n; ++i)
      hashes[i] = (offered + i) * 0x9e3779b97f4a7c15ULL;
    accepted += dp.ingress_burst({hashes.data(), n});
    offered += n;
  }
  dp.stop();
  EXPECT_EQ(accepted + dp.rejected(), offered)
      << "every offered packet is either accepted or rejected";
  EXPECT_EQ(dp.completed(), accepted);
  EXPECT_EQ(completions.load(), accepted);
  EXPECT_EQ(dp.inflight(), 0u) << "quiesced plane must hold no packets";
  std::uint64_t per_path_sum = 0;
  for (std::size_t p = 0; p < cfg.num_paths; ++p)
    per_path_sum += dp.per_path_count(p);
  EXPECT_EQ(per_path_sum, accepted);
}

INSTANTIATE_TEST_SUITE_P(BurstSizes, ThreadedBurst,
                         ::testing::Values(std::size_t{1},
                                           std::size_t{32}));

TEST(ThreadedDataPlane, IngressBurstRejectsOnBackpressure) {
  ThreadedConfig cfg;
  cfg.num_paths = 1;
  cfg.pool_size = 8;
  cfg.ring_capacity = 4;
  ThreadedDataPlane dp(cfg, nullptr);
  // Workers not started: the slot pool caps acceptance and the remainder
  // must be rejected, not blocked on.
  std::vector<std::uint64_t> hashes(100);
  for (std::size_t i = 0; i < hashes.size(); ++i) hashes[i] = i;
  std::size_t accepted = dp.ingress_burst(hashes);
  EXPECT_LE(accepted, 8u);
  EXPECT_EQ(dp.rejected(), hashes.size() - accepted);
  dp.start();  // drain what was queued
  dp.stop();
  EXPECT_EQ(dp.completed(), accepted);
  EXPECT_EQ(dp.inflight(), 0u);
}

TEST(ThreadedDataPlane, IngressBurstJsqSpreadsAcrossPaths) {
  ThreadedConfig cfg;
  cfg.num_paths = 2;
  cfg.ring_capacity = 64;
  cfg.pool_size = 64;
  ThreadedDataPlane dp(cfg, nullptr);
  // Workers stopped: JSQ sees ring occupancy; a burst must still spread
  // (depths are sampled once then tracked locally per dispatch).
  std::vector<std::uint64_t> hashes(60);
  for (std::size_t i = 0; i < hashes.size(); ++i) hashes[i] = i;
  EXPECT_EQ(dp.ingress_burst(hashes), 60u);
  auto a = dp.per_path_count(0);
  auto b = dp.per_path_count(1);
  EXPECT_NEAR(static_cast<double>(a), static_cast<double>(b), 2.0);
  dp.start();
  dp.stop();
  EXPECT_EQ(dp.completed(), 60u);
}

// Batch-aware exemplar regression (ROADMAP "batch-aware tracing
// exemplars"): at burst_size 32 a tail exemplar must record the burst it
// rode in and claim only its attributed share of the burst's service
// span — not the whole span, which is what made pre-batching exemplars
// overstate tail service time by up to 32x.
TEST(ThreadedDataPlane, BatchExemplarsAttributeServiceWithinBurstSpan) {
  ThreadedConfig cfg;
  cfg.num_paths = 2;
  cfg.burst_size = 32;
  cfg.pool_size = 8192;
  cfg.ring_capacity = 4096;
  cfg.record_stage_hist = true;
  ThreadedDataPlane dp(cfg, nullptr);
  // Pre-fill the path rings before the workers start: 8192 slots split
  // 4096/4096 by JSQ, so every worker pop is a full burst of exactly 32
  // and the burst metadata assertions below are deterministic.
  std::vector<std::uint64_t> hashes(64);
  std::uint64_t accepted = 0;
  for (std::uint64_t b = 0; b < 128; ++b) {
    for (std::size_t i = 0; i < hashes.size(); ++i)
      hashes[i] = (b * 64 + i) * 0x9e3779b97f4a7c15ULL;
    accepted += dp.ingress_burst(hashes);
  }
  ASSERT_EQ(accepted, 8192u);
  dp.start();
  dp.stop();
  ASSERT_EQ(dp.completed(), accepted);
  EXPECT_EQ(dp.exemplars().seen(), accepted)
      << "every completed packet was offered to the reservoir";
  EXPECT_EQ(dp.service_hist().count(), accepted);

  auto check = [](const trace::Exemplar& ex) {
    const trace::SpanRecord& sp = ex.span;
    ASSERT_EQ(sp.burst_size, 32u) << "pre-filled rings pop full bursts";
    EXPECT_LT(sp.burst_pos, sp.burst_size);
    const std::uint64_t raw = sp.stage_ns(trace::Stage::kService);
    const std::uint64_t attributed = sp.attributed_service_ns();
    EXPECT_EQ(attributed, raw / sp.burst_size);
    EXPECT_LE(attributed, raw)
        << "a packet may not claim more than its burst's span";
    EXPECT_LE(attributed * sp.burst_size, raw)
        << "shares must telescope back under the burst span";
  };
  const auto slowest = dp.exemplars().slowest();
  ASSERT_FALSE(slowest.empty());
  for (const auto& ex : slowest) check(ex);
  for (const auto& ex : dp.exemplars().sample()) check(ex);
  // The slowest exemplar's e2e is consistent with its own stages.
  EXPECT_EQ(slowest.front().e2e_ns, slowest.front().span.e2e_ns());
}

// Backend pump mode with the synthetic source: counter equivalence with
// the generator's own accounting, and a fully recycled pool at quiesce.
TEST(ThreadedDataPlane, PumpSyntheticBackendCounterEquivalence) {
  constexpr std::uint64_t kLimit = 20'000;
  io::SyntheticConfig scfg;
  scfg.rx_limit = kLimit;
  scfg.pool_size = 4096;
  io::SyntheticBackend backend(scfg);

  ThreadedConfig cfg;
  cfg.num_paths = 2;
  cfg.burst_size = 32;
  cfg.pool_size = 4096;
  cfg.backend = &backend;
  std::atomic<std::uint64_t> completions{0};
  ThreadedDataPlane dp(cfg, [&](std::uint64_t, std::uint16_t) {
    completions.fetch_add(1);
  });
  dp.start();
  while (backend.rx_packets() < kLimit) dp.pump();
  while (dp.inflight() > 0 || dp.egress_backlog() > 0) dp.pump();
  dp.stop();

  EXPECT_EQ(backend.rx_packets(), kLimit);
  EXPECT_EQ(dp.submitted() + dp.rejected(), kLimit)
      << "every generated frame was admitted or rejected, never lost";
  EXPECT_EQ(dp.completed(), dp.submitted());
  EXPECT_EQ(completions.load(), dp.completed());
  EXPECT_EQ(backend.tx_packets(), dp.completed())
      << "every completed frame went back out through the backend";
  EXPECT_EQ(dp.egress_backlog(), 0u);
  EXPECT_EQ(backend.pool().in_use(), 0u) << "zero pool leaks at quiesce";
}

// Backend pump mode over the loopback wire: real VXLAN-capable frames in
// from a peer, through dispatch and the workers, retired by pump() and back
// out to the peer — exactly once each, bytes parseable, pool fully
// recycled. Backend mode runs no collector: every Completion and every
// span-observer call happens on the thread that calls pump() / stop().
TEST(ThreadedDataPlane, PumpLoopbackBackendRoundTripsRealFrames) {
  constexpr std::uint64_t kFrames = 2'000;
  constexpr std::uint32_t kFlows = 4;
  net::PacketPool pool(4096, 2048, /*allow_growth=*/false);
  auto [driver, plane_end] = io::LoopbackBackend::make_pair({});

  ThreadedConfig cfg;
  cfg.num_paths = 2;
  cfg.burst_size = 32;
  cfg.pool_size = 4096;
  cfg.backend = plane_end.get();
  cfg.record_stage_hist = true;
  const std::thread::id caller = std::this_thread::get_id();
  // Atomics only so that a plane calling back from another thread fails
  // the checks below instead of racing on the counters.
  std::atomic<std::uint64_t> completions{0}, spans{0}, off_caller{0};
  ThreadedDataPlane dp(cfg, [&](std::uint64_t, std::uint16_t) {
    completions.fetch_add(1);
    if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
  });
  dp.set_span_observer([&](const trace::SpanRecord&) {
    spans.fetch_add(1);
    if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
  });
  dp.start();

  std::set<std::pair<std::uint32_t, std::uint64_t>> echoed_ids;
  std::uint64_t echoed = 0;
  auto drain_echoes = [&] {
    net::PacketPtr got[64];
    std::size_t n;
    while ((n = driver->rx_burst(got)) > 0) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto& a = got[i]->anno();
        echoed_ids.insert({a.flow_id, a.seq});
        auto parsed = net::parse(*got[i]);
        ASSERT_TRUE(parsed.has_value()) << "frame bytes survived intact";
        EXPECT_EQ(parsed->payload_len, 64u);
        got[i].reset();
        ++echoed;
      }
    }
  };

  std::uint64_t sent = 0;
  while (true) {
    if (sent < kFrames) {
      net::PacketPtr batch[32];
      std::size_t n = 0;
      for (; n < 32 && sent + n < kFrames; ++n) {
        const std::uint64_t seq = sent + n;
        net::BuildSpec spec;
        spec.flow = {0x0a000001 + static_cast<std::uint32_t>(seq % kFlows),
                     0x0a000002, 2000, 4789, 0};
        spec.payload_fill = static_cast<std::uint8_t>(seq);
        batch[n] = net::build_udp(pool, spec);
        ASSERT_TRUE(batch[n]);
        auto& a = batch[n]->anno();
        a.flow_id = static_cast<std::uint32_t>(seq % kFlows);
        a.seq = seq / kFlows;
        a.flow_hash = net::hash_flow(spec.flow);
      }
      std::size_t consumed = 0;
      while (consumed < n) {
        consumed += driver->tx_burst(
            std::span<net::PacketPtr>(batch + consumed, n - consumed));
        dp.pump();
        drain_echoes();
      }
      sent += n;
    }
    dp.pump();
    drain_echoes();
    if (sent == kFrames && dp.inflight() == 0 && dp.egress_backlog() == 0 &&
        driver->in_flight() == 0 && plane_end->in_flight() == 0) {
      drain_echoes();
      break;
    }
  }
  dp.stop();
  drain_echoes();

  EXPECT_EQ(dp.submitted() + dp.rejected(), kFrames)
      << "every frame the peer sent reached admission";
  EXPECT_EQ(dp.completed(), dp.submitted());
  EXPECT_EQ(completions.load(), dp.completed());
  EXPECT_EQ(spans.load(), dp.completed());
  EXPECT_EQ(off_caller.load(), 0u)
      << "backend mode retires completions on the pump()/stop() thread";
  EXPECT_EQ(echoed, dp.completed());
  EXPECT_EQ(echoed_ids.size(), echoed)
      << "each (flow, seq) came back exactly once";
  EXPECT_EQ(pool.in_use(), 0u) << "zero pool leaks at quiesce";
}

}  // namespace
}  // namespace mdp::core

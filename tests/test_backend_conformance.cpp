// Backend conformance suite: the contract every io::PacketBackend must
// pass before the data plane will trust it (docs/IO_BACKENDS.md).
//
// One shared suite runs against every registered backend: burst semantics,
// partial-burst ownership, packet-pool accounting at quiesce. The
// loopback wire then doubles as the fault harness: byte-for-byte VXLAN
// round trips, seeded determinism, drop/dup/delay/reorder lanes, and the
// receive-side healing pipeline (core::Merge: dedup + reorder over each
// drained burst) driven by a 10k-packet seeded property test asserting
// exactly-once, in-order-per-flow delivery with zero pool leaks. AF_XDP/DPDK backends added later must join the INSTANTIATE list
// and pass unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/merge.hpp"
#include "core/reorder.hpp"
#include "io/loopback_backend.hpp"
#include "io/packet_backend.hpp"
#include "io/synthetic_backend.hpp"
#include "net/packet_builder.hpp"
#include "net/vxlan.hpp"
#include "sim/event_queue.hpp"

namespace mdp {
namespace {

// ---------------------------------------------------------------------------
// Harness: wraps a backend-under-test with the uniform operations the
// shared suite needs — a way to put frames on the DUT's rx side (peer
// injection for wire-like backends, internal generation for synthetic)
// and a pool to audit for leaks at quiesce.
struct Harness {
  std::unique_ptr<net::PacketPool> frame_pool;  ///< driver-side frames
  std::unique_ptr<io::PacketBackend> dut;
  std::unique_ptr<io::PacketBackend> peer;  ///< wire peer (null: synthetic)
  io::LoopbackBackend* dut_loop = nullptr;
  io::LoopbackBackend* peer_loop = nullptr;

  net::PacketPool& audit_pool() {
    if (frame_pool) return *frame_pool;
    return static_cast<io::SyntheticBackend&>(*dut).pool();
  }

  /// True when the DUT only sees frames a peer transmitted.
  bool injectable() const { return peer != nullptr; }

  /// Put `pkts` on the wire toward the DUT's rx side.
  std::size_t inject(std::span<net::PacketPtr> pkts) {
    return peer ? peer->tx_burst(pkts) : 0;
  }

  /// Make everything in flight rx-able (release staged wire frames).
  void settle() {
    if (peer_loop) peer_loop->flush();
    if (dut_loop) dut_loop->flush();
  }
};

using HarnessFactory = std::function<std::unique_ptr<Harness>()>;

std::unique_ptr<Harness> make_synthetic() {
  auto h = std::make_unique<Harness>();
  io::SyntheticConfig cfg;
  cfg.pool_size = 1024;
  h->dut = std::make_unique<io::SyntheticBackend>(cfg);
  return h;
}

std::unique_ptr<Harness> make_loopback() {
  auto h = std::make_unique<Harness>();
  h->frame_pool = std::make_unique<net::PacketPool>(1024, 2048,
                                                    /*allow_growth=*/false);
  io::LoopbackConfig cfg;
  cfg.queue_depth = 512;
  auto [peer, dut] = io::LoopbackBackend::make_pair(cfg);
  h->peer_loop = peer.get();
  h->dut_loop = dut.get();
  h->peer = std::move(peer);
  h->dut = std::move(dut);
  return h;
}

/// A minimal valid UDP frame with multipath annotations filled in.
net::PacketPtr make_frame(net::PacketPool& pool, std::uint32_t flow_id,
                          std::uint64_t seq, std::uint16_t path,
                          std::uint8_t copy_index = 0) {
  net::BuildSpec spec;
  spec.flow = {0x0a000001 + flow_id, 0x0a000002,
               static_cast<std::uint16_t>(1024 + flow_id), 4789, 0};
  spec.payload_len = 64;
  spec.payload_fill = static_cast<std::uint8_t>(seq);
  net::PacketPtr pkt = net::build_udp(pool, spec);
  if (!pkt) return pkt;
  auto& a = pkt->anno();
  a.flow_id = flow_id;
  a.seq = seq;
  a.path_id = path;
  a.copy_index = copy_index;
  a.is_replica = copy_index > 0;
  a.flow_hash = net::hash_flow(spec.flow);
  return pkt;
}

// ---------------------------------------------------------------------------
// Shared conformance suite.
class BackendConformance
    : public ::testing::TestWithParam<
          std::pair<const char*, HarnessFactory>> {};

TEST_P(BackendConformance, CapsAreSane) {
  auto h = GetParam().second();
  const io::BackendCaps& caps = h->dut->caps();
  EXPECT_EQ(caps.name, GetParam().first);
  EXPECT_GT(caps.max_burst, 0u);
  EXPECT_TRUE(h->dut->start());
  h->dut->stop();
}

TEST_P(BackendConformance, RxBurstHonorsSpanSize) {
  auto h = GetParam().second();
  ASSERT_TRUE(h->dut->start());
  if (h->injectable()) {
    std::vector<net::PacketPtr> frames;
    for (int i = 0; i < 8; ++i)
      frames.push_back(make_frame(h->audit_pool(), 0, i, 0));
    ASSERT_EQ(h->inject(frames), 8u);
    h->settle();
  }
  net::PacketPtr got[4];
  EXPECT_EQ(h->dut->rx_burst(std::span<net::PacketPtr>(got, 0)), 0u);
  const std::size_t n = h->dut->rx_burst(std::span<net::PacketPtr>(got, 4));
  EXPECT_LE(n, 4u);
  EXPECT_GT(n, 0u) << "a primed backend must deliver something";
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(got[i]);
    EXPECT_NE(got[i]->anno().flow_hash, 0u)
        << "rx contract: flow_hash is populated";
  }
  // Drain whatever else was primed so the leak audit below stays clean
  // (wire backends only: the synthetic generator never runs dry).
  if (h->injectable()) {
    net::PacketPtr rest[16];
    while (h->dut->rx_burst(std::span<net::PacketPtr>(rest, 16)) > 0) {
      for (auto& p : rest) p.reset();
    }
  }
  for (auto& p : got) p.reset();
  EXPECT_EQ(h->audit_pool().in_use(), 0u);
}

TEST_P(BackendConformance, TxBurstConsumesPrefixOnly) {
  auto h = GetParam().second();
  ASSERT_TRUE(h->dut->start());
  // Offer far more than any queue can take in one go; the backend must
  // consume exactly a prefix: [0..n) nulled (ownership taken), [n..)
  // untouched and still owned by us.
  const std::size_t offer = h->dut->caps().queue_depth
                                ? h->dut->caps().queue_depth + 64
                                : 128;
  std::vector<net::PacketPtr> pkts;
  std::size_t built = 0;
  for (; built < offer; ++built) {
    auto f = make_frame(h->audit_pool(), 1, built, 0);
    if (!f) break;  // driver pool smaller than the queue: offer what we have
    pkts.push_back(std::move(f));
  }
  ASSERT_GT(built, 0u);
  const std::size_t n =
      h->dut->tx_burst(std::span<net::PacketPtr>(pkts.data(), built));
  EXPECT_LE(n, built);
  for (std::size_t i = 0; i < built; ++i) {
    if (i < n)
      EXPECT_FALSE(pkts[i]) << "consumed entries must be nulled at " << i;
    else
      EXPECT_TRUE(pkts[i]) << "rejected entries stay owned by caller at "
                           << i;
  }
  pkts.clear();  // rejected tail recycles here
  // Packets the backend took are either internal (wire) or recycled
  // (synthetic sink). Drain the wire to finish the accounting.
  if (h->injectable()) {
    h->settle();
    net::PacketPtr buf[64];
    std::size_t drained = 0;
    while (true) {
      // tx'd toward the peer: drain from the peer's rx side.
      const std::size_t k =
          h->peer->rx_burst(std::span<net::PacketPtr>(buf, 64));
      if (k == 0) break;
      drained += k;
      for (std::size_t i = 0; i < k; ++i) buf[i].reset();
      h->settle();
    }
    EXPECT_EQ(drained, n);
  }
  EXPECT_EQ(h->audit_pool().in_use(), 0u) << "zero-leak quiesce";
}

TEST_P(BackendConformance, ZeroCapacityAndIdleWireEdgeCases) {
  // The degenerate calls a driver loop makes constantly — empty tx
  // bursts, zero-capacity rx bursts, flush/advance on an idle wire — must
  // all be well-defined no-ops: no frames produced, no ownership taken,
  // no pool movement. A backend that misbehaves here corrupts the first
  // quiet pump() after quiesce.
  auto h = GetParam().second();
  ASSERT_TRUE(h->dut->start());

  // tx_burst over an empty span: nothing consumed, nothing counted.
  const std::uint64_t tx_before = h->dut->tx_packets();
  EXPECT_EQ(h->dut->tx_burst(std::span<net::PacketPtr>()), 0u);
  EXPECT_EQ(h->dut->tx_packets(), tx_before);

  // rx_burst with capacity 0 on an IDLE backend: no frames, even from a
  // generator backend that could always produce one.
  net::PacketPtr none[1];
  EXPECT_EQ(h->dut->rx_burst(std::span<net::PacketPtr>(none, 0)), 0u);
  EXPECT_EQ(h->dut->rx_burst(std::span<net::PacketPtr>(none, 0)), 0u)
      << "zero-capacity rx must stay a no-op on repeat";

  // Idle-wire maintenance calls: flush and advance with nothing staged.
  if (h->dut_loop) {
    EXPECT_EQ(h->dut_loop->flush(), 0u);
    h->dut_loop->advance(16);
    EXPECT_EQ(h->dut_loop->in_flight(), 0u);
  }
  if (h->peer_loop) EXPECT_EQ(h->peer_loop->flush(), 0u);

  // Now prime one frame and confirm zero-capacity rx STILL returns
  // nothing (capacity, not availability, is the bound) and doesn't
  // disturb the frame, which a real burst then picks up intact.
  if (h->injectable()) {
    std::vector<net::PacketPtr> frames;
    frames.push_back(make_frame(h->audit_pool(), 5, 99, 0));
    ASSERT_EQ(h->inject(frames), 1u);
    h->settle();
    EXPECT_EQ(h->dut->rx_burst(std::span<net::PacketPtr>(none, 0)), 0u);
    net::PacketPtr got[4];
    const std::size_t n =
        h->dut->rx_burst(std::span<net::PacketPtr>(got, 4));
    ASSERT_EQ(n, 1u);
    ASSERT_TRUE(got[0]);
    EXPECT_EQ(got[0]->anno().flow_id, 5u);
    EXPECT_EQ(got[0]->anno().seq, 99u);
    got[0].reset();
  }
  EXPECT_EQ(h->audit_pool().in_use(), 0u) << "zero-leak quiesce";
}

TEST_P(BackendConformance, RoundTripConservesPacketsAndPool) {
  auto h = GetParam().second();
  ASSERT_TRUE(h->dut->start());
  constexpr std::size_t kFrames = 256;
  std::size_t injected = 0, rxed = 0, txed = 0;
  net::PacketPtr buf[32];
  std::size_t next_seq = 0;
  while (txed < kFrames) {
    if (h->injectable() && injected < kFrames) {
      std::vector<net::PacketPtr> frames;
      for (int i = 0; i < 16 && injected + frames.size() < kFrames; ++i)
        frames.push_back(
            make_frame(h->audit_pool(), 2, next_seq++, 0));
      injected += h->inject(frames);
      // Unaccepted frames drop here and recycle; don't count them.
      for (auto& f : frames)
        if (f) --next_seq, f.reset();
      h->settle();
    }
    const std::size_t n =
        h->dut->rx_burst(std::span<net::PacketPtr>(buf, 32));
    rxed += n;
    if (n > 0) {
      std::size_t sent = 0;
      while (sent < n)
        sent += h->dut->tx_burst(
            std::span<net::PacketPtr>(buf + sent, n - sent));
      txed += sent;
    }
    if (!h->injectable() && rxed >= kFrames) break;
  }
  // Wire backends: the peer drains the echoed frames.
  if (h->injectable()) {
    h->settle();
    net::PacketPtr drain[32];
    std::size_t echoed = 0;
    std::size_t k;
    while ((k = h->peer->rx_burst(
                std::span<net::PacketPtr>(drain, 32))) > 0) {
      for (std::size_t i = 0; i < k; ++i) drain[i].reset();
      echoed += k;
      h->settle();
    }
    EXPECT_EQ(echoed, txed);
  }
  EXPECT_EQ(h->dut->rx_packets(), rxed);
  EXPECT_GE(h->dut->tx_packets(), txed);
  EXPECT_EQ(h->audit_pool().in_use(), 0u) << "zero-leak quiesce";
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BackendConformance,
    ::testing::Values(
        std::make_pair("synthetic", HarnessFactory(make_synthetic)),
        std::make_pair("loopback", HarnessFactory(make_loopback))),
    [](const auto& info) { return std::string(info.param.first); });

// ---------------------------------------------------------------------------
// Loopback as the deterministic wire: byte-exact delivery and fault lanes.

TEST(LoopbackWire, VxlanFrameRoundTripsByteForByte) {
  net::PacketPool pool(64, 2048, false);
  auto [a, b] = io::LoopbackBackend::make_pair({});
  net::PacketPtr pkt = make_frame(pool, 7, 42, 1);
  ASSERT_TRUE(pkt);
  net::VxlanTunnel tunnel;
  tunnel.local_vtep = 0xc0a80001;
  tunnel.remote_vtep = 0xc0a80002;
  tunnel.vni = 5001;
  ASSERT_TRUE(net::vxlan_encap(*pkt, tunnel));
  std::vector<std::byte> wire_bytes(pkt->payload().begin(),
                                    pkt->payload().end());

  net::PacketPtr frames[1] = {std::move(pkt)};
  ASSERT_EQ(a->tx_burst(frames), 1u);
  net::PacketPtr got[4];
  ASSERT_EQ(b->rx_burst(got), 1u);
  ASSERT_TRUE(got[0]);
  ASSERT_EQ(got[0]->length(), wire_bytes.size());
  EXPECT_EQ(std::memcmp(got[0]->data(), wire_bytes.data(),
                        wire_bytes.size()),
            0)
      << "the wire must not touch a single byte";
  // Annotations ride along (same Packet object end to end).
  EXPECT_EQ(got[0]->anno().flow_id, 7u);
  EXPECT_EQ(got[0]->anno().seq, 42u);
  auto info = net::vxlan_decap(*got[0]);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->vni, 5001u);
  got[0].reset();
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(LoopbackWire, SeededFaultsAreDeterministic) {
  auto run_once = [] {
    net::PacketPool pool(256, 2048, false);
    io::LoopbackConfig cfg;
    cfg.seed = 1234;
    auto [a, b] = io::LoopbackBackend::make_pair(cfg);
    io::LoopbackFaults f;
    f.drop_rate = 0.2;
    f.dup_rate = 0.15;
    f.reorder_rate = 0.3;
    f.reorder_extra_ticks = 3;
    a->set_path_faults(0, f);
    std::vector<std::uint64_t> delivered;
    for (std::uint64_t seq = 0; seq < 100; ++seq) {
      a->advance(1);  // the driver owns wire time; tx_burst never ticks
      net::PacketPtr frames[1] = {make_frame(pool, 0, seq, 0)};
      EXPECT_EQ(a->tx_burst(frames), 1u);
      net::PacketPtr got[8];
      std::size_t n;
      while ((n = b->rx_burst(got)) > 0)
        for (std::size_t i = 0; i < n; ++i) {
          delivered.push_back(got[i]->anno().seq);
          got[i].reset();
        }
    }
    while (a->in_flight() > 0) {
      a->flush();
      net::PacketPtr got[8];
      std::size_t n;
      while ((n = b->rx_burst(got)) > 0)
        for (std::size_t i = 0; i < n; ++i) {
          delivered.push_back(got[i]->anno().seq);
          got[i].reset();
        }
    }
    EXPECT_EQ(pool.in_use(), 0u);
    return delivered;
  };
  auto first = run_once();
  auto second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "same seed, same stream, same delivery order";
  EXPECT_NE(first.size(), 100u) << "faults visibly reshape the stream";
}

TEST(LoopbackWire, PerPathDelayLetsFastPathOvertake) {
  net::PacketPool pool(64, 2048, false);
  auto [a, b] = io::LoopbackBackend::make_pair({});
  io::LoopbackFaults slow;
  slow.delay_ticks = 3;
  a->set_path_faults(1, slow);  // path 1 is the slow last mile
  // seq 0 rides the slow path, seq 1 the fast one, in separate tx calls.
  net::PacketPtr f0[1] = {make_frame(pool, 0, 0, 1)};
  net::PacketPtr f1[1] = {make_frame(pool, 0, 1, 0)};
  ASSERT_EQ(a->tx_burst(f0), 1u);
  ASSERT_EQ(a->tx_burst(f1), 1u);
  a->advance(4);  // slow frame's delivery tick arrives
  net::PacketPtr got[4];
  const std::size_t n = b->rx_burst(got);
  ASSERT_EQ(n, 2u);
  EXPECT_EQ(got[0]->anno().seq, 1u) << "fast path delivered first";
  EXPECT_EQ(got[1]->anno().seq, 0u);
  got[0].reset();
  got[1].reset();
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(LoopbackWire, DropLaneEatsEverythingAndLeaksNothing) {
  net::PacketPool pool(64, 2048, false);
  auto [a, b] = io::LoopbackBackend::make_pair({});
  io::LoopbackFaults f;
  f.drop_rate = 1.0;
  a->set_path_faults(0, f);
  for (std::uint64_t seq = 0; seq < 32; ++seq) {
    net::PacketPtr frames[1] = {make_frame(pool, 0, seq, 0)};
    ASSERT_EQ(a->tx_burst(frames), 1u) << "drops still consume ownership";
  }
  EXPECT_EQ(a->dropped(), 32u);
  net::PacketPtr got[4];
  EXPECT_EQ(b->rx_burst(got), 0u);
  EXPECT_EQ(pool.in_use(), 0u) << "dropped frames went back to the pool";
}

// ---------------------------------------------------------------------------
// The receive-side healing pipeline over fault lanes: this is what the
// conformance suite exists to protect.

TEST(LoopbackHealing, DeduplicatorDeliversExactlyOnceUnderDupFaults) {
  net::PacketPool pool(512, 2048, false);
  sim::EventQueue eq;
  auto [a, b] = io::LoopbackBackend::make_pair({});
  io::LoopbackFaults f;
  f.dup_rate = 1.0;  // the wire doubles every frame
  a->set_path_faults(0, f);
  std::uint64_t egressed = 0;
  core::Merge merge(eq, {}, [&](net::PacketPtr) { ++egressed; });
  constexpr std::uint64_t kSeqs = 200;
  std::uint64_t delivered = 0, arrivals = 0;
  for (std::uint64_t seq = 0; seq < kSeqs; ++seq) {
    merge.expect(3, seq, 2);
    net::PacketPtr frames[1] = {make_frame(pool, 3, seq, 0)};
    ASSERT_EQ(a->tx_burst(frames), 1u);
    net::PacketPtr got[8];
    std::size_t n;
    while ((n = b->rx_burst(got)) > 0) {
      arrivals += n;
      delivered += merge.receive({got, n});
      for (std::size_t i = 0; i < n; ++i) got[i].reset();  // the losers
    }
  }
  EXPECT_EQ(a->duplicated(), kSeqs);
  EXPECT_EQ(arrivals, 2 * kSeqs) << "every frame arrived twice";
  EXPECT_EQ(delivered, kSeqs) << "but egressed exactly once";
  EXPECT_EQ(egressed, kSeqs);
  EXPECT_EQ(merge.dedup().dup_drops(), kSeqs);
  EXPECT_EQ(merge.dedup().pending(), 0u);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(LoopbackHealing, ReorderBufferHealsWireReordering) {
  net::PacketPool pool(512, 2048, false);
  sim::EventQueue eq;
  auto [a, b] = io::LoopbackBackend::make_pair({});
  io::LoopbackFaults f;
  f.reorder_rate = 0.4;
  f.reorder_extra_ticks = 5;
  a->set_path_faults(0, f);

  std::vector<std::uint64_t> emitted;
  core::ReorderBuffer reorder(eq, {true, 1'000'000},
                              [&](net::PacketPtr pkt) {
                                emitted.push_back(pkt->anno().seq);
                              });
  constexpr std::uint64_t kSeqs = 400;
  std::uint64_t wire_order_breaks = 0, last_rx = 0;
  bool first_rx = true;
  for (std::uint64_t seq = 0; seq < kSeqs; ++seq) {
    a->advance(1);  // wire time flows with the offered stream
    net::PacketPtr frames[1] = {make_frame(pool, 9, seq, 0)};
    ASSERT_EQ(a->tx_burst(frames), 1u);
    net::PacketPtr got[16];
    std::size_t n;
    while ((n = b->rx_burst(got)) > 0) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!first_rx && got[i]->anno().seq < last_rx) ++wire_order_breaks;
        last_rx = got[i]->anno().seq;
        first_rx = false;
        reorder.submit(std::move(got[i]));
      }
      eq.run_until(eq.now() + 100);
    }
  }
  while (a->in_flight() > 0) {
    a->flush();
    net::PacketPtr got[16];
    std::size_t n;
    while ((n = b->rx_burst(got)) > 0) {
      for (std::size_t i = 0; i < n; ++i) reorder.submit(std::move(got[i]));
      eq.run_until(eq.now() + 100);
    }
  }
  EXPECT_GT(a->reordered(), 0u);
  EXPECT_GT(wire_order_breaks, 0u) << "the wire really did reorder";
  ASSERT_EQ(emitted.size(), kSeqs);
  for (std::uint64_t i = 0; i < kSeqs; ++i)
    ASSERT_EQ(emitted[i], i) << "healed stream must be in order";
  EXPECT_GT(reorder.out_of_order(), 0u);
  EXPECT_EQ(reorder.buffered(), 0u);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(LoopbackHealing, FlushAllReleasesPendingThroughThePool) {
  // Path-down drill: strand successors behind a hole, flush, audit.
  net::PacketPool pool(64, 2048, false);
  sim::EventQueue eq;
  std::vector<std::uint64_t> emitted;
  core::ReorderBuffer reorder(eq, {true, 1'000'000},
                              [&](net::PacketPtr pkt) {
                                emitted.push_back(pkt->anno().seq);
                              });
  // seq 0 "was dispatched on the path that just died": submit only 1..5.
  for (std::uint64_t seq = 1; seq <= 5; ++seq)
    reorder.submit(make_frame(pool, 4, seq, 1));
  EXPECT_TRUE(emitted.empty());
  EXPECT_EQ(reorder.buffered(), 5u);
  EXPECT_EQ(pool.in_use(), 5u);

  EXPECT_EQ(reorder.flush_all(), 5u);
  EXPECT_EQ(reorder.flushed(), 5u);
  ASSERT_EQ(emitted.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(emitted[i], i + 1);
  EXPECT_EQ(reorder.buffered(), 0u);
  EXPECT_EQ(pool.in_use(), 0u)
      << "flush released every pending PacketPtr through the pool";
  // The window advanced past the hole: the flow continues in order and a
  // late copy of the hole is delivered as late-after-skip, not lost.
  reorder.submit(make_frame(pool, 4, 6, 1));
  reorder.submit(make_frame(pool, 4, 0, 1));
  EXPECT_EQ(emitted.size(), 7u);
  EXPECT_EQ(reorder.late_after_skip(), 1u);
  eq.clear();
  EXPECT_EQ(pool.in_use(), 0u);
}

// ---------------------------------------------------------------------------
// The 10k-packet seeded property test: redundant-2 dispatch over two
// faulty last-mile paths, healed by dedup + reorder. Invariants:
//   exactly-once  — every seq with >= 1 surviving copy egresses once
//   in-order      — per-flow egress seqs strictly increase
//   zero leaks    — the frame pool is fully recycled at quiesce
TEST(LoopbackHealing, PropertyTenThousandPacketsExactlyOnceInOrder) {
  constexpr std::uint32_t kFlows = 4;
  constexpr std::uint64_t kSeqsPerFlow = 1250;  // x2 copies = 10k frames
  net::PacketPool pool(8192, 2048, false);
  sim::EventQueue eq;
  io::LoopbackConfig cfg;
  cfg.queue_depth = 8192;
  cfg.seed = 42;
  auto [tx, rx] = io::LoopbackBackend::make_pair(cfg);
  io::LoopbackFaults path0;
  path0.drop_rate = 0.10;
  path0.dup_rate = 0.05;
  path0.reorder_rate = 0.20;
  path0.reorder_extra_ticks = 6;
  io::LoopbackFaults path1;
  path1.drop_rate = 0.25;
  path1.dup_rate = 0.02;
  path1.reorder_rate = 0.10;
  path1.reorder_extra_ticks = 3;
  path1.delay_ticks = 2;  // the asymmetric slow path
  tx->set_path_faults(0, path0);
  tx->set_path_faults(1, path1);

  std::map<std::pair<std::uint32_t, std::uint64_t>, int> egressed;
  std::vector<std::uint64_t> last_seq(kFlows, 0);
  std::vector<bool> any_seq(kFlows, false);
  std::uint64_t order_violations = 0;
  // Timeout is sized >> the wire's worst dwell (~8 ticks of eq time) so a
  // skip can never outrun an in-flight copy, yet small enough that timers
  // fire mid-run and permanent holes don't strand the whole tail.
  core::Merge merge(
      eq, {true, 10'000}, [&](net::PacketPtr pkt) {
        const auto& a = pkt->anno();
        ++egressed[{a.flow_id, a.seq}];
        if (any_seq[a.flow_id] && a.seq <= last_seq[a.flow_id])
          ++order_violations;
        last_seq[a.flow_id] = a.seq;
        any_seq[a.flow_id] = true;
      });

  std::set<std::pair<std::uint32_t, std::uint64_t>> arrived;
  auto drain = [&] {
    net::PacketPtr got[64];
    std::size_t n;
    while ((n = rx->rx_burst(got)) > 0) {
      for (std::size_t i = 0; i < n; ++i)
        arrived.insert({got[i]->anno().flow_id, got[i]->anno().seq});
      merge.receive({got, n});
      for (std::size_t i = 0; i < n; ++i) got[i].reset();  // duplicates
      eq.run_until(eq.now() + 50);
    }
  };

  for (std::uint64_t seq = 0; seq < kSeqsPerFlow; ++seq) {
    for (std::uint32_t flow = 0; flow < kFlows; ++flow) {
      tx->advance(1);  // one wire tick per offered redundant pair
      merge.expect(flow, seq, 2);
      net::PacketPtr copies[2] = {make_frame(pool, flow, seq, 0, 0),
                                  make_frame(pool, flow, seq, 1, 1)};
      ASSERT_TRUE(copies[0] && copies[1]) << "pool sized for the sweep";
      std::size_t sent = 0;
      while (sent < 2)
        sent += tx->tx_burst(std::span<net::PacketPtr>(copies + sent,
                                                       2 - sent));
      drain();
    }
  }
  // Quiesce: release staged wire frames, fire reorder timers, flush.
  while (tx->in_flight() > 0) {
    tx->flush();
    drain();
  }
  eq.run();   // all timeout timers fire: windows hop permanent holes
  drain();
  merge.flush_all();

  // exactly-once: nothing egressed twice, and everything that survived
  // the wire egressed.
  std::uint64_t total_egressed = 0;
  for (const auto& [key, count] : egressed) {
    EXPECT_EQ(count, 1) << "flow " << key.first << " seq " << key.second
                        << " egressed " << count << " times";
    total_egressed += static_cast<std::uint64_t>(count);
  }
  EXPECT_EQ(total_egressed, arrived.size())
      << "every (flow, seq) with a surviving copy egressed exactly once";
  EXPECT_GT(tx->dropped(), 0u);
  EXPECT_GT(tx->duplicated(), 0u);
  EXPECT_GT(tx->reordered(), 0u);
  EXPECT_LT(arrived.size(), kFlows * kSeqsPerFlow)
      << "some seqs lost both copies (the interesting case)";
  EXPECT_EQ(order_violations, 0u) << "per-flow egress stayed in order";
  EXPECT_EQ(merge.reorder().buffered(), 0u);
  EXPECT_EQ(pool.in_use(), 0u) << "zero pool leaks at quiesce";
  EXPECT_EQ(pool.total_allocs(), pool.total_recycles());
}

// ---------------------------------------------------------------------------
// Differential wire oracle: a deliberately naive reference model of the
// loopback fault semantics — plain vectors, a full sort per release, and a
// per-frame replay of the same splitmix64 streams. The slab/calendar
// rewrite must be byte-equivalent to it: same delivery order, same fault
// counters, same pool balance, for any seed.

struct NaiveWireModel {
  struct Delivered {
    std::uint32_t flow;
    std::uint64_t seq;
    std::uint8_t copy;
    bool operator==(const Delivered&) const = default;
  };

  explicit NaiveWireModel(std::uint64_t seed) : seed_(seed) {}

  static std::uint64_t next_u64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);  // splitmix64
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  static double next_unit(std::uint64_t& state) {
    return static_cast<double>(next_u64(state) >> 11) * 0x1.0p-53;
  }

  std::uint64_t& rng(std::uint16_t path) {
    if (path >= state_.size()) {
      const std::size_t old = state_.size();
      state_.resize(path + 1);
      for (std::size_t p = old; p < state_.size(); ++p)
        state_[p] = seed_ * 0x9e3779b97f4a7c15ull + p + 1;
    }
    return state_[path];
  }

  void set_faults(std::uint16_t path, const io::LoopbackFaults& f) {
    if (path >= lanes_.size()) lanes_.resize(path + 1);
    lanes_[path] = f;
    rng(path);
  }

  void tx(std::uint32_t flow, std::uint64_t seq, std::uint16_t path,
          std::uint8_t copy) {
    static const io::LoopbackFaults kClean{};
    const io::LoopbackFaults& lane =
        path < lanes_.size() ? lanes_[path] : kClean;
    if (lane.drop_rate > 0 && next_unit(rng(path)) < lane.drop_rate) {
      ++dropped;
      return;
    }
    std::uint64_t due = tick_ + lane.delay_ticks;
    if (lane.reorder_rate > 0 && next_unit(rng(path)) < lane.reorder_rate) {
      due += lane.reorder_extra_ticks;
      ++reordered;
    }
    const bool dup =
        lane.dup_rate > 0 && next_unit(rng(path)) < lane.dup_rate;
    emit(due, {flow, seq, copy});
    if (dup) {
      ++duplicated;
      emit(due, {flow, seq, static_cast<std::uint8_t>(copy + 1)});
    }
  }

  void advance(std::uint64_t ticks) {
    tick_ += ticks;
    release(tick_);
  }

  void flush_all() { release(UINT64_MAX); }

  std::vector<Delivered> delivered;
  std::uint64_t dropped = 0, duplicated = 0, reordered = 0;

 private:
  struct Held {
    std::uint64_t due, order;
    Delivered d;
  };

  void emit(std::uint64_t due, Delivered d) {
    if (due <= tick_) {
      delivered.push_back(d);  // the wire passes it straight through
    } else {
      held_.push_back(Held{due, order_++, d});
    }
  }

  void release(std::uint64_t limit) {
    std::vector<Held> ready;
    std::erase_if(held_, [&](const Held& h) {
      if (h.due > limit) return false;
      ready.push_back(h);
      return true;
    });
    std::sort(ready.begin(), ready.end(), [](const Held& a, const Held& b) {
      return a.due != b.due ? a.due < b.due : a.order < b.order;
    });
    for (const Held& h : ready) delivered.push_back(h.d);
  }

  std::uint64_t seed_;
  std::uint64_t tick_ = 0;
  std::uint64_t order_ = 0;
  std::vector<io::LoopbackFaults> lanes_;
  std::vector<std::uint64_t> state_;
  std::vector<Held> held_;
};

TEST(LoopbackOracle, PropertyRewrittenWireMatchesNaiveModelExactly) {
  constexpr std::uint64_t kFrames = 10'000;
  constexpr std::size_t kWindow = 16;  // frames per wire tick
  io::LoopbackFaults lane0;
  lane0.drop_rate = 0.08;
  lane0.dup_rate = 0.06;
  lane0.reorder_rate = 0.15;
  lane0.reorder_extra_ticks = 5;
  lane0.delay_ticks = 1;
  io::LoopbackFaults lane1;
  lane1.drop_rate = 0.20;
  lane1.dup_rate = 0.02;
  lane1.reorder_rate = 0.10;
  lane1.reorder_extra_ticks = 3;
  lane1.delay_ticks = 3;
  // path 2 stays clean: the direct-push fast path must interleave
  // correctly with both faulted lanes.

  for (const std::uint64_t seed : {11ull, 42ull, 20260808ull}) {
    net::PacketPool pool(2048, 2048, false);
    io::LoopbackConfig cfg;
    cfg.queue_depth = 8192;
    cfg.seed = seed;
    auto [tx, rx] = io::LoopbackBackend::make_pair(cfg);
    tx->set_path_faults(0, lane0);
    tx->set_path_faults(1, lane1);

    NaiveWireModel model(seed);
    model.set_faults(0, lane0);
    model.set_faults(1, lane1);

    std::vector<NaiveWireModel::Delivered> wire;
    auto drain = [&] {
      net::PacketPtr got[64];
      std::size_t n;
      while ((n = rx->rx_burst(got)) > 0)
        for (std::size_t i = 0; i < n; ++i) {
          const auto& a = got[i]->anno();
          wire.push_back({a.flow_id, a.seq, a.copy_index});
          got[i].reset();
        }
    };

    net::PacketPtr burst[kWindow];
    for (std::uint64_t base = 0; base < kFrames; base += kWindow) {
      tx->advance(1);
      model.advance(1);
      std::size_t built = 0;
      for (; built < kWindow && base + built < kFrames; ++built) {
        const std::uint64_t i = base + built;
        const auto path = static_cast<std::uint16_t>((i * 2654435761u) % 3);
        const auto flow = static_cast<std::uint32_t>(i % 7);
        burst[built] = make_frame(pool, flow, i, path);
        ASSERT_TRUE(burst[built]);
        model.tx(flow, i, path, 0);
      }
      std::size_t sent = 0;
      while (sent < built)
        sent += tx->tx_burst(
            std::span<net::PacketPtr>(burst + sent, built - sent));
      drain();
    }
    while (tx->in_flight() > 0) {
      tx->flush();
      drain();
    }
    model.flush_all();

    ASSERT_EQ(wire.size(), model.delivered.size()) << "seed " << seed;
    for (std::size_t i = 0; i < wire.size(); ++i)
      ASSERT_TRUE(wire[i] == model.delivered[i])
          << "seed " << seed << ": delivery diverged at index " << i
          << " (wire flow " << wire[i].flow << " seq " << wire[i].seq
          << " copy " << int(wire[i].copy) << " vs model flow "
          << model.delivered[i].flow << " seq " << model.delivered[i].seq
          << " copy " << int(model.delivered[i].copy) << ")";
    EXPECT_EQ(tx->dropped(), model.dropped) << "seed " << seed;
    EXPECT_EQ(tx->duplicated(), model.duplicated) << "seed " << seed;
    EXPECT_EQ(tx->reordered(), model.reordered) << "seed " << seed;
    EXPECT_EQ(pool.in_use(), 0u) << "seed " << seed;
    EXPECT_EQ(pool.total_allocs(), pool.total_recycles())
        << "seed " << seed << ": dup clones must come from the wire's own "
        << "slab, never the caller's pool";
  }
}

// ---------------------------------------------------------------------------
// Burst-size byte-identity: fault decisions are strictly per-frame, so the
// same seed + offered stream must deliver identically no matter how the
// stream is chunked into bursts. Pins the "batched evaluation, per-frame
// decisions" contract of the slab rewrite.

TEST(LoopbackOracle, BurstSizeCannotChangeDeliveryOrFaultCounters) {
  constexpr std::uint64_t kFrames = 4096;
  constexpr std::uint64_t kWindow = 256;  // frames per wire tick
  io::LoopbackFaults lane0;
  lane0.drop_rate = 0.05;
  lane0.dup_rate = 0.04;
  lane0.reorder_rate = 0.12;
  lane0.reorder_extra_ticks = 4;
  io::LoopbackFaults lane1;
  lane1.drop_rate = 0.15;
  lane1.reorder_rate = 0.08;
  lane1.reorder_extra_ticks = 2;
  lane1.delay_ticks = 3;

  struct RunResult {
    std::vector<NaiveWireModel::Delivered> delivered;
    std::uint64_t dropped, duplicated, reordered;
  };
  auto run_with_burst = [&](std::size_t burst_size) {
    net::PacketPool pool(2048, 2048, false);
    io::LoopbackConfig cfg;
    cfg.queue_depth = 8192;
    cfg.seed = 7;
    auto [tx, rx] = io::LoopbackBackend::make_pair(cfg);
    tx->set_path_faults(0, lane0);
    tx->set_path_faults(1, lane1);

    RunResult res;
    auto drain = [&] {
      net::PacketPtr got[64];
      std::size_t n;
      while ((n = rx->rx_burst(got)) > 0)
        for (std::size_t i = 0; i < n; ++i) {
          const auto& a = got[i]->anno();
          res.delivered.push_back({a.flow_id, a.seq, a.copy_index});
          got[i].reset();
        }
    };

    std::vector<net::PacketPtr> chunk(burst_size);
    for (std::uint64_t base = 0; base < kFrames; base += kWindow) {
      tx->advance(1);  // wire time is fixed at window granularity, so the
                       // chunking below is the only variable
      for (std::uint64_t off = 0; off < kWindow; off += burst_size) {
        for (std::size_t k = 0; k < burst_size; ++k) {
          const std::uint64_t i = base + off + k;
          chunk[k] = make_frame(pool, static_cast<std::uint32_t>(i % 5), i,
                                static_cast<std::uint16_t>(i & 1));
          EXPECT_TRUE(chunk[k]);
        }
        std::size_t sent = 0;
        while (sent < burst_size)
          sent += tx->tx_burst(std::span<net::PacketPtr>(
              chunk.data() + sent, burst_size - sent));
      }
      drain();
    }
    while (tx->in_flight() > 0) {
      tx->flush();
      drain();
    }
    res.dropped = tx->dropped();
    res.duplicated = tx->duplicated();
    res.reordered = tx->reordered();
    EXPECT_EQ(pool.in_use(), 0u) << "burst " << burst_size;
    return res;
  };

  const RunResult ref = run_with_burst(1);
  EXPECT_FALSE(ref.delivered.empty());
  EXPECT_GT(ref.reordered, 0u);
  for (const std::size_t b : {8u, 32u, 256u}) {
    const RunResult got = run_with_burst(b);
    EXPECT_EQ(got.delivered.size(), ref.delivered.size()) << "burst " << b;
    EXPECT_TRUE(got.delivered == ref.delivered)
        << "burst " << b << " changed the delivery order";
    EXPECT_EQ(got.dropped, ref.dropped) << "burst " << b;
    EXPECT_EQ(got.duplicated, ref.duplicated) << "burst " << b;
    EXPECT_EQ(got.reordered, ref.reordered) << "burst " << b;
  }
}

// ---------------------------------------------------------------------------
// Quiesce edge cases: the flush()/in_flight() contract under ring
// backpressure, empty spans, and fault-lane pool traffic.

TEST(LoopbackQuiesce, FlushAgainstFullRxRingReleasesPartiallyUntilDrained) {
  net::PacketPool pool(128, 2048, false);
  io::LoopbackConfig cfg;
  cfg.queue_depth = 64;
  cfg.ring_capacity = 8;  // shallow wire: staged frames outnumber slots
  auto [tx, rx] = io::LoopbackBackend::make_pair(cfg);
  io::LoopbackFaults slow;
  slow.delay_ticks = 1000;  // far beyond the test horizon
  tx->set_path_faults(0, slow);

  net::PacketPtr frames[32];
  for (std::uint64_t seq = 0; seq < 32; ++seq)
    frames[seq] = make_frame(pool, 0, seq, 0);
  ASSERT_EQ(tx->tx_burst(frames), 32u);
  EXPECT_EQ(tx->in_flight(), 32u);

  // First flush can only fill the 8-slot ring: a partial release.
  const std::size_t first = tx->flush();
  EXPECT_EQ(first, 8u) << "flush is bounded by wire ring space";
  EXPECT_EQ(tx->in_flight(), 32u) << "unreleased frames still in flight";

  // Repeat-until-drained: interleave rx_burst and flush, frames arrive in
  // (due, tx order) — here all dues are equal, so in tx order.
  std::uint64_t expect_seq = 0;
  std::size_t rounds = 0;
  while (tx->in_flight() > 0) {
    ASSERT_LT(rounds++, 64u) << "quiesce loop must terminate";
    net::PacketPtr got[8];
    std::size_t n;
    while ((n = rx->rx_burst(got)) > 0)
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i]->anno().seq, expect_seq++);
        got[i].reset();
      }
    tx->flush();
  }
  EXPECT_EQ(expect_seq, 32u) << "every staged frame was released";
  EXPECT_GE(rounds, 4u) << "the shallow ring forced multiple rounds";
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.total_allocs(), pool.total_recycles());
}

TEST(LoopbackQuiesce, ZeroCapacitySpansAndExhaustedWireConsumeNothing) {
  net::PacketPool pool(64, 2048, false);
  io::LoopbackConfig cfg;
  cfg.queue_depth = 8;
  auto [tx, rx] = io::LoopbackBackend::make_pair(cfg);
  io::LoopbackFaults slow;
  slow.delay_ticks = 100;
  tx->set_path_faults(0, slow);

  // Zero-capacity spans: no consumption, no counters, no clock movement.
  EXPECT_EQ(tx->tx_burst({}), 0u);
  EXPECT_EQ(rx->rx_burst({}), 0u);
  EXPECT_EQ(tx->tx_packets(), 0u);
  EXPECT_EQ(tx->tx_rejected(), 0u);
  EXPECT_EQ(tx->tick(), 0u);

  // Fill the wire to queue_depth, then offer more: the partial-burst rule
  // consumes nothing and accounts the rejects.
  net::PacketPtr fill[8];
  for (std::uint64_t seq = 0; seq < 8; ++seq)
    fill[seq] = make_frame(pool, 0, seq, 0);
  ASSERT_EQ(tx->tx_burst(fill), 8u);
  EXPECT_EQ(tx->in_flight(), 8u);

  net::PacketPtr extra[4];
  for (std::uint64_t seq = 8; seq < 12; ++seq)
    extra[seq - 8] = make_frame(pool, 0, seq, 0);
  EXPECT_EQ(tx->tx_burst(extra), 0u) << "wire at queue_depth rejects all";
  EXPECT_EQ(tx->tx_rejected(), 4u);
  for (auto& p : extra) {
    EXPECT_TRUE(p) << "rejected frames stay caller-owned";
    p.reset();
  }

  while (tx->in_flight() > 0) {
    tx->flush();
    net::PacketPtr got[8];
    std::size_t n;
    while ((n = rx->rx_burst(got)) > 0)
      for (std::size_t i = 0; i < n; ++i) got[i].reset();
  }
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.total_allocs(), pool.total_recycles());
}

TEST(LoopbackQuiesce, InFlightAccountsDropRecycleAndSlabClones) {
  net::PacketPool pool(128, 2048, false);
  auto [tx, rx] = io::LoopbackBackend::make_pair({});
  io::LoopbackFaults eat;
  eat.drop_rate = 1.0;
  io::LoopbackFaults twin;
  twin.dup_rate = 1.0;
  tx->set_path_faults(0, eat);
  tx->set_path_faults(1, twin);

  // Drop lane: consumed but never in flight — recycled synchronously.
  const std::uint64_t allocs_before = pool.total_allocs();
  net::PacketPtr doomed[10];
  for (std::uint64_t seq = 0; seq < 10; ++seq)
    doomed[seq] = make_frame(pool, 0, seq, 0);
  ASSERT_EQ(tx->tx_burst(doomed), 10u);
  EXPECT_EQ(tx->dropped(), 10u);
  EXPECT_EQ(tx->in_flight(), 0u) << "dropped frames are not in flight";
  EXPECT_EQ(pool.in_use(), 0u) << "drop recycles synchronously";

  // Dup lane: each frame doubles; clones count toward in_flight but come
  // from the backend's slab, not the caller's pool.
  net::PacketPtr twins[10];
  for (std::uint64_t seq = 0; seq < 10; ++seq)
    twins[seq] = make_frame(pool, 7, seq, 1);
  ASSERT_EQ(tx->tx_burst(twins), 10u);
  EXPECT_EQ(tx->duplicated(), 10u);
  EXPECT_EQ(tx->in_flight(), 20u) << "originals + clones in flight";
  EXPECT_EQ(pool.total_allocs(), allocs_before + 20)
      << "exactly the frames this test built: clones never touched the "
      << "caller pool";

  std::size_t received = 0;
  net::PacketPtr got[32];
  std::size_t n;
  while ((n = rx->rx_burst(got)) > 0)
    for (std::size_t i = 0; i < n; ++i) {
      ++received;
      got[i].reset();
    }
  EXPECT_EQ(received, 20u);
  EXPECT_EQ(tx->in_flight(), 0u);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.total_allocs(), pool.total_recycles());
}

}  // namespace
}  // namespace mdp

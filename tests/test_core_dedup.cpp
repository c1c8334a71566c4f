// Deduplicator tests: exactly-once acceptance, expected-count accounting,
// hedge increments, cancellation, and the age sweep; core::Merge's burst
// receive against its per-packet receive.
#include <gtest/gtest.h>

#include "core/dedup.hpp"
#include "merge_stream.hpp"
#include "sim/rng.hpp"

#include <set>
#include <vector>

namespace mdp::core {
namespace {

TEST(Dedup, FirstCopyWinsRestDrop) {
  Deduplicator d;
  auto k = Deduplicator::key(1, 1);
  d.expect(k, 3, 0);
  EXPECT_TRUE(d.accept(k));
  EXPECT_FALSE(d.accept(k));
  EXPECT_FALSE(d.accept(k));
  EXPECT_EQ(d.dup_drops(), 2u);
  EXPECT_EQ(d.pending(), 0u) << "entry retires when all copies seen";
}

TEST(Dedup, SingleCopyRetiresImmediately) {
  Deduplicator d;
  auto k = Deduplicator::key(5, 9);
  d.expect(k, 1, 0);
  EXPECT_TRUE(d.accept(k));
  EXPECT_EQ(d.pending(), 0u);
}

TEST(Dedup, UnknownKeyIsLateDrop) {
  Deduplicator d;
  EXPECT_FALSE(d.accept(Deduplicator::key(1, 1)));
  EXPECT_EQ(d.late_drops(), 1u);
}

TEST(Dedup, KeysAreFlowAndSeqScoped) {
  // Distinct (flow, seq) pairs used in practice map to distinct keys.
  Deduplicator d;
  d.expect(Deduplicator::key(1, 0), 1, 0);
  d.expect(Deduplicator::key(2, 0), 1, 0);
  d.expect(Deduplicator::key(1, 1), 1, 0);
  EXPECT_TRUE(d.accept(Deduplicator::key(1, 0)));
  EXPECT_TRUE(d.accept(Deduplicator::key(2, 0)));
  EXPECT_TRUE(d.accept(Deduplicator::key(1, 1)));
}

TEST(Dedup, FlowIdsAboveTwoPow24DoNotAlias) {
  // These two ids differ only in bits 24-31; each flow's packet must be
  // accepted as its own first copy.
  constexpr std::uint32_t kA = 0x01000005, kB = 0x02000005;
  EXPECT_NE(Deduplicator::key(kA, 3), Deduplicator::key(kB, 3));
  Deduplicator d;
  d.expect(Deduplicator::key(kA, 3), 2, 0);
  d.expect(Deduplicator::key(kB, 3), 2, 0);
  EXPECT_EQ(d.pending(), 2u);
  EXPECT_TRUE(d.accept(Deduplicator::key(kA, 3)));
  EXPECT_TRUE(d.accept(Deduplicator::key(kB, 3)))
      << "flow B's first copy must not be taken for flow A's duplicate";
  EXPECT_FALSE(d.accept(Deduplicator::key(kA, 3)));
  EXPECT_FALSE(d.accept(Deduplicator::key(kB, 3)));
  EXPECT_EQ(d.dup_drops(), 2u);
  EXPECT_EQ(d.pending(), 0u);
}

TEST(Dedup, ReleaseFlowMatchesAll32FlowIdBits) {
  constexpr std::uint32_t kA = 0x01000005, kB = 0x02000005;
  Deduplicator d;
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    d.expect(Deduplicator::key(kA, seq), 2, 0);
    d.expect(Deduplicator::key(kB, seq), 2, 0);
  }
  d.expect(Deduplicator::key(0xffffffff, 0), 1, 0);
  EXPECT_EQ(d.release_flow(kA), 4u) << "exactly flow A's entries";
  EXPECT_EQ(d.pending(), 5u);
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    EXPECT_FALSE(d.completed(Deduplicator::key(kB, seq)))
        << "flow B's entries stay pending";
    EXPECT_TRUE(d.accept(Deduplicator::key(kB, seq)));
  }
  EXPECT_EQ(d.release_flow(0xffffffff), 1u);
  EXPECT_EQ(d.release_flow(kA), 0u);
}

TEST(Dedup, AddExpectedExtendsLifetime) {
  Deduplicator d;
  auto k = Deduplicator::key(1, 1);
  d.expect(k, 1, 0);
  d.add_expected(k);  // hedge issued
  EXPECT_TRUE(d.accept(k));
  EXPECT_EQ(d.pending(), 1u) << "hedge copy still outstanding";
  EXPECT_FALSE(d.accept(k));
  EXPECT_EQ(d.pending(), 0u);
}

TEST(Dedup, CancelOneReleasesSlot) {
  Deduplicator d;
  auto k = Deduplicator::key(1, 1);
  d.expect(k, 2, 0);
  EXPECT_TRUE(d.accept(k));
  EXPECT_EQ(d.pending(), 1u);
  d.cancel_one(k);  // second copy filtered in-chain
  EXPECT_EQ(d.pending(), 0u);
}

TEST(Dedup, CancelAllCopiesWithoutAcceptRetires) {
  Deduplicator d;
  auto k = Deduplicator::key(3, 3);
  d.expect(k, 2, 0);
  d.cancel_one(k);
  EXPECT_EQ(d.pending(), 1u);
  d.cancel_one(k);
  EXPECT_EQ(d.pending(), 0u);
}

TEST(Dedup, CompletedReflectsFirstAcceptance) {
  Deduplicator d;
  auto k = Deduplicator::key(1, 1);
  d.expect(k, 2, 0);
  EXPECT_FALSE(d.completed(k));
  d.accept(k);
  EXPECT_TRUE(d.completed(k));
  // Retired entries also count as completed.
  d.accept(k);
  EXPECT_TRUE(d.completed(k));
}

TEST(Dedup, SweepRemovesOnlyOldEntries) {
  Deduplicator d;
  d.expect(Deduplicator::key(1, 1), 2, /*now=*/0);
  d.expect(Deduplicator::key(1, 2), 2, /*now=*/900);
  EXPECT_EQ(d.sweep(/*now=*/1000, /*max_age=*/500), 1u);
  EXPECT_EQ(d.pending(), 1u);
  EXPECT_EQ(d.swept(), 1u);
}

TEST(Dedup, RandomizedExactlyOnceProperty) {
  // For random replication factors and arrival patterns, exactly one copy
  // per (flow, seq) is ever accepted.
  sim::Rng rng(31337);
  Deduplicator d;
  std::uint64_t accepted = 0;
  constexpr int kPackets = 20'000;
  for (int i = 0; i < kPackets; ++i) {
    std::uint32_t flow = static_cast<std::uint32_t>(rng.uniform_u64(64));
    auto k = Deduplicator::key(flow, static_cast<std::uint64_t>(i));
    auto copies = static_cast<std::uint8_t>(1 + rng.uniform_u64(4));
    d.expect(k, copies, 0);
    int accepted_here = 0;
    for (std::uint8_t c = 0; c < copies; ++c)
      if (d.accept(k)) ++accepted_here;
    ASSERT_EQ(accepted_here, 1);
    accepted += accepted_here;
  }
  EXPECT_EQ(accepted, static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(d.pending(), 0u);
}


TEST(Dedup, LateDuplicateAfterFlushAllIsReleasedNotLeaked) {
  // Regression: a path-down flush_all() releases a flow's buffered
  // original, the dedup sweep ages the half-open entry out, and only then
  // does the straggler copy limp off its slow path. The merge stage must
  // recycle it as a late drop — not re-egress it, not strand it in the
  // pool.
  sim::EventQueue eq;
  net::PacketPool pool{64, 256};
  std::vector<std::uint64_t> egressed;
  Merge merge(eq, ReorderConfig{}, [&](net::PacketPtr p) {
    egressed.push_back(p->anno().seq);  // PacketPtr recycles on scope exit
  });
  auto arrive = [&](std::uint64_t seq) {
    auto p = pool.alloc();
    p->anno().flow_id = 7;
    p->anno().seq = seq;
    return merge.receive(std::move(p));  // a loser comes back, recycles
  };

  merge.expect(7, 0, 2);
  merge.expect(7, 1, 2);
  EXPECT_FALSE(arrive(1));  // out of order: parks waiting for seq 0
  EXPECT_EQ(merge.reorder().buffered(), 1u);
  EXPECT_EQ(egressed.size(), 0u);

  // Path down: flush everything now; seq 1 egresses past the hole.
  EXPECT_EQ(merge.flush_all(), 1u);
  ASSERT_EQ(egressed.size(), 1u);
  EXPECT_EQ(egressed[0], 1u);
  EXPECT_EQ(pool.in_use(), 0u) << "flush_all leaked the buffered packet";

  // The age sweep retires both half-open entries (seq 0 never arrived at
  // all; seq 1 still owes its second copy)...
  eq.run_until(1'000'000);
  EXPECT_EQ(merge.sweep(/*max_age=*/500'000), 2u);
  EXPECT_EQ(merge.dedup().pending(), 0u);

  // ...and only now do the stragglers arrive: the duplicate of the
  // flushed seq-1 original, and the seq-0 copy whose twin died with the
  // path. Both must be recycled, neither may egress.
  EXPECT_TRUE(arrive(1));
  EXPECT_TRUE(arrive(0));
  EXPECT_EQ(merge.dedup().late_drops(), 2u);
  EXPECT_EQ(egressed.size(), 1u) << "a late copy re-egressed after flush";
  EXPECT_EQ(pool.in_use(), 0u) << "late duplicates leaked packets";
}

TEST(MergeDifferential, BurstReceiveMatchesPerPacketOnCopyHeavyStreams) {
  // 1–3 copies per packet, frequent hedges, cancelled copies and wire
  // duplicates: receive() on a burst must be exactly one receive() per
  // copy — same first-copy verdicts, egress, dwell and stats.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    const test::MergeStreamConfig c{
        .seed = seed, .hedge_p = 0.3, .cancel_p = 0.1, .dup_p = 0.2};
    const test::MergeRun a = test::run_merge_stream(c, false);
    const test::MergeRun b = test::run_merge_stream(c, true);
    EXPECT_EQ(a.won, b.won);
    EXPECT_EQ(a.egress, b.egress);
    EXPECT_TRUE(a.stats == b.stats);
    EXPECT_EQ(a.pool_in_use + b.pool_in_use, 0u);
    EXPECT_GT(a.stats.dup_drops, 0u);
    EXPECT_GT(a.stats.late_drops, 0u);
    // Exactly once: no (flow, seq) egresses twice.
    std::set<std::uint64_t> tags;
    for (const auto& e : a.egress) EXPECT_TRUE(tags.insert(e.first).second);
  }
}

}  // namespace
}  // namespace mdp::core

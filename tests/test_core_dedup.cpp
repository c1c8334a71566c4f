// Deduplicator tests: exactly-once acceptance, expected-count accounting,
// hedge increments and parking, cancellation, and the age sweep; the flat
// table against a map-based reference model; core::Merge's burst receive
// against its per-packet receive.
#include <gtest/gtest.h>

#include "core/dedup.hpp"
#include "merge_stream.hpp"
#include "sim/rng.hpp"

#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <utility>
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
  EXPECT_EQ(d.release_flow(kA, 4), 4u) << "exactly flow A's entries";
  EXPECT_EQ(d.pending(), 5u);
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    EXPECT_FALSE(d.completed(Deduplicator::key(kB, seq)))
        << "flow B's entries stay pending";
    EXPECT_TRUE(d.accept(Deduplicator::key(kB, seq)));
  }
  EXPECT_EQ(d.release_flow(0xffffffff, 1), 1u);
  EXPECT_EQ(d.release_flow(kA, 4), 0u);
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


TEST(Dedup, ParkedHedgeIsTakenOnceAndDisarmedByRetirement) {
  Deduplicator d;
  auto* original = reinterpret_cast<net::Packet*>(std::uintptr_t{64});
  const auto k = Deduplicator::key(9, 0);
  d.park(k, original);
  EXPECT_EQ(d.take(k), nullptr) << "nothing to park on";
  d.expect(k, 1, 0);
  d.park(k, original);
  EXPECT_EQ(d.take(k), original);
  EXPECT_EQ(d.take(k), nullptr) << "a hedge fires once";

  // Every way an entry retires disarms its hedge.
  for (int how = 0; how < 3; ++how) {
    SCOPED_TRACE(how);
    const auto r = Deduplicator::key(10, static_cast<std::uint64_t>(how));
    d.expect(r, 1, 0);
    d.park(r, original);
    if (how == 0) d.accept(r);
    if (how == 1) d.cancel_one(r);
    if (how == 2) d.release_flow(10, 3);
    EXPECT_EQ(d.take(r), nullptr);
  }
  EXPECT_EQ(d.pending(), 1u) << "only (9, 0) is still pending";
}

// Reference model: the map-based table the flat one replaced, with the
// same verdicts and counters by construction.
class MapDedup {
 public:
  void expect(std::uint64_t k, std::uint8_t copies, sim::TimeNs now) {
    m_.emplace(k, E{copies, 0, now, nullptr});
  }
  void add_expected(std::uint64_t k) {
    if (auto it = m_.find(k); it != m_.end()) ++it->second.expected;
  }
  bool accept(std::uint64_t k) {
    auto it = m_.find(k);
    if (it == m_.end()) {
      ++late_drops;
      return false;
    }
    const bool first = it->second.seen++ == 0;
    if (!first) ++dup_drops;
    if (it->second.seen >= it->second.expected) m_.erase(it);
    return first;
  }
  void cancel_one(std::uint64_t k) {
    auto it = m_.find(k);
    if (it == m_.end()) return;
    if (it->second.expected > 0) --it->second.expected;
    if (it->second.seen >= it->second.expected) m_.erase(it);
  }
  bool completed(std::uint64_t k) const {
    auto it = m_.find(k);
    return it == m_.end() || it->second.seen > 0;
  }
  void park(std::uint64_t k, net::Packet* p) {
    if (auto it = m_.find(k); it != m_.end()) it->second.parked = p;
  }
  net::Packet* take(std::uint64_t k) {
    auto it = m_.find(k);
    if (it == m_.end()) return nullptr;
    return std::exchange(it->second.parked, nullptr);
  }
  std::size_t sweep(sim::TimeNs now, sim::TimeNs max_age) {
    return std::erase_if(m_, [&](const auto& kv) {
      return now - kv.second.created_ns > max_age;
    });
  }
  std::size_t release_flow(std::uint32_t flow, std::uint64_t seq_end) {
    return std::erase_if(m_, [&](const auto& kv) {
      return static_cast<std::uint32_t>(kv.first >> 32) == flow &&
             (kv.first & 0xffffffffu) < seq_end;
    });
  }
  std::size_t pending() const { return m_.size(); }
  std::uint64_t dup_drops = 0, late_drops = 0;

 private:
  struct E {
    std::uint8_t expected, seen;
    sim::TimeNs created_ns;
    net::Packet* parked;
  };
  std::unordered_map<std::uint64_t, E> m_;
};

TEST(DedupDifferential, FlatTableMatchesMapModel) {
  // 100k random operations per seed over every Deduplicator call, on
  // full 32-bit flow ids (0 and 0xffffffff included) and enough keys that
  // the table doubles many times past its initial size.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    sim::Rng rng(seed);
    std::vector<std::uint32_t> flows = {0, 0xffffffffu, 0x01000005,
                                        0x02000005};
    while (flows.size() < 48)
      flows.push_back(static_cast<std::uint32_t>(rng.next_u64()));
    Deduplicator d;
    MapDedup ref;
    sim::TimeNs now = 0;
    std::size_t peak = 0;
    std::uint64_t takes = 0, released = 0, swept = 0;
    // Most operations name a recently registered key, so they hit live
    // entries; the rest draw any key, mostly unknown ones.
    std::vector<std::uint64_t> recent;
    const auto pick_key = [&] {
      if (!recent.empty() && rng.bernoulli(0.7))
        return recent[rng.uniform_u64(recent.size())];
      return Deduplicator::key(flows[rng.uniform_u64(flows.size())],
                               rng.uniform_u64(512));
    };
    for (int op = 0; op < 100'000; ++op) {
      now += static_cast<sim::TimeNs>(rng.uniform_u64(20));
      const std::uint64_t k = pick_key();
      const std::uint64_t r = rng.uniform_u64(100);
      if (r < 40) {
        if (recent.size() < 4096)
          recent.push_back(k);
        else
          recent[rng.uniform_u64(recent.size())] = k;
        const auto copies = static_cast<std::uint8_t>(rng.uniform_u64(4));
        d.expect(k, copies, now);
        ref.expect(k, copies, now);
      } else if (r < 62) {
        ASSERT_EQ(d.accept(k), ref.accept(k)) << op;
      } else if (r < 72) {
        d.cancel_one(k);
        ref.cancel_one(k);
      } else if (r < 77) {
        d.add_expected(k);
        ref.add_expected(k);
      } else if (r < 82) {
        ASSERT_EQ(d.completed(k), ref.completed(k)) << op;
      } else if (r < 89) {
        auto* p = reinterpret_cast<net::Packet*>(
            static_cast<std::uintptr_t>(op + 1) * 64);
        d.park(k, p);
        ref.park(k, p);
      } else if (r < 96) {
        net::Packet* p = d.take(k);
        ASSERT_EQ(p, ref.take(k)) << op;
        takes += p != nullptr;
      } else if (r < 99) {
        const auto flow = static_cast<std::uint32_t>(k >> 32);
        const std::uint64_t end = rng.uniform_u64(600);
        const std::size_t n = d.release_flow(flow, end);
        ASSERT_EQ(n, ref.release_flow(flow, end)) << op;
        released += n;
      } else {
        const auto age = static_cast<sim::TimeNs>(rng.uniform_u64(200'000));
        const std::size_t n = d.sweep(now, age);
        ASSERT_EQ(n, ref.sweep(now, age)) << op;
        swept += n;
      }
      ASSERT_EQ(d.pending(), ref.pending()) << op;
      peak = std::max(peak, d.pending());
    }
    EXPECT_EQ(d.dup_drops(), ref.dup_drops);
    EXPECT_EQ(d.late_drops(), ref.late_drops);
    EXPECT_EQ(d.swept(), swept);
    // The mix really exercised growth (the 64 initial slots double at
    // least four times) and every retirement path.
    EXPECT_GT(peak, 512u);
    EXPECT_GT(d.dup_drops(), 0u);
    EXPECT_GT(d.late_drops(), 0u);
    EXPECT_GT(takes, 0u);
    EXPECT_GT(released, 0u);
    EXPECT_GT(swept, 0u);
  }
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

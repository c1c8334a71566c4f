// Seeded copy stream for the core::Merge differential tests: (flow, seq)
// packets sent as 1–3 copies that arrive after a random delay, with hedges
// (one more copy, added late), cancelled copies (holes when every copy of
// a seq is cancelled) and wire duplicates. The schedule is drawn once,
// then replayed through a Merge either one receive() per copy or one
// receive() per burst (a run of arrivals between dispatch-side calls, with
// null slots mixed in).
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/merge.hpp"
#include "net/packet_pool.hpp"
#include "sim/rng.hpp"

namespace mdp::core::test {

struct MergeStreamConfig {
  std::uint64_t seed = 1;
  std::uint32_t flows = 8;
  std::uint64_t packets_per_flow = 200;
  std::uint64_t max_delay_ticks = 8;  ///< per-copy arrival spread
  double hedge_p = 0.1, cancel_p = 0.05, dup_p = 0.05;
  /// Call end_flow from inside the emit callback when a flow's last seq
  /// egresses (the RpcWorkload pattern).
  bool end_flows = false;
};

struct MergeRun {
  std::vector<bool> won;  ///< per arriving copy, in arrival order
  std::vector<std::pair<std::uint64_t, sim::TimeNs>> egress;  ///< tag, time
  struct Stats {
    std::uint64_t dup_drops, late_drops, swept, pending, in_order,
        out_of_order, timeout_releases, late_after_skip, flushed, buffered,
        tracked_flows, dwell_count, dwell_sum, dwell_max, dwell_p99;
    bool operator==(const Stats&) const = default;
  } stats;
  std::uint64_t pool_in_use;
};

inline MergeRun run_merge_stream(const MergeStreamConfig& c, bool bursts) {
  constexpr sim::TimeNs kTick = 1'000;
  // kExpect1..3: (flow, seq) leaves as that many copies.
  enum class Op : std::uint8_t {
    kExpect1, kExpect2, kExpect3, kAddCopy, kCancel, kArrive
  };
  struct Action {
    Op op;
    std::uint32_t flow;
    std::uint64_t seq;
  };

  // Draw the whole schedule first: both replays see the same stream.
  sim::Rng rng(c.seed);
  std::map<std::uint64_t, std::vector<Action>> at;  // tick -> actions
  std::vector<std::uint64_t> next_seq(c.flows, 0);
  const auto later = [&](std::uint64_t t) {
    return t + rng.uniform_u64(c.max_delay_ticks + 1);
  };
  for (std::uint64_t t = 0; t < c.flows * c.packets_per_flow; ++t) {
    auto flow = static_cast<std::uint32_t>(rng.uniform_u64(c.flows));
    while (next_seq[flow] == c.packets_per_flow) flow = (flow + 1) % c.flows;
    const std::uint64_t seq = next_seq[flow]++;
    const std::uint64_t copies = 1 + rng.uniform_u64(3);
    at[t].push_back({static_cast<Op>(copies - 1), flow, seq});
    for (std::uint64_t k = 0; k < copies; ++k) {
      const std::uint64_t d = later(t);
      const bool cancel = rng.bernoulli(c.cancel_p);
      at[d].push_back({cancel ? Op::kCancel : Op::kArrive, flow, seq});
      if (!cancel && rng.bernoulli(c.dup_p))
        at[d + rng.uniform_u64(3)].push_back({Op::kArrive, flow, seq});
    }
    if (rng.bernoulli(c.hedge_p)) {
      const std::uint64_t h = later(t + 1);
      at[h].push_back({Op::kAddCopy, flow, seq});
      at[later(h)].push_back({Op::kArrive, flow, seq});
    }
  }

  MergeRun out;
  sim::EventQueue eq;
  net::PacketPool pool(4096, 64, /*allow_growth=*/true);
  {
    Merge* mp = nullptr;
    Merge merge(eq, ReorderConfig{true, 20 * kTick}, [&](net::PacketPtr p) {
      const auto& a = p->anno();
      out.egress.emplace_back((std::uint64_t{a.flow_id} << 32) | a.seq,
                              eq.now());
      if (c.end_flows && a.seq + 1 == c.packets_per_flow)
        mp->end_flow(a.flow_id, c.packets_per_flow);
    });
    mp = &merge;

    std::vector<net::PacketPtr> burst;
    const auto drain = [&] {
      std::vector<bool> was_null;
      for (const auto& p : burst) was_null.push_back(!p);
      merge.receive({burst.data(), burst.size()});
      for (std::size_t i = 0; i < burst.size(); ++i)
        if (!was_null[i]) out.won.push_back(!burst[i]);
      burst.clear();  // the losers recycle here
    };
    for (const auto& [t, actions] : at) {
      eq.run_until(static_cast<sim::TimeNs>(t * kTick));
      for (const Action& a : actions) {
        if (a.op == Op::kArrive) {
          net::PacketPtr p = pool.alloc();
          p->anno().flow_id = a.flow;
          p->anno().seq = a.seq;
          if (!bursts) {
            out.won.push_back(!merge.receive(std::move(p)));
          } else {
            if (burst.size() % 3 == 1) burst.emplace_back();  // null slot
            burst.push_back(std::move(p));
          }
          continue;
        }
        drain();  // a dispatch-side call ends the burst
        if (a.op == Op::kAddCopy)
          merge.add_copy(a.flow, a.seq);
        else if (a.op == Op::kCancel)
          merge.cancel_copy(a.flow, a.seq);
        else
          merge.expect(a.flow, a.seq, static_cast<std::uint8_t>(a.op) + 1);
      }
      drain();
      if (t % 64 == 63) merge.sweep(50 * kTick);
    }
    eq.run();
    merge.flush_all();

    const Deduplicator& d = merge.dedup();
    const ReorderBuffer& r = merge.reorder();
    out.stats = {d.dup_drops(),        d.late_drops(),
                 d.swept(),            d.pending(),
                 r.in_order(),         r.out_of_order(),
                 r.timeout_releases(), r.late_after_skip(),
                 r.flushed(),          r.buffered(),
                 r.tracked_flows(),    r.dwell().count(),
                 r.dwell().sum(),      r.dwell().max(),
                 r.dwell().p99()};
  }
  out.pool_in_use = pool.in_use();
  return out;
}

}  // namespace mdp::core::test

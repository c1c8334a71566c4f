// Tenancy tier tests (docs/TENANCY.md): the classifier, the bounded-memory
// FlowTable (second-chance eviction, per-tenant caps, pinning, the 1M-flow
// memory bound, a differential run against the frozen slot-array table),
// the ConnStorm workload's determinism contract, and the
// ctrl tenant stage — TenantStateMachine hysteresis edges, TenantAdmission
// gating/budgets/harvest, per-tenant SLO classes through SloMonitor slot
// targets, and the Controller integration (decision log, report schema,
// actuation).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "ctrl/controller.hpp"
#include "ctrl/tenant.hpp"
#include "flow_table_reference.hpp"
#include "net/tenant.hpp"
#include "nf/flow_table.hpp"
#include "sim/rng.hpp"
#include "workload/conn_storm.hpp"

namespace mdp {
namespace {

using ctrl::TenantState;

net::FlowKey flow_n(std::uint32_t n) {
  return net::FlowKey{0x0b000000 + n, 0x0a006401,
                      static_cast<std::uint16_t>(1000 + n % 60000), 80, 6};
}

// ---------------------------------------------------------------------------
// TenantClassifier

TEST(TenantClassifier, LongestPrefixWinsAndDefaultApplies) {
  net::TenantClassifier cls;
  cls.add_prefix(0x0a000000, 8, 1);   // 10.0.0.0/8      -> tenant 1
  cls.add_prefix(0x0a100000, 12, 2);  // 10.16.0.0/12    -> tenant 2
  cls.add_prefix(0x0a100100, 24, 3);  // 10.16.1.0/24    -> tenant 3

  EXPECT_EQ(cls.classify({0x0a200001, 0, 0, 0, 0}), 1);  // 10.32.x: /8
  EXPECT_EQ(cls.classify({0x0a1f0001, 0, 0, 0, 0}), 2);  // 10.31.x: /12
  EXPECT_EQ(cls.classify({0x0a100105, 0, 0, 0, 0}), 3);  // 10.16.1.5: /24
  // No rule matches -> the implicit default tenant.
  EXPECT_EQ(cls.classify({0x0b000001, 0, 0, 0, 0}), net::kDefaultTenant);
  EXPECT_EQ(cls.num_rules(), 3u);
}

TEST(TenantClassifier, EmptyClassifierMapsEverythingToDefault) {
  net::TenantClassifier cls;
  EXPECT_TRUE(cls.empty());
  EXPECT_EQ(cls.classify({0x0a000001, 0, 0, 0, 0}), net::kDefaultTenant);
}

// ---------------------------------------------------------------------------
// FlowTable: bounded memory, second-chance eviction, caps, pinning.

TEST(FlowTable, CapacityBoundsSizeUnderChurn) {
  nf::FlowTable<std::uint64_t> t(64);
  for (std::uint32_t i = 0; i < 1000; ++i)
    ASSERT_NE(t.insert(flow_n(i), 0, i), nullptr);
  EXPECT_EQ(t.size(), 64u);
  EXPECT_EQ(t.capacity(), 64u);
  EXPECT_EQ(t.evictions(), 1000u - 64u);
}

TEST(FlowTable, SecondChanceKeepsTheLookedUpWorkingSet) {
  // Hot flows earn reference bits via find(); a storm of one-shot inserts
  // (which earn none) must recycle itself around them — scan resistance.
  nf::FlowTable<std::uint64_t> t(32);
  for (std::uint32_t i = 0; i < 8; ++i) t.insert(flow_n(i), 0, i);
  for (std::uint32_t round = 0; round < 200; ++round) {
    for (std::uint32_t i = 0; i < 8; ++i)
      ASSERT_NE(t.find(flow_n(i)), nullptr)
          << "hot flow " << i << " evicted in round " << round;
    t.insert(flow_n(1000 + round), 0, round);  // cold storm entry
  }
  EXPECT_EQ(t.size(), 32u);
}

TEST(FlowTable, TenantAtCapEvictsOnlyItsOwnEntries) {
  nf::FlowTable<std::uint64_t> t(64);
  t.set_tenant_cap(0, 4);
  for (std::uint32_t i = 0; i < 4; ++i)
    ASSERT_NE(t.insert(flow_n(i), 0, i), nullptr);
  for (std::uint32_t i = 100; i < 104; ++i)
    ASSERT_NE(t.insert(flow_n(i), 1, i), nullptr);

  // Tenant 0's 5th insert displaces one of tenant 0's own entries.
  std::vector<std::uint16_t> evicted_tenants;
  t.set_evict_callback([&](const net::FlowKey&, const std::uint64_t&,
                           std::uint16_t tenant) {
    evicted_tenants.push_back(tenant);
  });
  for (std::uint32_t i = 10; i < 30; ++i)
    ASSERT_NE(t.insert(flow_n(i), 0, i), nullptr);
  EXPECT_EQ(t.tenant_occupancy(0), 4u);
  EXPECT_EQ(t.tenant_occupancy(1), 4u);  // tenant 1 untouched
  ASSERT_EQ(evicted_tenants.size(), 20u);
  for (std::uint16_t e : evicted_tenants) EXPECT_EQ(e, 0);
}

TEST(FlowTable, PinnedEntriesDeferEvictionUntilUnpin) {
  nf::FlowTable<std::uint64_t> t(2);
  ASSERT_NE(t.insert(flow_n(1), 0, 1), nullptr);
  ASSERT_NE(t.insert(flow_n(2), 0, 2), nullptr);
  ASSERT_TRUE(t.pin(flow_n(1)));
  ASSERT_TRUE(t.pin(flow_n(2)));

  // Everything pinned: the insert must fail rather than evict in-flight
  // state, and the deferrals are counted.
  EXPECT_EQ(t.insert(flow_n(3), 0, 3), nullptr);
  EXPECT_EQ(t.cap_rejections(), 1u);
  EXPECT_GT(t.pinned_deferrals(), 0u);
  EXPECT_NE(t.peek(flow_n(1)), nullptr);
  EXPECT_NE(t.peek(flow_n(2)), nullptr);

  ASSERT_TRUE(t.unpin(flow_n(2)));
  ASSERT_NE(t.insert(flow_n(3), 0, 3), nullptr);
  EXPECT_EQ(t.evictions(), 1u);
  EXPECT_NE(t.peek(flow_n(1)), nullptr);  // still pinned, still present
  EXPECT_EQ(t.peek(flow_n(2)), nullptr);  // the unpinned one made room
}

TEST(FlowTable, EraseIfExpiresWithoutCountingEvictions) {
  nf::FlowTable<std::uint64_t> t(64);
  for (std::uint32_t i = 0; i < 32; ++i) t.insert(flow_n(i), i % 2, i);
  const std::size_t n = t.erase_if(
      [](const net::FlowKey&, const std::uint64_t& v, std::uint16_t) {
        return v % 2 == 0;
      });
  EXPECT_EQ(n, 16u);
  EXPECT_EQ(t.size(), 16u);
  EXPECT_EQ(t.evictions(), 0u);
  for (std::uint32_t i = 0; i < 32; ++i)
    EXPECT_EQ(t.peek(flow_n(i)) != nullptr, i % 2 == 1);
  // Occupancy accounting survives the backward-shift erase storm.
  EXPECT_EQ(t.tenant_occupancy(0), 0u);
  EXPECT_EQ(t.tenant_occupancy(1), 16u);
}

TEST(FlowTable, ChurnPropertyMatchesReferenceModel) {
  // Property test for backward-shift deletion and erase_if under churn:
  // 10k randomized insert/erase/find ops per seed, with periodic erase_if
  // sweeps, checked against a std::unordered_map reference model.
  // Backward-shift compaction must never lose or duplicate an entry, and
  // per-tenant occupancy must stay exact through every erase storm.
  constexpr std::size_t kCapacity = 512;
  constexpr std::uint32_t kUniverse = 700;  // > capacity: real probe chains
  constexpr int kTrials = 10'000;
  constexpr std::uint16_t kTenants = 4;
  const auto tenant_of = [](std::uint32_t n) {
    return static_cast<std::uint16_t>(n % kTenants);
  };

  for (std::uint64_t seed : {1ull, 77ull, 4242ull}) {
    sim::Rng rng(seed);
    nf::FlowTable<std::uint64_t> t(kCapacity);
    std::unordered_map<std::uint32_t, std::uint64_t> model;

    for (int op = 0; op < kTrials; ++op) {
      const auto n = static_cast<std::uint32_t>(rng.uniform_u64(kUniverse));
      const std::uint64_t roll = rng.uniform_u64(100);
      if (roll < 45) {  // insert-or-update
        // Stay below capacity so the clock hand never fires: the model
        // tracks explicit ops only (evictions() == 0 asserted below).
        if (model.size() >= kCapacity && model.count(n) == 0) continue;
        const std::uint64_t v = rng.uniform_u64(1u << 30);
        ASSERT_NE(t.insert(flow_n(n), tenant_of(n), v), nullptr)
            << "seed " << seed << " op " << op;
        model[n] = v;
      } else if (roll < 70) {  // erase
        EXPECT_EQ(t.erase(flow_n(n)), model.erase(n) == 1)
            << "seed " << seed << " op " << op;
      } else if (roll < 95) {  // lookup
        const auto it = model.find(n);
        const std::uint64_t* got = t.find(flow_n(n));
        ASSERT_EQ(got != nullptr, it != model.end())
            << "seed " << seed << " op " << op;
        if (got != nullptr) EXPECT_EQ(*got, it->second);
      } else {  // erase_if sweep: idle-expiry of a random value residue
        const std::uint64_t r = rng.uniform_u64(7);
        const std::size_t erased = t.erase_if(
            [&](const net::FlowKey&, const std::uint64_t& v, std::uint16_t) {
              return v % 7 == r;
            });
        std::size_t expected = 0;
        for (auto it = model.begin(); it != model.end();) {
          if (it->second % 7 == r) {
            it = model.erase(it);
            ++expected;
          } else {
            ++it;
          }
        }
        EXPECT_EQ(erased, expected) << "seed " << seed << " op " << op;
      }

      if (op % 1000 == 999) {
        ASSERT_EQ(t.size(), model.size()) << "seed " << seed << " op " << op;
        std::array<std::size_t, kTenants> occ{};
        for (const auto& [key, value] : model) ++occ[tenant_of(key)];
        for (std::uint16_t ten = 0; ten < kTenants; ++ten)
          ASSERT_EQ(t.tenant_occupancy(ten), occ[ten])
              << "seed " << seed << " op " << op << " tenant " << ten;
      }
    }

    // Full cross-check: every table entry appears exactly once and matches
    // the model; every universe key answers presence correctly.
    std::size_t visited = 0;
    std::set<std::uint32_t> seen;
    t.for_each([&](const net::FlowKey& k, const std::uint64_t& v,
                   std::uint16_t tenant) {
      ++visited;
      const std::uint32_t n = k.src_ip - 0x0b000000;  // flow_n inverse
      EXPECT_TRUE(seen.insert(n).second) << "duplicated entry " << n;
      const auto it = model.find(n);
      ASSERT_NE(it, model.end()) << "ghost entry " << n;
      EXPECT_EQ(v, it->second);
      EXPECT_EQ(tenant, tenant_of(n));
    });
    EXPECT_EQ(visited, model.size()) << "seed " << seed;
    for (std::uint32_t n = 0; n < kUniverse; ++n)
      ASSERT_EQ(t.peek(flow_n(n)) != nullptr, model.count(n) == 1)
          << "seed " << seed << " flow " << n;
    EXPECT_EQ(t.evictions(), 0u);
    EXPECT_EQ(t.cap_rejections(), 0u);
  }
}

// FlowTable against the frozen slot-array table
// (tests/flow_table_reference.hpp). One seeded stream of every public call
// drives both; every answer, the evict-callback log, the for_each and
// erase_if visit orders and every counter must match. Small capacities
// make probe chains wrap around the slot array; 100k ops per run fire the
// clock hand through caps, pins and capacity pressure.

using Visit = std::tuple<std::uint32_t, std::uint64_t, std::uint16_t>;

Visit visit_of(const net::FlowKey& k, std::uint64_t v, std::uint16_t tenant) {
  return {k.src_ip - 0x0b000000, v, tenant};  // flow_n inverse
}

template <typename Table>
std::vector<Visit> visit_order(const Table& t) {
  std::vector<Visit> out;
  t.for_each([&](const net::FlowKey& k, const std::uint64_t& v,
                 std::uint16_t tenant) {
    out.push_back(visit_of(k, v, tenant));
  });
  return out;
}

template <typename Table>
std::vector<std::uint64_t> counters_of(const Table& t,
                                       std::uint16_t tenants) {
  std::vector<std::uint64_t> c = {t.size(), t.full(), t.evictions(),
                                  t.cap_rejections(), t.pinned_deferrals()};
  for (std::uint16_t ten = 0; ten < tenants; ++ten) {
    c.push_back(t.tenant_occupancy(ten));
    c.push_back(t.tenant_cap(ten));
  }
  return c;
}

void run_flow_table_differential(std::size_t capacity, std::uint64_t seed,
                                  std::uint64_t* rejections) {
  const std::string where =
      "capacity " + std::to_string(capacity) + " seed " + std::to_string(seed);
  constexpr int kOps = 100'000;
  constexpr std::uint16_t kTenants = 4;
  const auto universe = static_cast<std::uint32_t>(capacity * 2 + 5);
  sim::Rng rng(seed);
  nf::FlowTable<std::uint64_t> t(capacity);
  nf::reference::SlotFlowTable<std::uint64_t> ref(capacity);
  std::vector<Visit> t_evicted, ref_evicted;
  t.set_evict_callback([&](const net::FlowKey& k, const std::uint64_t& v,
                           std::uint16_t tenant) {
    t_evicted.push_back(visit_of(k, v, tenant));
  });
  ref.set_evict_callback([&](const net::FlowKey& k, const std::uint64_t& v,
                             std::uint16_t tenant) {
    ref_evicted.push_back(visit_of(k, v, tenant));
  });
  const auto set_cap = [&](std::uint16_t tenant, std::size_t cap) {
    t.set_tenant_cap(tenant, cap);
    ref.set_tenant_cap(tenant, cap);
  };
  set_cap(1, std::max<std::size_t>(1, capacity / 4));
  set_cap(2, std::max<std::size_t>(1, capacity / 2));

  for (int op = 0; op < kOps; ++op) {
    const net::FlowKey k =
        flow_n(static_cast<std::uint32_t>(rng.uniform_u64(universe)));
    const auto tenant = static_cast<std::uint16_t>(rng.uniform_u64(kTenants));
    const std::uint64_t roll = rng.uniform_u64(10'000);
    bool same = true;
    if (roll < 5'000) {
      const std::uint64_t v = rng.next_u64();
      const std::uint64_t* a = t.insert(k, tenant, v);
      const std::uint64_t* b = ref.insert(k, tenant, v);
      same = (a == nullptr) == (b == nullptr) &&
             (a == nullptr || (*a == v && *b == v));
    } else if (roll < 6'500) {
      const std::uint64_t* a = t.find(k);
      const std::uint64_t* b = ref.find(k);
      same = (a == nullptr) == (b == nullptr) && (a == nullptr || *a == *b);
    } else if (roll < 7'300) {
      const std::uint64_t* a = t.peek(k);
      const std::uint64_t* b = ref.peek(k);
      same = (a == nullptr) == (b == nullptr) && (a == nullptr || *a == *b);
    } else if (roll < 7'900) {
      same = t.erase(k) == ref.erase(k);
    } else if (roll < 8'700) {
      same = t.pin(k) == ref.pin(k);
    } else if (roll < 9'000) {
      same = t.unpin(k) == ref.unpin(k);
    } else if (roll < 9'300) {
      same = t.evict_one() == ref.evict_one();
    } else if (roll < 9'600) {
      same = t.evict_one(tenant) == ref.evict_one(tenant);
    } else if (roll < 9'620) {  // idle expiry; the predicate sees slot order
      const std::uint64_t r = rng.uniform_u64(32);
      std::vector<Visit> t_seen, ref_seen;
      const std::size_t a = t.erase_if([&](const net::FlowKey& key,
                                           const std::uint64_t& v,
                                           std::uint16_t ten) {
        t_seen.push_back(visit_of(key, v, ten));
        return v % 32 == r;
      });
      const std::size_t b = ref.erase_if([&](const net::FlowKey& key,
                                             const std::uint64_t& v,
                                             std::uint16_t ten) {
        ref_seen.push_back(visit_of(key, v, ten));
        return v % 32 == r;
      });
      same = a == b && t_seen == ref_seen;
    } else if (roll < 9'720) {
      same = visit_order(t) == visit_order(ref);
    } else if (roll < 9'998) {
      // Small caps make a tenant of only pinned entries (a rejection)
      // likely at every capacity; large ones leave room to compete.
      set_cap(tenant, rng.uniform_u64(2) ? rng.uniform_u64(8)
                                         : rng.uniform_u64(capacity / 2 + 1));
    } else {
      t.clear();
      ref.clear();
    }
    ASSERT_TRUE(same) << where << " op " << op << " roll " << roll;
    ASSERT_EQ(counters_of(t, kTenants), counters_of(ref, kTenants))
        << where << " op " << op;
    ASSERT_EQ(t_evicted.size(), ref_evicted.size()) << where << " op " << op;
  }
  EXPECT_EQ(t_evicted, ref_evicted) << where;
  EXPECT_EQ(visit_order(t), visit_order(ref)) << where;
  // The stream reached every path it is meant to compare. Pinned-only
  // rejections are rare at capacity 512 and counted over the sweep.
  EXPECT_GT(t.evictions(), 1'000u) << where;
  EXPECT_GT(t.pinned_deferrals(), 0u) << where;
  *rejections += t.cap_rejections();
}

TEST(FlowTable, DifferentialAgainstSlotArrayReference) {
  std::uint64_t rejections = 0;
  for (std::size_t capacity : {2, 64, 512})
    for (std::uint64_t seed : {5ull, 1234ull, 990001ull}) {
      run_flow_table_differential(capacity, seed, &rejections);
      if (HasFatalFailure()) return;
    }
  EXPECT_GT(rejections, 0u);
}

TEST(FlowTable, MillionFlowsBoundedMemory) {
  // The tenancy tier's sizing claim: 1M+ concurrent flows in one table,
  // memory fixed at construction — churn past capacity recycles in place.
  constexpr std::size_t kCap = 1u << 20;  // 1,048,576
  nf::FlowTable<std::uint64_t> t(kCap);
  const std::size_t slots_before = t.capacity();
  constexpr std::uint32_t kInserts = kCap + (kCap >> 2);  // 1.25M
  const std::uint64_t* first = t.insert(flow_n(0), 0, 0);
  for (std::uint32_t i = 1; i < kCap; ++i)
    ASSERT_NE(t.insert(flow_n(i), i & 3, i), nullptr);
  // Filling to capacity erases nothing, so no value may have moved: the
  // entry storage was reserved once and never reallocates.
  EXPECT_EQ(t.peek(flow_n(0)), first);
  for (std::uint32_t i = kCap; i < kInserts; ++i)
    ASSERT_NE(t.insert(flow_n(i), i & 3, i), nullptr);
  EXPECT_EQ(t.size(), kCap);
  EXPECT_EQ(t.capacity(), slots_before);  // no rehash, no growth
  EXPECT_EQ(t.evictions(), kInserts - kCap);
  // The table still answers: recent inserts are present.
  EXPECT_NE(t.peek(flow_n(kInserts - 1)), nullptr);
  std::size_t occ = 0;
  for (std::uint16_t ten = 0; ten < 4; ++ten) occ += t.tenant_occupancy(ten);
  EXPECT_EQ(occ, kCap);
}

// ---------------------------------------------------------------------------
// ConnStorm: determinism and ramp shape.

workload::ConnStormTenant storm_tenant(std::uint16_t id) {
  workload::ConnStormTenant t;
  t.tenant = id;
  t.base_arrivals_per_tick = 1.5;
  t.conn_lifetime_ticks = 8;
  t.storm_from = 20;
  t.storm_to = 40;
  t.storm_peak_arrivals_per_tick = 12.0;
  return t;
}

TEST(ConnStorm, SameSeedSameEventSequence) {
  workload::ConnStorm a({storm_tenant(0), storm_tenant(1)}, 42);
  workload::ConnStorm b({storm_tenant(0), storm_tenant(1)}, 42);
  for (int tick = 0; tick < 100; ++tick) {
    const auto ea = a.tick();
    const auto eb = b.tick();
    ASSERT_EQ(ea.size(), eb.size()) << "tick " << tick;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].type, eb[i].type);
      EXPECT_EQ(ea[i].tenant, eb[i].tenant);
      EXPECT_EQ(ea[i].conn_id, eb[i].conn_id);
    }
  }
  EXPECT_EQ(a.total_arrivals(), b.total_arrivals());
  EXPECT_GT(a.total_arrivals(), 0u);
}

TEST(ConnStorm, TriangleRampPeaksAtMidpointAndFlowsDrain) {
  workload::ConnStorm s({storm_tenant(0)}, 7);
  EXPECT_DOUBLE_EQ(s.scheduled_rate(0, 10), 1.5);   // before the storm
  EXPECT_DOUBLE_EQ(s.scheduled_rate(0, 30), 12.0);  // midpoint = peak
  EXPECT_DOUBLE_EQ(s.scheduled_rate(0, 50), 1.5);   // after
  EXPECT_GT(s.scheduled_rate(0, 25), s.scheduled_rate(0, 21));

  // Run well past storm end + lifetime: every arrival must tear down.
  std::uint64_t arrivals = 0, teardowns = 0;
  for (int tick = 0; tick < 60; ++tick) {
    for (const auto& ev : s.tick()) {
      if (ev.type == workload::ConnEvent::Type::kArrival) ++arrivals;
      else ++teardowns;
    }
  }
  EXPECT_GT(arrivals, 60u);  // the storm contributed well above base rate
  // Flows older than conn_lifetime_ticks are gone; only the newest remain.
  EXPECT_LE(s.live_flows(), 8 * 3u);
  EXPECT_EQ(arrivals - teardowns, s.live_flows());
}

TEST(ConnStorm, ConnIdsAreDenseAndUnique) {
  workload::ConnStorm s({storm_tenant(0), storm_tenant(1)}, 3);
  std::set<std::uint64_t> ids;
  std::uint64_t max_id = 0, arrivals = 0;
  for (int tick = 0; tick < 50; ++tick) {
    for (const auto& ev : s.tick()) {
      if (ev.type != workload::ConnEvent::Type::kArrival) continue;
      EXPECT_TRUE(ids.insert(ev.conn_id).second) << "duplicate conn id";
      max_id = std::max(max_id, ev.conn_id);
      ++arrivals;
    }
  }
  ASSERT_GT(arrivals, 0u);
  EXPECT_EQ(max_id, arrivals - 1);  // dense: 0..N-1 across both tenants
}

// ---------------------------------------------------------------------------
// TenantStateMachine: hysteresis edges.

TEST(TenantStateMachine, FullLifecycleThroughShedAndBack) {
  ctrl::TenantStateMachine fsm(/*throttle_after=*/2, /*shed_after=*/2,
                               /*cooldown=*/2, /*probation=*/2);
  EXPECT_FALSE(fsm.on_window(true));
  EXPECT_EQ(fsm.state(), TenantState::kAdmitted);
  EXPECT_TRUE(fsm.on_window(true));  // 2nd storming window -> throttled
  EXPECT_EQ(fsm.state(), TenantState::kThrottled);
  EXPECT_FALSE(fsm.on_window(true));
  EXPECT_TRUE(fsm.on_window(true));  // 2 more -> shed
  EXPECT_EQ(fsm.state(), TenantState::kShed);
  EXPECT_FALSE(fsm.on_window(false));
  EXPECT_TRUE(fsm.on_window(false));  // 2 calm -> probation
  EXPECT_EQ(fsm.state(), TenantState::kProbation);
  EXPECT_FALSE(fsm.on_window(false));
  EXPECT_TRUE(fsm.on_window(false));  // 2 calm -> reinstated
  EXPECT_EQ(fsm.state(), TenantState::kAdmitted);
  EXPECT_EQ(fsm.throttles(), 1u);
  EXPECT_EQ(fsm.sheds(), 1u);
  EXPECT_EQ(fsm.reinstates(), 1u);
}

TEST(TenantStateMachine, ProbationReshedsOnOneStormingWindow) {
  ctrl::TenantStateMachine fsm(1, 1, 1, 4);
  fsm.on_window(true);   // -> throttled
  fsm.on_window(true);   // -> shed
  fsm.on_window(false);  // -> probation
  ASSERT_EQ(fsm.state(), TenantState::kProbation);
  // No hysteresis on the way back down: probation is one strike.
  EXPECT_TRUE(fsm.on_window(true));
  EXPECT_EQ(fsm.state(), TenantState::kShed);
  EXPECT_EQ(fsm.sheds(), 2u);
}

TEST(TenantStateMachine, ThrottledRecoversWithoutShedding) {
  ctrl::TenantStateMachine fsm(1, 4, 2, 2);
  fsm.on_window(true);
  ASSERT_EQ(fsm.state(), TenantState::kThrottled);
  fsm.on_window(false);
  EXPECT_TRUE(fsm.on_window(false));  // cooldown met -> admitted directly
  EXPECT_EQ(fsm.state(), TenantState::kAdmitted);
  EXPECT_EQ(fsm.sheds(), 0u);
  EXPECT_EQ(fsm.reinstates(), 1u);
}

// ---------------------------------------------------------------------------
// TenantAdmission: gating, budgets, harvest.

ctrl::TenantAdmissionConfig two_tenant_cfg() {
  ctrl::TenantAdmissionConfig cfg;
  ctrl::TenantSpec storm;
  storm.name = "storm";
  storm.arrival_budget_per_tick = 10;
  storm.hedge_budget_per_tick = 2;
  storm.throttle_keep_one_in = 4;
  ctrl::TenantSpec calm;
  calm.name = "calm";
  calm.arrival_budget_per_tick = 100;
  cfg.tenants = {storm, calm};
  cfg.throttle_after = 1;
  cfg.shed_after = 1;
  cfg.cooldown_windows = 2;
  cfg.probation_windows = 2;
  cfg.default_slo_target_ns = 10'000;
  return cfg;
}

TEST(TenantAdmission, AdmittedTenantPassesAndCountersHarvest) {
  ctrl::TenantAdmission ta(two_tenant_cfg());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ta.admit(0));
  ta.on_flow_arrival(0);
  auto r = ta.tick_tenant(0);
  EXPECT_EQ(r.arrivals, 5u);
  EXPECT_EQ(r.admitted, 5u);
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_EQ(r.flow_arrivals, 1u);
  EXPECT_FALSE(r.storming);  // 5 <= budget 10
  EXPECT_FALSE(r.changed);
  // Exchange-to-zero: the next window starts clean.
  r = ta.tick_tenant(0);
  EXPECT_EQ(r.arrivals, 0u);
}

TEST(TenantAdmission, ThrottleAdmitsOneInN) {
  ctrl::TenantAdmission ta(two_tenant_cfg());
  for (int i = 0; i < 50; ++i) ta.admit(0);  // 50 > budget 10
  auto r = ta.tick_tenant(0);
  EXPECT_TRUE(r.storming);
  EXPECT_TRUE(r.changed);
  EXPECT_EQ(r.after, TenantState::kThrottled);
  EXPECT_STREQ(r.reason, "tenant_throttle");

  int admitted = 0;
  for (int i = 0; i < 40; ++i) admitted += ta.admit(0) ? 1 : 0;
  EXPECT_EQ(admitted, 10);  // exactly 1 in 4
  EXPECT_EQ(ta.dropped(0), 30u);
}

TEST(TenantAdmission, ShedDropsEverythingThenReinstates) {
  ctrl::TenantAdmission ta(two_tenant_cfg());
  for (int i = 0; i < 50; ++i) ta.admit(0);
  ta.tick_tenant(0);  // -> throttled
  for (int i = 0; i < 50; ++i) ta.admit(0);
  auto r = ta.tick_tenant(0);
  EXPECT_EQ(r.after, TenantState::kShed);
  EXPECT_STREQ(r.reason, "tenant_shed");
  EXPECT_EQ(ta.shed_count(), 1u);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(ta.admit(0));
  // Tenant 1 is untouched throughout — admission is per tenant.
  EXPECT_TRUE(ta.admit(1));

  // Calm windows: cooldown -> probation -> reinstated.
  ta.tick_tenant(0);
  r = ta.tick_tenant(0);
  EXPECT_EQ(r.after, TenantState::kProbation);
  EXPECT_STREQ(r.reason, "tenant_probation");
  EXPECT_TRUE(ta.admit(0));  // probation admits
  ta.tick_tenant(0);
  r = ta.tick_tenant(0);
  EXPECT_EQ(r.after, TenantState::kAdmitted);
  EXPECT_STREQ(r.reason, "tenant_reinstate");
  EXPECT_EQ(ta.sheds(), 1u);
  EXPECT_EQ(ta.reinstates(), 1u);
  EXPECT_GT(ta.total_dropped(), 0u);
}

TEST(TenantAdmission, HedgeTokensRefillPerWindow) {
  ctrl::TenantAdmission ta(two_tenant_cfg());
  EXPECT_TRUE(ta.try_consume_hedge_token(0));
  EXPECT_TRUE(ta.try_consume_hedge_token(0));
  EXPECT_FALSE(ta.try_consume_hedge_token(0));  // budget 2 spent
  ta.tick_tenant(0);                            // refill
  EXPECT_TRUE(ta.try_consume_hedge_token(0));
  // Tenant 1's budget is 0 = unlimited.
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(ta.try_consume_hedge_token(1));
}

TEST(TenantAdmission, UncontractedAndUnknownTenantsAlwaysPass) {
  ctrl::TenantAdmissionConfig cfg;
  cfg.tenants = {ctrl::TenantSpec{}};  // budget 0 = uncontracted
  ctrl::TenantAdmission ta(cfg);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(ta.admit(0));
  EXPECT_FALSE(ta.tick_tenant(0).storming);
  // Ids beyond the configured set pass (fail-open: classification bugs
  // must not become outages).
  EXPECT_TRUE(ta.admit(42));
  EXPECT_EQ(ta.state(42), TenantState::kAdmitted);
}

TEST(TenantAdmission, PerTenantSloClassesShareOneMonitor) {
  auto cfg = two_tenant_cfg();
  cfg.tenants[0].slo_target_ns = 5'000;  // stricter than the default
  ctrl::TenantAdmission ta(cfg);
  EXPECT_EQ(ta.monitor().slot_target_ns(0), 5'000u);
  EXPECT_EQ(ta.monitor().slot_target_ns(1), 10'000u);  // inherited default

  ta.observe(0, 7'000);  // violates tenant 0's 5k target
  ta.observe(1, 7'000);  // within tenant 1's 10k target
  auto r0 = ta.tick_tenant(0);
  auto r1 = ta.tick_tenant(1);
  EXPECT_EQ(r0.slo.samples, 1u);
  EXPECT_EQ(r0.slo.violations, 1u);
  EXPECT_EQ(r1.slo.samples, 1u);
  EXPECT_EQ(r1.slo.violations, 0u);
}

// ---------------------------------------------------------------------------
// Controller integration: the tenant stage inside tick().

struct TenantFakeActuator : ctrl::Actuator {
  std::size_t num_paths() const override { return 2; }
  void set_admission(std::size_t, core::PathAdmission) override {}
  void grant_probes(std::size_t, std::uint64_t) override {}
  std::uint64_t path_backlog(std::size_t) const override { return 0; }
  void flush_path(std::size_t) override {}
};

TEST(Controller, TenantStageLogsDecisionsAndReports) {
  ctrl::SloMonitor mon(2, 10'000);
  TenantFakeActuator act;
  ctrl::Config ccfg;
  ccfg.slo_target_ns = 10'000;
  ctrl::Controller ctl(ccfg, act, mon);
  ctrl::TenantAdmission ta(two_tenant_cfg());
  ctl.attach_tenants(&ta);

  // Tenant 0 breaks its arrival contract; tenant 1 stays in budget.
  for (int i = 0; i < 50; ++i) ta.admit(0);
  for (int i = 0; i < 5; ++i) ta.admit(1);
  ctl.tick(1'000);
  ASSERT_EQ(ctl.decisions().size(), 1u);
  const auto& d = ctl.decisions()[0];
  EXPECT_EQ(d.path, ctrl::Decision::kTenant);
  EXPECT_STREQ(d.reason, "tenant_throttle");
  EXPECT_EQ(d.tenant, 0);
  EXPECT_EQ(d.tenant_to, TenantState::kThrottled);
  EXPECT_EQ(d.arrivals, 50u);
  EXPECT_EQ(ctrl::decision_reason_code("tenant_throttle"), 11u);
  EXPECT_EQ(ctrl::decision_reason_code("tenant_shed"), 12u);
  EXPECT_EQ(ctrl::decision_reason_code("tenant_reinstate"), 14u);

  // Continued storm -> shed, then the report carries the tenant section.
  for (int i = 0; i < 50; ++i) ta.admit(0);
  ctl.tick(2'000);
  EXPECT_EQ(ta.state(0), TenantState::kShed);
  EXPECT_EQ(ctl.tenant_sheds(), 1u);
  const std::string report = ctl.report_json();
  EXPECT_NE(report.find("\"tenants\""), std::string::npos);
  EXPECT_NE(report.find("\"storm\""), std::string::npos);
  EXPECT_NE(report.find("\"calm\""), std::string::npos);
  EXPECT_NE(report.find("\"tenant_sheds\""), std::string::npos);
  EXPECT_NE(report.find("\"target\":\"tenant\""), std::string::npos);
}

}  // namespace
}  // namespace mdp

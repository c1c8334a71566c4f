// Simulation substrate tests: event queue ordering/determinism, RNG,
// distributions, the SimCore queueing model and the interference duty
// cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "net/packet_pool.hpp"
#include "sim/distributions.hpp"
#include "sim/event_queue.hpp"
#include "sim/interference.hpp"
#include "sim/rng.hpp"
#include "sim/sim_core.hpp"

// Global allocation counter: the event core's steady state must not
// allocate. Counts every operator new in this test binary.
namespace {
std::uint64_t g_news = 0;
}  // namespace

// Out of line, so the compiler does not pair an inlined malloc() or free()
// with the other operator and warn about a mismatch.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mdp::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(300, [&] { order.push_back(3); });
  eq.schedule_at(100, [&] { order.push_back(1); });
  eq.schedule_at(200, [&] { order.push_back(2); });
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eq.now(), 300u);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    eq.schedule_at(500, [&order, i] { order.push_back(i); });
  eq.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NestedSchedulingFromCallbacks) {
  EventQueue eq;
  std::vector<std::uint64_t> times;
  eq.schedule_at(10, [&] {
    times.push_back(eq.now());
    eq.schedule_in(5, [&] { times.push_back(eq.now()); });
  });
  eq.run();
  EXPECT_EQ(times, (std::vector<std::uint64_t>{10, 15}));
}

TEST(EventQueue, PastSchedulingClampsToNow) {
  EventQueue eq;
  eq.schedule_at(100, [&] {
    eq.schedule_at(50, [&] { EXPECT_EQ(eq.now(), 100u); });
  });
  eq.run();
}

TEST(EventQueue, RunUntilAdvancesClockEvenWhenIdle) {
  EventQueue eq;
  eq.run_until(12345);
  EXPECT_EQ(eq.now(), 12345u);
}

TEST(EventQueue, ClearDiscardsWithoutExecuting) {
  EventQueue eq;
  bool fired = false;
  // The closure owns a resource; clear() must destroy (not run) it.
  auto owned = std::make_unique<int>(1);
  eq.schedule_at(5, [&fired, o = std::move(owned)] { fired = true; });
  eq.clear();
  EXPECT_TRUE(eq.empty());
  eq.run();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, MoveOnlyCaptures) {
  EventQueue eq;
  auto p = std::make_unique<int>(7);
  int got = 0;
  eq.schedule_at(1, [p = std::move(p), &got] { got = *p; });
  eq.run();
  EXPECT_EQ(got, 7);
}

TEST(EventQueue, SlabGrowsWhileACallbackRuns) {
  EventQueue eq;
  int fired = 0;
  int token_seen = 0;
  // The running closure owns a resource and reads it after scheduling
  // enough events to grow the callback slab several times over: the
  // closure must still be where it was (ASan flags it otherwise).
  eq.schedule_at(1, [&, token = std::make_unique<int>(42)] {
    for (int i = 0; i < 2000; ++i)
      eq.schedule_in(static_cast<TimeNs>(1 + i % 7), [&fired] { ++fired; });
    token_seen = *token;
  });
  eq.run();
  EXPECT_EQ(token_seen, 42);
  EXPECT_EQ(fired, 2000);
  EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, TieOrderHoldsAcrossSlotReuse) {
  // Interleave schedules and steps so freed slots are reused in LIFO
  // order, with many equal times; firing order must be exactly (at, seq).
  EventQueue eq;
  Rng rng(2024);
  std::vector<std::pair<TimeNs, std::uint64_t>> fired;
  std::vector<std::pair<TimeNs, std::uint64_t>> scheduled;
  std::uint64_t seq = 0;
  auto add = [&](TimeNs at) {
    at = std::max(at, eq.now());
    scheduled.emplace_back(at, seq);
    eq.schedule_at(at, [&fired, at, s = seq] { fired.emplace_back(at, s); });
    ++seq;
  };
  for (int round = 0; round < 200; ++round) {
    const int adds = static_cast<int>(rng.uniform_u64(40));
    for (int i = 0; i < adds; ++i) add(eq.now() + rng.uniform_u64(4) * 10);
    const int steps = static_cast<int>(rng.uniform_u64(40));
    for (int i = 0; i < steps; ++i) eq.step();
  }
  eq.run();
  ASSERT_EQ(fired.size(), scheduled.size());
  // Every event is scheduled at or after now(), so the whole firing
  // trace must be sorted by (at, seq).
  std::vector<std::pair<TimeNs, std::uint64_t>> expected = scheduled;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(fired, expected);
}

TEST(EventQueue, LaneAndHeapTiesRunInScheduleOrder) {
  EventQueue eq;
  const EventQueue::Lane lane = eq.add_lane();
  std::vector<int> order;
  eq.schedule_at(lane, 100, [&] { order.push_back(0); });
  eq.schedule_at(100, [&] { order.push_back(1); });
  eq.schedule_at(lane, 100, [&] { order.push_back(2); });
  eq.schedule_at(lane, 50, [&] { order.push_back(3); });  // before the tail
  eq.schedule_at(lane, 200, [&] { order.push_back(4); });
  eq.schedule_at(150, [&] { order.push_back(5); });
  EXPECT_EQ(eq.size(), 6u);
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{3, 0, 1, 2, 5, 4}));
  EXPECT_EQ(eq.events_processed(), 6u);
  EXPECT_TRUE(eq.empty());
}

// One seeded program of schedules, callbacks that schedule more events,
// run_until boundaries and clear(), run either through three lanes (a
// fixed-delay lane of 400 ns, one of 1000 ns, one of 0 ns for same-ns ties)
// or through schedule_at alone. Lane schedules also get random and past
// deadlines, which are often earlier than the lane's tail. Returns what
// ran, when, and the queue's size and count at every boundary.
std::vector<std::uint64_t> run_lane_program(std::uint64_t seed,
                                            bool use_lanes) {
  constexpr TimeNs kLaneDelay[3] = {400, 1000, 0};
  EventQueue eq;
  Rng rng(seed);
  std::vector<EventQueue::Lane> lanes;
  if (use_lanes)
    for (int i = 0; i < 3; ++i) lanes.push_back(eq.add_lane());
  std::vector<std::uint64_t> trace;
  std::uint64_t next_id = 0;
  std::function<void(int)> schedule = [&](int depth) {
    const std::uint64_t id = next_id++;
    const std::size_t lane = rng.uniform_u64(4);  // 3: the heap
    const std::uint64_t r = rng.uniform_u64(10);
    TimeNs at = eq.now();  // r == 8: a same-ns tie
    if (lane < 3 && r < 6)
      at += kLaneDelay[lane];
    else if (r < 8)
      at += rng.uniform_u64(500);
    else if (r == 9)
      at -= std::min<TimeNs>(at, rng.uniform_u64(50));  // clamped to now
    auto cb = [&trace, &eq, &rng, &schedule, id, depth] {
      trace.push_back(id);
      trace.push_back(eq.now());
      if (depth < 3)
        for (std::uint64_t n = rng.uniform_u64(3); n > 0; --n)
          schedule(depth + 1);
    };
    if (use_lanes && lane < 3)
      eq.schedule_at(lanes[lane], at, std::move(cb));
    else
      eq.schedule_at(at, std::move(cb));
  };
  for (int round = 0; round < 2'000; ++round) {
    for (std::uint64_t n = rng.uniform_u64(8); n > 0; --n) schedule(0);
    eq.run_until(eq.now() + rng.uniform_u64(800));
    trace.push_back(eq.size());
    trace.push_back(eq.events_processed());
    trace.push_back(eq.now());
    if (rng.uniform_u64(64) == 0) {
      eq.clear();
      trace.push_back(eq.size());
    }
  }
  eq.run();
  trace.push_back(eq.events_processed());
  return trace;
}

TEST(EventQueue, LanesRunExactlyTheHeapOnlyOrder) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    const auto heap_only = run_lane_program(seed, false);
    const auto laned = run_lane_program(seed, true);
    EXPECT_GT(heap_only.size(), 50'000u);
    EXPECT_EQ(laned, heap_only);
  }
}

TEST(EventQueue, ClearReleasesCapturedPackets) {
  net::PacketPool pool(64, 256);
  {
    EventQueue eq;
    for (int i = 0; i < 40; ++i) {
      net::PacketPtr p = pool.alloc();
      ASSERT_TRUE(p);
      eq.schedule_at(static_cast<TimeNs>(100 + i),
                     [p = std::move(p)] { FAIL() << "cleared event ran"; });
    }
    EXPECT_EQ(pool.in_use(), 40u);
    eq.clear();
    EXPECT_EQ(pool.in_use(), 0u) << "clear() must destroy the closures";
    EXPECT_TRUE(eq.empty());
    // The queue is reusable after clear(), on recycled slots.
    bool ran = false;
    eq.schedule_at(5, [&ran, p = pool.alloc()] { ran = p != nullptr; });
    eq.run();
    EXPECT_TRUE(ran);
  }
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(EventQueue, SteadyStateScheduleStepDoesNotAllocate) {
  // Closures up to UniqueFunction's inline capacity: a packet handle plus
  // context, the shape of the plane's dispatch closure, and a plain POD
  // payload.
  EventQueue eq;
  net::PacketPool pool(512, 128);
  Rng rng(3);
  std::uint64_t fired = 0;
  struct Ctx {
    EventQueue* eq;
    Rng* rng;
    std::uint64_t* fired;
  };
  Ctx ctx{&eq, &rng, &fired};
  struct Self {
    static void arm(Ctx c, net::PacketPtr p) {
      const TimeNs at = c.eq->now() + 1 + c.rng->uniform_u64(4000);
      auto cb = [c, p = std::move(p), pad = std::uint64_t{0}]() mutable {
        (void)pad;
        ++*c.fired;
        arm(c, std::move(p));
      };
      static_assert(sizeof(cb) <= EventQueue::Callback::kInlineBytes);
      c.eq->schedule_at(at, std::move(cb));
    }
  };
  for (int i = 0; i < 300; ++i) Self::arm(ctx, pool.alloc());
  for (int i = 0; i < 20'000; ++i) eq.step();  // warm: slab and heap sized
  const std::uint64_t before = g_news;
  for (int i = 0; i < 100'000; ++i) eq.step();
  EXPECT_EQ(g_news - before, 0u) << "schedule/step allocated";
  EXPECT_EQ(fired, 120'000u);
  eq.clear();
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(UniqueFunction, LargeClosuresAreBoxedAndStillWork) {
  struct Big {
    std::uint64_t v[16];
  };
  Big big{};
  big.v[15] = 7;
  std::uint64_t got = 0;
  const std::uint64_t before = g_news;
  UniqueFunction<void()> f = [big, &got] { got = big.v[15]; };
  EXPECT_EQ(g_news - before, 1u) << "a closure above the inline capacity "
                                    "is boxed once";
  UniqueFunction<void()> g = std::move(f);
  EXPECT_FALSE(f);
  g();
  EXPECT_EQ(got, 7u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(Rng(123).next_u64(), c.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 10'000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    ASSERT_LT(rng.uniform_u64(17), 17u);
  }
}

// Distribution means converge to the configured value.
struct DistCase {
  const char* name;
  std::function<DistributionPtr()> make;
  double expected_mean;
  double tolerance;  // relative
};

class DistributionMean : public ::testing::TestWithParam<int> {};

TEST_P(DistributionMean, SampleMeanMatchesAnalyticMean) {
  static const DistCase cases[] = {
      {"constant", [] { return std::make_unique<Constant>(42.0); }, 42.0,
       0.001},
      {"uniform", [] { return std::make_unique<Uniform>(10, 30); }, 20.0,
       0.02},
      {"exponential", [] { return std::make_unique<Exponential>(1000.0); },
       1000.0, 0.03},
      {"lognormal", [] { return std::make_unique<LogNormal>(0.0, 0.5); },
       std::exp(0.125), 0.03},
      {"pareto",
       [] { return std::make_unique<BoundedPareto>(1.3, 1.0, 1000.0); },
       0.0 /* use dist->mean() */, 0.05},
  };
  const DistCase& c = cases[GetParam()];
  auto dist = c.make();
  double expected = c.expected_mean > 0 ? c.expected_mean : dist->mean();

  Rng rng(777);
  double sum = 0;
  constexpr int kN = 400'000;
  for (int i = 0; i < kN; ++i) sum += dist->sample(rng);
  double sample_mean = sum / kN;
  EXPECT_NEAR(sample_mean, expected, expected * c.tolerance)
      << c.name << ": analytic mean " << dist->mean();
}

INSTANTIATE_TEST_SUITE_P(All, DistributionMean, ::testing::Range(0, 5));

TEST(BoundedPareto, SamplesWithinBounds) {
  BoundedPareto p(1.1, 2.0, 500.0);
  Rng rng(1);
  for (int i = 0; i < 50'000; ++i) {
    double v = p.sample(rng);
    ASSERT_GE(v, 2.0 - 1e-9);
    ASSERT_LE(v, 500.0 + 1e-9);
  }
}

TEST(EmpiricalCdf, InterpolatesBetweenKnots) {
  EmpiricalCdf cdf({{0, 0.0}, {100, 0.5}, {1000, 1.0}});
  Rng rng(2);
  int below_100 = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i)
    if (cdf.sample(rng) <= 100.0) ++below_100;
  EXPECT_NEAR(below_100 / static_cast<double>(kN), 0.5, 0.02);
}

TEST(EmpiricalCdf, RejectsBadKnots) {
  EXPECT_THROW(EmpiricalCdf({{1, 0.5}}), std::invalid_argument);
  EXPECT_THROW(EmpiricalCdf({{1, 0.9}, {2, 0.1}}), std::invalid_argument);
}

TEST(SimCore, ServesFifoWithCorrectTimes) {
  EventQueue eq;
  SimCore core(eq);
  std::vector<TimeNs> completions;
  core.submit(100, [&](TimeNs t) { completions.push_back(t); });
  core.submit(50, [&](TimeNs t) { completions.push_back(t); });
  eq.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], 100u);
  EXPECT_EQ(completions[1], 150u);
  EXPECT_EQ(core.busy_ns(), 150u);
  EXPECT_EQ(core.jobs_completed(), 2u);
}

TEST(SimCore, IdleCoreStartsImmediately) {
  EventQueue eq;
  SimCore core(eq);
  eq.schedule_at(1000, [&] {
    core.submit(10, [&](TimeNs t) { EXPECT_EQ(t, 1010u); });
  });
  eq.run();
}

TEST(SimCore, HighPriorityJumpsQueue) {
  EventQueue eq;
  SimCore core(eq);
  std::vector<int> order;
  core.submit(100, [&](TimeNs) { order.push_back(0); });  // in service
  core.submit(100, [&](TimeNs) { order.push_back(1); });  // queued
  core.submit(10, [&](TimeNs) { order.push_back(2); }, /*high=*/true);
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}))
      << "high-priority job must run after the in-service job but before "
         "queued normal jobs";
}

TEST(SimCore, PriorityAndFifoOrderHoldAcrossQueueGrowth) {
  // Enough queued jobs to grow the job ring several times, with
  // high-priority jobs pushed to the front in between; the service order
  // must match a std::deque model of the same submissions.
  EventQueue eq;
  SimCore core(eq);
  std::vector<int> order;
  std::deque<int> model;
  core.submit(10, [&](TimeNs) { order.push_back(-1); });  // in service
  for (int i = 0; i < 300; ++i) {
    const bool high = i % 7 == 3;
    core.submit(static_cast<TimeNs>(1 + i % 5),
                [&order, i](TimeNs) { order.push_back(i); }, high);
    if (high)
      model.push_front(i);
    else
      model.push_back(i);
  }
  EXPECT_EQ(core.queue_depth(), 300u);
  eq.run();
  std::vector<int> expected{-1};
  expected.insert(expected.end(), model.begin(), model.end());
  EXPECT_EQ(order, expected);
  EXPECT_EQ(core.backlog_ns(), 0u);
  EXPECT_FALSE(core.busy());
}

TEST(SimCore, SteadyStateSubmitCompleteDoesNotAllocate) {
  // A core kept busy by completions that resubmit, each Done holding a
  // packet handle: once the job ring and the event slab are sized, the
  // cycle allocates nothing.
  net::PacketPool pool(64, 128);  // outlives the core's queued closures
  EventQueue eq;
  SimCore core(eq);
  std::uint64_t done_count = 0;
  struct Loop {
    static void submit(SimCore& c, std::uint64_t& n, net::PacketPtr p) {
      c.submit(1 + (n % 3),
               [&c, &n, p = std::move(p)](TimeNs) mutable {
                 ++n;
                 submit(c, n, std::move(p));
               },
               /*high_priority=*/n % 11 == 0);
    }
  };
  for (int i = 0; i < 32; ++i) Loop::submit(core, done_count, pool.alloc());
  for (int i = 0; i < 10'000; ++i) eq.step();
  const std::uint64_t before = g_news;
  for (int i = 0; i < 50'000; ++i) eq.step();
  EXPECT_EQ(g_news - before, 0u) << "submit/complete allocated";
  EXPECT_EQ(done_count, 60'000u);
  eq.clear();
}

TEST(SimCore, BacklogTracksOutstandingWork) {
  EventQueue eq;
  SimCore core(eq);
  core.submit(100, [](TimeNs) {});
  core.submit(200, [](TimeNs) {});
  // At t=0 (before any event runs) one job is in service (100ns left) and
  // one queued (200ns).
  EXPECT_EQ(core.backlog_ns(), 300u);
  EXPECT_EQ(core.queue_depth(), 1u);
  eq.run();
  EXPECT_EQ(core.backlog_ns(), 0u);
}

TEST(SimCore, TheftIsInvisibleToTheDispatcherView) {
  EventQueue eq;
  SimCore core(eq);
  // A theft burst in service: ground truth sees it, the dispatcher not.
  core.submit(10'000, [](TimeNs) {}, /*high_priority=*/true, /*visible=*/false);
  EXPECT_EQ(core.backlog_ns(), 10'000u);
  EXPECT_EQ(core.visible_backlog_ns(), 0u)
      << "a stolen core must look idle to the scheduler";
  // Packets queued behind the theft ARE visible.
  core.submit(300, [](TimeNs) {});
  EXPECT_EQ(core.visible_backlog_ns(), 300u);
  EXPECT_EQ(core.backlog_ns(), 10'300u);
  eq.run();
  EXPECT_EQ(core.visible_backlog_ns(), 0u);
}

TEST(Interference, DutyCycleConverges) {
  EventQueue eq;
  SimCore core(eq);
  InterferenceConfig cfg;
  cfg.duty_cycle = 0.2;
  cfg.mean_burst_ns = 50'000;
  InterferenceModel noise(eq, core, cfg, /*seed=*/5);
  noise.start();
  constexpr TimeNs kHorizon = 5 * kSecond;
  eq.run_until(kHorizon);
  double duty = static_cast<double>(noise.total_stolen_ns()) /
                static_cast<double>(kHorizon);
  EXPECT_NEAR(duty, 0.2, 0.05);
  EXPECT_GT(noise.bursts_injected(), 1000u);
}

TEST(Interference, ZeroDutyInjectsNothing) {
  EventQueue eq;
  SimCore core(eq);
  InterferenceConfig cfg;
  cfg.duty_cycle = 0.0;
  InterferenceModel noise(eq, core, cfg, 5);
  noise.start();
  eq.run_until(kSecond);
  EXPECT_EQ(noise.bursts_injected(), 0u);
}

TEST(Determinism, SameSeedSameTrace) {
  auto run = [](std::uint64_t seed) {
    EventQueue eq;
    SimCore core(eq);
    Rng rng(seed);
    Exponential gaps(500);
    std::vector<TimeNs> completions;
    TimeNs t = 0;
    for (int i = 0; i < 200; ++i) {
      t += static_cast<TimeNs>(gaps.sample(rng)) + 1;
      eq.schedule_at(t, [&core, &completions, &rng] {
        core.submit(static_cast<TimeNs>(rng.uniform_u64(300) + 1),
                    [&completions](TimeNs done) {
                      completions.push_back(done);
                    });
      });
    }
    eq.run();
    return completions;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

}  // namespace
}  // namespace mdp::sim

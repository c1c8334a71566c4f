// Tab 4: data-structure microbenchmarks (google-benchmark, real time,
// real hardware). These validate that the building blocks of the data
// plane are in the nanosecond class a DPDK-grade last mile requires.
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>

#include "core/dataplane.hpp"
#include "core/dedup.hpp"
#include "core/reorder.hpp"
#include "net/checksum.hpp"
#include "nf/chain.hpp"
#include "net/packet_builder.hpp"
#include "net/packet_pool.hpp"
#include "nf/dpi.hpp"
#include "nf/firewall.hpp"
#include "nf/load_balancer.hpp"
#include "nf/nat.hpp"
#include "ring/mpmc_ring.hpp"
#include "ring/spsc_ring.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "stats/cacheline.hpp"
#include "stats/histogram.hpp"
#include "telem/flight_recorder.hpp"

using namespace mdp;

static void BM_SpscPushPop(benchmark::State& state) {
  ring::SpscRing<std::uint64_t> r(1024);
  std::uint64_t v = 0;
  for (auto _ : state) {
    r.try_push(v);
    std::uint64_t out;
    r.try_pop(out);
    benchmark::DoNotOptimize(out);
    ++v;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscPushPop);

static void BM_SpscBulk32(benchmark::State& state) {
  ring::SpscRing<std::uint64_t> r(1024);
  std::uint64_t buf[32] = {};
  for (auto _ : state) {
    r.try_push_bulk(std::span<std::uint64_t>(buf, 32));
    std::uint64_t out[32];
    r.try_pop_burst(std::span<std::uint64_t>(out, 32));
    benchmark::DoNotOptimize(out[0]);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_SpscBulk32);

// Burst sweep: the amortization the threaded data plane's hot path rides
// on. ns/item should drop steeply from burst 1 to 32 and flatten after.
static void BM_SpscBurst(benchmark::State& state) {
  const auto burst = static_cast<std::size_t>(state.range(0));
  ring::SpscRing<std::uint64_t> r(1024);
  std::vector<std::uint64_t> in(burst, 7), out(burst);
  for (auto _ : state) {
    r.try_push_burst(std::span<std::uint64_t>(in.data(), burst));
    r.try_pop_burst(std::span<std::uint64_t>(out.data(), burst));
    benchmark::DoNotOptimize(out[0]);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(burst));
}
BENCHMARK(BM_SpscBurst)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

static void BM_MpmcBurst(benchmark::State& state) {
  const auto burst = static_cast<std::size_t>(state.range(0));
  ring::MpmcRing<std::uint64_t> r(1024);
  std::vector<std::uint64_t> in(burst, 7), out(burst);
  for (auto _ : state) {
    r.try_push_burst(std::span<std::uint64_t>(in.data(), burst));
    r.try_pop_burst(std::span<std::uint64_t>(out.data(), burst));
    benchmark::DoNotOptimize(out[0]);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(burst));
}
BENCHMARK(BM_MpmcBurst)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

static void BM_MpmcPushPop(benchmark::State& state) {
  ring::MpmcRing<std::uint64_t> r(1024);
  std::uint64_t v = 0;
  for (auto _ : state) {
    r.try_push(v);
    std::uint64_t out;
    r.try_pop(out);
    benchmark::DoNotOptimize(out);
    ++v;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpmcPushPop);

// Packed-vs-padded per-path counters, the before/after for padding the
// plane's hot atomics (ThreadedDataPlane::path_completed_, SloMonitor's
// per-path windows) to stats::kCacheLineSize (64 bytes). Each thread
// hammers its own logical counter; in the packed layout adjacent
// counters share a cache line, so every increment fights its neighbors'
// cores for the line (false sharing). The padded row gives each counter
// a line of its own — same code, several times cheaper per increment.
static void BM_CounterPackedMT(benchmark::State& state) {
  static std::array<std::atomic<std::uint64_t>, 8> counters;
  auto& c = counters[static_cast<std::size_t>(state.thread_index()) % 8];
  for (auto _ : state) c.fetch_add(1, std::memory_order_relaxed);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterPackedMT)->Threads(4)->UseRealTime();

static void BM_CounterPaddedMT(benchmark::State& state) {
  static std::array<stats::PaddedAtomicU64, 8> counters;
  auto& c = counters[static_cast<std::size_t>(state.thread_index()) % 8].v;
  for (auto _ : state) c.fetch_add(1, std::memory_order_relaxed);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterPaddedMT)->Threads(4)->UseRealTime();

// The flight recorder's hot-path cost: one enabled check + epoch
// fetch_add + five atomic stores into a preallocated seqlock slot. This
// is the per-event price the ext2 synthetic_telem gate row pays per
// burst (not per packet).
static void BM_FlightRecorderEmit(benchmark::State& state) {
  telem::FlightRecorder rec({.events_per_channel = 4096});
  auto* ch = rec.channel("bench");
  std::uint64_t t = 0;
  for (auto _ : state) {
    ++t;
    ch->emit(t, telem::EventType::kIngressBurst, 0, 32, t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecorderEmit);

static void BM_HistogramRecord(benchmark::State& state) {
  stats::LatencyHistogram h;
  std::uint64_t v = 12345;
  for (auto _ : state) {
    h.record(v);
    v = v * 6364136223846793005ULL + 1;
    v &= 0xfffffff;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

static void BM_FlowHash(benchmark::State& state) {
  net::FlowKey f{0x0a000001, 0x0b000002, 1234, 80, 6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::hash_flow(f));
    ++f.src_port;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowHash);

static void BM_DedupExpectAccept(benchmark::State& state) {
  core::Deduplicator d;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    auto k = core::Deduplicator::key(1, seq++);
    d.expect(k, 2, 0);
    benchmark::DoNotOptimize(d.accept(k));
    benchmark::DoNotOptimize(d.accept(k));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DedupExpectAccept);

static void BM_ReorderInOrder(benchmark::State& state) {
  sim::EventQueue eq;
  net::PacketPool pool(4096, 256);
  core::ReorderBuffer rb(eq, core::ReorderConfig{}, [](net::PacketPtr) {});
  std::uint64_t seq = 0;
  for (auto _ : state) {
    auto p = pool.alloc();
    p->set_length(64);
    p->anno().flow_id = 1;
    p->anno().seq = seq++;
    rb.submit(std::move(p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReorderInOrder);

static void BM_AhoCorasickScan(benchmark::State& state) {
  nf::AhoCorasick ac;
  ac.add_pattern("EVILPATTERN");
  ac.add_pattern("MALWARE");
  ac.add_pattern("c2beacon");
  ac.add_pattern("exfil");
  ac.build();
  std::vector<std::byte> payload(state.range(0));
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::byte>('a' + (i % 23));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ac.match_count(payload.data(), payload.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AhoCorasickScan)->Arg(256)->Arg(1450);

static void BM_FirewallDecide(benchmark::State& state) {
  nf::FirewallTable t;
  t.set_engine(state.range(0) ? nf::FirewallTable::Engine::kSrcTrie
                              : nf::FirewallTable::Engine::kLinear);
  std::string err;
  for (const auto& text : nf::make_firewall_rules(64)) {
    auto r = nf::FwRule::parse(text, &err);
    t.add_rule(*r);
  }
  net::FlowKey f{0x0a050505, 0x0a006401, 1000, 80, 17};
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.decide(f));
    f.src_ip += 0x100;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FirewallDecide)->Arg(0)->Arg(1);  // 0=linear, 1=trie

static void BM_NatTranslateHit(benchmark::State& state) {
  nf::NatTable t;
  net::FlowKey f{0xc0a80101, 0x08080808, 1000, 443, 6};
  t.translate(f, 0);
  std::uint64_t now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.translate(f, ++now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NatTranslateHit);

static void BM_LbSelectHit(benchmark::State& state) {
  nf::LoadBalancerCore lb;
  for (std::uint32_t i = 0; i < 8; ++i)
    lb.add_backend(nf::Backend{0x0ac80001 + i, 1, true});
  net::FlowKey f{0x0b000001, 0x0a006401, 1000, 80, 6};
  lb.select(f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lb.select(f));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LbSelectHit);

static void BM_PoolAllocRecycle(benchmark::State& state) {
  net::PacketPool pool(256, 2048);
  for (auto _ : state) {
    auto p = pool.alloc();
    benchmark::DoNotOptimize(p.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolAllocRecycle);

static void BM_BuildUdpFrame(benchmark::State& state) {
  net::PacketPool pool(256, 2048);
  net::BuildSpec spec;
  spec.flow = {0x0a000001, 0x0a006401, 1000, 80, 17};
  spec.payload_len = 200;
  for (auto _ : state) {
    auto p = net::build_udp(pool, spec);
    benchmark::DoNotOptimize(p.get());
    ++spec.flow.src_port;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BuildUdpFrame);

// RFC 1071 kernel over `len` bytes starting `offset` bytes into an aligned
// buffer. 20 B is an IPv4 header; 1500 B a full frame.
static void checksum_rows(benchmark::State& state, std::size_t offset) {
  const auto len = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> buf(len + offset);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::byte>(i * 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::checksum(buf.data() + offset, len));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
static void BM_ChecksumFrame(benchmark::State& state) {
  checksum_rows(state, 0);
}
BENCHMARK(BM_ChecksumFrame)->Arg(20)->Arg(64)->Arg(1500);
// Odd length at an odd address: the tail byte and unaligned word loads.
static void BM_ChecksumFrameUnaligned(benchmark::State& state) {
  checksum_rows(state, 1);
}
BENCHMARK(BM_ChecksumFrameUnaligned)->Arg(1473);

// One event-queue step (pop, run, reschedule) at a steady heap depth with
// 40 B closures, the size of the plane's dispatch closure. Arg = depth:
// 300 is sim_noisy_neighbor's mean heap depth, 1,300 sim_flow_churn's.
static void BM_EventQueueStep(benchmark::State& state) {
  sim::EventQueue eq;
  sim::Rng rng(7);
  struct Ctx {
    sim::EventQueue* eq;
    sim::Rng* rng;
  };
  struct Step {
    static void arm(Ctx c, std::uint64_t a, std::uint64_t b) {
      const sim::TimeNs at = c.eq->now() + 1 + c.rng->uniform_u64(4000);
      auto cb = [c, a, b, pad = std::uint64_t{0}] {
        benchmark::DoNotOptimize(pad);
        arm(c, b, a + 1);
      };
      static_assert(sizeof(cb) == 40);
      c.eq->schedule_at(at, std::move(cb));
    }
  };
  const Ctx ctx{&eq, &rng};
  for (std::int64_t i = 0; i < state.range(0); ++i)
    Step::arm(ctx, static_cast<std::uint64_t>(i), 0);
  for (int i = 0; i < 10'000; ++i) eq.step();  // warm slab and heap
  for (auto _ : state) eq.step();
  state.SetItemsProcessed(state.iterations());
  eq.clear();
}
BENCHMARK(BM_EventQueueStep)->Arg(300)->Arg(1300);

// Whole-chain batch path: one virtual call per element per burst through
// CheckIPHeader -> Firewall -> Nat -> LoadBalancer. Arg = burst size;
// packet construction is inside the loop for every variant, so only the
// chain traversal cost varies across rows.
static void BM_ChainBatch(benchmark::State& state) {
  const auto burst = static_cast<std::size_t>(state.range(0));
  sim::EventQueue eq;
  net::PacketPool pool(512, 2048);
  click::Router router(click::Router::Context{&eq, &pool});
  std::string err;
  auto built = nf::build_chain(router, "c",
                               nf::ChainSpec::preset("fw-nat-lb"), &err);
  auto* sink = router.add_element("sink", "Discard", {}, &err);
  if (!built || !sink ||
      !router.connect(built->tail, 0, sink, 0, &err) ||
      !router.initialize(&err)) {
    state.SkipWithError(err.c_str());
    return;
  }
  net::BuildSpec spec;
  spec.flow = {0x0a000001, 0x0a006401, 1000, 80, 17};
  spec.payload_len = 64;
  for (auto _ : state) {
    click::PacketBatch batch;
    batch.reserve(burst);
    for (std::size_t i = 0; i < burst; ++i) {
      batch.push_back(net::build_udp(pool, spec));
      spec.flow.src_port =
          static_cast<std::uint16_t>(1000 + (spec.flow.src_port + 1) % 64);
    }
    nf::process_batch(*built, std::move(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(burst));
}
BENCHMARK(BM_ChainBatch)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

// Per-packet push through the same chain, as the batch rows' baseline.
static void BM_ChainPerPacket(benchmark::State& state) {
  sim::EventQueue eq;
  net::PacketPool pool(512, 2048);
  click::Router router(click::Router::Context{&eq, &pool});
  std::string err;
  auto built = nf::build_chain(router, "c",
                               nf::ChainSpec::preset("fw-nat-lb"), &err);
  auto* sink = router.add_element("sink", "Discard", {}, &err);
  if (!built || !sink ||
      !router.connect(built->tail, 0, sink, 0, &err) ||
      !router.initialize(&err)) {
    state.SkipWithError(err.c_str());
    return;
  }
  net::BuildSpec spec;
  spec.flow = {0x0a000001, 0x0a006401, 1000, 80, 17};
  spec.payload_len = 64;
  for (auto _ : state) {
    built->head->push(0, net::build_udp(pool, spec));
    spec.flow.src_port =
        static_cast<std::uint16_t>(1000 + (spec.flow.src_port + 1) % 64);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChainPerPacket);

// Set-up cost of a fw-nat-lb plane: build and initialize every path's
// chain replica (and the per-plane NF state they share), then tear the
// plane down. Arg = paths.
static void BM_PlaneBuild(benchmark::State& state) {
  sim::EventQueue eq;
  net::PacketPool pool(64, 2048);
  core::DataPlaneConfig cfg;
  cfg.num_paths = static_cast<std::size_t>(state.range(0));
  cfg.chain = "fw-nat-lb";
  for (auto _ : state) {
    core::MdpDataPlane dp(eq, pool, cfg, core::make_scheduler("jsq"));
    benchmark::DoNotOptimize(dp.chain_cost_ns());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlaneBuild)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();

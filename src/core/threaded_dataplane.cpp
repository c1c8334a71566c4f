#include "core/threaded_dataplane.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "net/checksum.hpp"

namespace mdp::core {

ThreadedDataPlane::ThreadedDataPlane(ThreadedConfig cfg,
                                     Completion on_complete)
    : cfg_(cfg),
      on_complete_(std::move(on_complete)),
      done_ring_(std::make_unique<ring::MpmcRing<Slot*>>(
          std::max(cfg.ring_capacity * cfg.num_paths, cfg.pool_size))),
      free_ring_(std::make_unique<ring::MpmcRing<Slot*>>(cfg.pool_size)),
      slots_(cfg.pool_size),
      work_buf_(cfg.payload_bytes, 0xa5),
      path_counts_(cfg.num_paths, 0),
      admission_(cfg.num_paths),
      path_completed_(new stats::PaddedAtomicU64[cfg.num_paths]),
      stage_(cfg.num_paths),
      jsq_depths_(cfg.num_paths, 0) {
  for (std::size_t p = 0; p < cfg.num_paths; ++p)
    path_completed_[p].v.store(0, std::memory_order_relaxed);
  if (cfg_.recorder) {
    ingress_chan_ = cfg_.recorder->channel("dp.ingress");
    egress_chan_ = cfg_.recorder->channel("dp.collector");
  }
  if (cfg_.policy == "rr")
    policy_ = Policy::kRoundRobin;
  else if (cfg_.policy == "hash")
    policy_ = Policy::kHash;
  if (cfg_.burst_size == 0) cfg_.burst_size = 1;
  if (cfg_.burst_size > kMaxBurst) cfg_.burst_size = kMaxBurst;
  for (std::size_t p = 0; p < cfg_.num_paths; ++p) {
    path_rings_.push_back(
        std::make_unique<ring::SpscRing<Slot*>>(cfg.ring_capacity));
    stage_[p].reserve(kMaxBurst);
  }
  for (auto& s : slots_) free_ring_->try_push(&s);
  if (cfg_.backend) tx_pending_.reserve(kMaxBurst);
}

ThreadedDataPlane::~ThreadedDataPlane() {
  if (!stopping_.load()) stop();
}

std::uint64_t ThreadedDataPlane::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void ThreadedDataPlane::start() {
  if (cfg_.backend) {
    std::string err;
    if (!cfg_.backend->start(&err)) {
      std::fprintf(stderr, "ThreadedDataPlane: backend '%s' failed: %s\n",
                   cfg_.backend->caps().name.c_str(), err.c_str());
      return;
    }
  }
  stopping_.store(false);
  workers_done_.store(false);
  for (std::size_t p = 0; p < cfg_.num_paths; ++p)
    workers_.emplace_back([this, p] { worker_loop(p); });
  // Backend mode retires on the caller thread, inside pump().
  if (!cfg_.backend) collector_ = std::thread([this] { collector_loop(); });
}

bool ThreadedDataPlane::ingress(std::uint64_t flow_hash) {
  Slot* slot = nullptr;
  if (!free_ring_->try_pop(slot)) {
    ++rejected_;
    return false;
  }
  slot->enqueue_ns = now_ns();
  slot->payload_seed = static_cast<std::uint32_t>(flow_hash);
  slot->flow_id = slot->payload_seed;
  slot->seq = 0;
  slot->pkt = nullptr;
  return dispatch_slots(&slot, &flow_hash, 1) == 1;
}

void ThreadedDataPlane::reject_slot(Slot* slot) {
  if (slot->pkt) {
    net::PacketPtr(slot->pkt).reset();  // back to its packet pool
    slot->pkt = nullptr;
  }
  while (!free_ring_->try_push(slot)) {
  }
  ++rejected_;
}

std::size_t ThreadedDataPlane::dispatch_slots(Slot* const* slots,
                                              const std::uint64_t* hashes,
                                              std::size_t n) {
  // Per-burst bookkeeping amortization: one policy state sample (for JSQ:
  // one ring-occupancy snapshot) for the whole burst. Intra-burst
  // placements are accounted locally so the burst still spreads.
  const bool jsq = policy_ == Policy::kJsq;
  if (jsq)
    for (std::size_t p = 0; p < cfg_.num_paths; ++p)
      jsq_depths_[p] = path_rings_[p]->size();

  for (auto& staged : stage_) staged.clear();
  for (std::size_t i = 0; i < n; ++i) {
    std::uint16_t path;
    if (jsq) {
      // Admission is re-checked per packet: a probe-only path drops out
      // of the candidate set the moment its credits drain mid-burst.
      const bool any = admission_.any();
      std::size_t best = cfg_.num_paths;
      for (std::size_t p = 0; p < cfg_.num_paths; ++p) {
        if (any && !admission_.candidate(p)) continue;
        if (best == cfg_.num_paths || jsq_depths_[p] < jsq_depths_[best])
          best = p;
      }
      if (best == cfg_.num_paths) best = 0;
      ++jsq_depths_[best];
      path = static_cast<std::uint16_t>(best);
    } else if (policy_ == Policy::kHash) {
      path = static_cast<std::uint16_t>(
          admission_.first_from(hashes[i] % cfg_.num_paths));
    } else {
      path = static_cast<std::uint16_t>(admission_.first_from(rr_next_));
      rr_next_ = (path + 1) % cfg_.num_paths;
    }
    admission_.place(path);
    slots[i]->path = path;
    stage_[path].push_back(slots[i]);
  }

  std::size_t accepted = 0;
  for (std::size_t p = 0; p < cfg_.num_paths; ++p) {
    auto& staged = stage_[p];
    if (staged.empty()) continue;
    const std::size_t pushed = path_rings_[p]->try_push_burst(
        std::span<Slot*>(staged.data(), staged.size()));
    path_counts_[p] += pushed;
    accepted += pushed;
    // Ring full mid-burst: recycle the tail and count it rejected.
    for (std::size_t i = pushed; i < staged.size(); ++i)
      reject_slot(staged[i]);
  }
  submitted_ += accepted;
  return accepted;
}

std::size_t ThreadedDataPlane::ingress_burst(
    std::span<const std::uint64_t> flow_hashes) {
  const std::size_t want =
      flow_hashes.size() < kMaxBurst ? flow_hashes.size() : kMaxBurst;
  if (want == 0) return 0;

  Slot* acquired[kMaxBurst];
  const std::size_t got =
      free_ring_->try_pop_burst(std::span<Slot*>(acquired, want));
  rejected_ += want - got;
  if (got == 0) return 0;

  // One admission stamp for the whole burst.
  const std::uint64_t admit_ns = now_ns();
  for (std::size_t i = 0; i < got; ++i) {
    Slot* slot = acquired[i];
    slot->enqueue_ns = admit_ns;
    slot->payload_seed = static_cast<std::uint32_t>(flow_hashes[i]);
    slot->flow_id = slot->payload_seed;
    slot->seq = 0;
    slot->pkt = nullptr;
  }
  const std::size_t accepted = dispatch_slots(acquired, flow_hashes.data(), got);
  // One recorder event per burst (not per packet): the admission stamp,
  // the accepted count, and the running submit total.
  if (ingress_chan_ && accepted)
    ingress_chan_->emit(admit_ns, telem::EventType::kIngressBurst,
                        telem::kAllPaths,
                        static_cast<std::uint32_t>(accepted), submitted_);
  return accepted;
}

std::size_t ThreadedDataPlane::pump() {
  io::PacketBackend* backend = cfg_.backend;
  if (!backend) return 0;

  // 1. Workers -> backend egress: retire every completed burst (its
  //    frames move to tx_pending_, its slots back to the free ring), then
  //    hand as many frames as the backend will take. Unconsumed frames
  //    wait in tx_pending_.
  drain_completions();
  if (!tx_pending_.empty()) {
    const std::size_t sent = backend->tx_burst(
        std::span<net::PacketPtr>(tx_pending_.data(), tx_pending_.size()));
    tx_pending_.erase(tx_pending_.begin(),
                      tx_pending_.begin() + static_cast<long>(sent));
  }

  // 2. Backend -> dispatch ingress: one rx burst, one admission stamp.
  net::PacketPtr rx_buf[kMaxBurst];
  const std::size_t want = cfg_.burst_size;
  const std::size_t got =
      backend->rx_burst(std::span<net::PacketPtr>(rx_buf, want));
  if (got == 0) return 0;

  Slot* acquired[kMaxBurst];
  const std::size_t slots =
      free_ring_->try_pop_burst(std::span<Slot*>(acquired, got));
  // Frames the slot pool cannot absorb right now go back to their pool.
  for (std::size_t i = slots; i < got; ++i) {
    rx_buf[i].reset();
    ++rejected_;
  }
  if (slots == 0) return 0;

  const std::uint64_t admit_ns = now_ns();
  std::uint64_t hashes[kMaxBurst];
  for (std::size_t i = 0; i < slots; ++i) {
    Slot* slot = acquired[i];
    const auto& a = rx_buf[i]->anno();
    hashes[i] = a.flow_hash;
    slot->enqueue_ns = admit_ns;
    slot->payload_seed = static_cast<std::uint32_t>(a.flow_hash);
    slot->flow_id = a.flow_id;
    slot->seq = a.seq;
    slot->pkt = rx_buf[i].release();
  }
  const std::size_t accepted = dispatch_slots(acquired, hashes, slots);
  if (ingress_chan_ && accepted)
    ingress_chan_->emit(admit_ns, telem::EventType::kIngressBurst,
                        telem::kAllPaths,
                        static_cast<std::uint32_t>(accepted), submitted_);
  return accepted;
}

void ThreadedDataPlane::worker_loop(std::size_t path) {
  // Each worker owns a private scratch copy so the checksum work doesn't
  // false-share.
  std::vector<std::uint8_t> buf = work_buf_;
  auto& ring = *path_rings_[path];
  Slot* burst[kMaxBurst];
  const std::size_t burst_cap = cfg_.burst_size;
  while (true) {
    const std::size_t n =
        ring.try_pop_burst(std::span<Slot*>(burst, burst_cap));
    if (n == 0) {
      if (stopping_.load(std::memory_order_acquire) && ring.empty()) break;
      std::this_thread::yield();
      continue;
    }
    if (cfg_.record_stage_hist) {
      const std::uint64_t t = now_ns();
      for (std::size_t i = 0; i < n; ++i) {
        burst[i]->dequeue_ns = t;
        burst[i]->burst_n = static_cast<std::uint16_t>(n);
        burst[i]->burst_pos = static_cast<std::uint16_t>(i);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      volatile std::uint16_t sink = 0;
      if (burst[i]->pkt) {
        // Real frame: checksum passes over the actual frame bytes,
        // read-only so the payload round-trips bit-exact.
        const auto payload = burst[i]->pkt->payload();
        for (std::size_t k = 0; k < cfg_.work_iterations; ++k)
          sink = static_cast<std::uint16_t>(
              net::checksum(payload.data(), payload.size()) + sink);
      } else {
        // Synthetic mode: seed-perturbed checksum passes over the scratch
        // payload region (memory traffic + ALU, like header parsing).
        buf[0] = static_cast<std::uint8_t>(burst[i]->payload_seed);
        for (std::size_t k = 0; k < cfg_.work_iterations; ++k) {
          sink = net::checksum(
              reinterpret_cast<const std::byte*>(buf.data()), buf.size());
          buf[1] = static_cast<std::uint8_t>(sink);
        }
      }
    }
    if (cfg_.record_stage_hist) {
      const std::uint64_t t = now_ns();
      for (std::size_t i = 0; i < n; ++i) burst[i]->done_ns = t;
    }
    std::size_t pushed = 0;
    while (pushed < n) {
      pushed += done_ring_->try_push_burst(
          std::span<Slot*>(burst + pushed, n - pushed));
      if (pushed < n) std::this_thread::yield();
    }
  }
}

void ThreadedDataPlane::collector_loop() {
  while (true) {
    // Read the flag before draining: once it reads true every worker has
    // been joined, so the drain that follows sees every completion, and
    // only an empty drain after it means none can still arrive.
    const bool done = workers_done_.load(std::memory_order_acquire);
    if (drain_completions() > 0) continue;
    if (done) break;
    std::this_thread::yield();
  }
}

std::size_t ThreadedDataPlane::drain_completions() {
  Slot* burst[kMaxBurst];
  std::size_t total = 0;
  while (const std::size_t n = done_ring_->try_pop_burst(
             std::span<Slot*>(burst, cfg_.burst_size))) {
    retire_burst(burst, n);
    total += n;
  }
  return total;
}

void ThreadedDataPlane::retire_burst(Slot** burst, std::size_t n) {
  // One clock read per drained burst; slot stamps were written by the
  // worker before the done_ring_ push (release) and read after the pop
  // (acquire) — no race.
  const std::uint64_t now = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    Slot* slot = burst[i];
    if (cfg_.record_stage_hist) {
      const std::uint64_t service_span = slot->done_ns >= slot->dequeue_ns
                                             ? slot->done_ns - slot->dequeue_ns
                                             : 0;
      const std::uint16_t burst_n = slot->burst_n ? slot->burst_n : 1;
      queue_wait_hist_.record(slot->dequeue_ns >= slot->enqueue_ns
                                  ? slot->dequeue_ns - slot->enqueue_ns
                                  : 0);
      // Attributed share: the burst's span divided over its members,
      // not the whole span per member (batch-aware attribution).
      service_hist_.record(service_span / burst_n);
      merge_wait_hist_.record(now >= slot->done_ns ? now - slot->done_ns : 0);
      trace::SpanRecord sp;
      sp.ingress_ns = slot->enqueue_ns;
      sp.dispatch_ns = slot->enqueue_ns;
      sp.service_start_ns = slot->dequeue_ns;
      sp.service_end_ns = slot->done_ns;
      sp.chain_done_ns = slot->done_ns;
      sp.merge_ns = now;
      sp.egress_ns = now;
      sp.flow_id = slot->flow_id;
      sp.seq = slot->seq;
      sp.path_id = slot->path;
      sp.burst_size = burst_n;
      sp.burst_pos = slot->burst_pos;
      sp.active = true;
      exemplars_.offer(sp);
      if (span_observer_) span_observer_(sp);
    }
    if (on_complete_) on_complete_(now - slot->enqueue_ns, slot->path);
    path_completed_[slot->path].v.fetch_add(1, std::memory_order_release);
    if (slot->pkt) {
      // Only backend-mode slots carry a frame, and backend mode retires on
      // the caller thread, which owns tx_pending_ and the pools. Stamp the
      // internal path that served the frame: downstream fault lanes and
      // per-path telemetry key on anno().path_id, which is how the
      // controller's observations attribute back to our paths.
      slot->pkt->anno().path_id = slot->path;
      tx_pending_.emplace_back(slot->pkt);
      slot->pkt = nullptr;
    }
  }
  completed_.fetch_add(n, std::memory_order_relaxed);
  if (egress_chan_)
    egress_chan_->emit(now, telem::EventType::kEgressBurst, telem::kAllPaths,
                       static_cast<std::uint32_t>(n),
                       completed_.load(std::memory_order_relaxed));
  std::size_t back = 0;
  while (back < n)
    back +=
        free_ring_->try_push_burst(std::span<Slot*>(burst + back, n - back));
}

void ThreadedDataPlane::stop() {
  stopping_.store(true, std::memory_order_release);
  for (auto& w : workers_)
    if (w.joinable()) w.join();
  workers_done_.store(true, std::memory_order_release);
  if (collector_.joinable()) collector_.join();
  workers_.clear();
  if (cfg_.backend) {
    // Final egress pass on the caller thread: retire what the workers
    // finished last (done_ring_ holds every slot, so no worker blocked on
    // it while we joined), offer every frame to the backend once, then
    // return anything it refuses to its packet pool. The backend itself
    // stays up — the caller owns its lifetime.
    drain_completions();
    if (!tx_pending_.empty()) {
      cfg_.backend->tx_burst(std::span<net::PacketPtr>(
          tx_pending_.data(), tx_pending_.size()));
      tx_pending_.clear();  // unconsumed handles recycle on destruction
    }
  }
}

}  // namespace mdp::core

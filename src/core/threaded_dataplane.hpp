// ThreadedDataPlane: the multipath last mile on real OS threads.
//
// One ingress (caller) thread dispatches packets onto per-path SPSC rings;
// one worker thread per path pops its ring, performs the per-packet work
// (a real checksum pass over the payload, calibrated to the requested
// service time), and pushes to a shared MPMC completion ring. The thread
// that drains that ring retires each burst through one routine, which
// reports per-packet latency via callback: a collector thread in synthetic
// mode, the caller inside pump() in backend mode (see "Packet sources").
// Every policy is single-copy, so retirement needs no merge; it does not
// run core::Merge yet because the ReorderBuffer times out on a
// sim::EventQueue, not on a clock pump() could pass in. Dispatch honors
// the control plane's path admission through core::AdmissionSet.
//
// The hot path is burst-oriented end-to-end, DPDK style: ingress_burst()
// admits up to a burst of packets with the dispatch policy and timestamp
// bookkeeping amortized to once per burst, workers pop their ring in bursts
// of cfg.burst_size and push completions in bursts, and completions are
// drained, retired and recycled in bursts. burst_size = 1 degenerates to
// the per-packet behavior; the per-packet ingress() entry point is kept
// for callers that arrive one packet at a time.
//
// Packet sources. Two ways to feed the plane:
//   - ingress()/ingress_burst(flow_hashes): the legacy synthetic mode —
//     no frames, per-packet work runs over a scratch payload buffer. A
//     collector thread retires completions in parallel with ingress; no
//     frame has to come back to the caller.
//   - cfg.backend + pump(): real frames. pump(), called repeatedly from
//     the caller thread, drains the workers' completions and tx_bursts
//     their frames back out, then rx_bursts frames from the
//     io::PacketBackend and dispatches them by anno().flow_hash. No
//     collector runs: a frame crosses two thread handoffs (caller ->
//     worker -> caller), and all backend and pool interaction stays on
//     the caller thread (pools are single-threaded); workers only read
//     frame bytes. See docs/IO_BACKENDS.md.
//
// This is NOT the experiment vehicle (the discrete-event model is, see
// MdpDataPlane) — it validates that the data-path building blocks (rings,
// dispatch, bursting, backend I/O) are genuinely lock-free and fast on
// real hardware, and feeds Tab 4 / the Ext 2 fastpath burst sweep.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/admission.hpp"
#include "io/packet_backend.hpp"
#include "ring/mpmc_ring.hpp"
#include "ring/spsc_ring.hpp"
#include "stats/cacheline.hpp"
#include "stats/histogram.hpp"
#include "telem/flight_recorder.hpp"
#include "trace/exemplar.hpp"

namespace mdp::core {

struct ThreadedConfig {
  std::size_t num_paths = 2;
  std::size_t ring_capacity = 4096;
  std::size_t pool_size = 8192;
  std::size_t payload_bytes = 256;   ///< bytes the worker actually touches
  std::size_t work_iterations = 4;   ///< checksum passes per packet
  /// "rr" | "hash"; any other string means jsq. Parsed once, at
  /// construction.
  std::string policy = "jsq";
  /// Ring-drain burst for workers and for completion retirement, and the
  /// admission unit of ingress_burst (clamped to [1, kMaxBurst]).
  /// 1 = per-packet.
  std::size_t burst_size = 32;
  /// Attribute each packet's latency to ring wait / service / collection.
  /// Stage boundaries are stamped once per burst (two extra clock reads
  /// per *burst* on the worker); each packet's service sample is its
  /// attributed share (burst span / burst population), and retirement
  /// captures burst-aware exemplars (see exemplars()). Off for pure
  /// throughput benchmarking.
  bool record_stage_hist = false;
  /// Packet source/sink. Non-owning; when set, drive the plane with
  /// pump() from the caller thread. The plane start()s the backend but
  /// never stop()s it (the caller owns its lifetime, and with loopback
  /// pairs the peer endpoint usually outlives the plane).
  io::PacketBackend* backend = nullptr;
  /// Flight recorder (non-owning; must outlive the plane). When set,
  /// the plane emits one kIngressBurst event per admitted burst on the
  /// caller thread ("dp.ingress"), one kEgressBurst per retired burst
  /// on the retiring thread ("dp.collector": the collector thread in
  /// synthetic mode, the pump() caller in backend mode), and
  /// kAdmissionFlip on every set_path_admission — the ext2 telem-on rows
  /// bound what this costs (~one emit per burst, amortized sub-ns/packet).
  telem::FlightRecorder* recorder = nullptr;
};

class ThreadedDataPlane {
 public:
  /// Hard cap on a single burst (ingress, worker pop, completion drain).
  static constexpr std::size_t kMaxBurst = 256;

  /// Called for every completed packet: on the collector thread in
  /// synthetic mode, on the thread that calls pump()/stop() in backend
  /// mode.
  using Completion =
      std::function<void(std::uint64_t latency_ns, std::uint16_t path)>;

  /// Called with every completed packet's full stage-attributed span
  /// (requires cfg.record_stage_hist), on the same thread as Completion.
  /// The hook for control planes that want stage evidence, not just
  /// scalars — feed ctrl::SloMonitor::observe_span here. In synthetic
  /// mode the observer must be safe to call from the collector thread
  /// (SloMonitor's windows are).
  using SpanObserver = std::function<void(const trace::SpanRecord&)>;

  explicit ThreadedDataPlane(ThreadedConfig cfg, Completion on_complete);
  ~ThreadedDataPlane();

  ThreadedDataPlane(const ThreadedDataPlane&) = delete;
  ThreadedDataPlane& operator=(const ThreadedDataPlane&) = delete;

  /// Launch one worker thread per path, plus the collector thread in
  /// synthetic mode (cfg.backend unset); with a backend, start it and
  /// launch no collector — pump() retires completions.
  void start();

  /// Install the span observer. Must be called before start() — the
  /// collector thread (synthetic mode) reads it unsynchronized.
  void set_span_observer(SpanObserver obs) { span_observer_ = std::move(obs); }

  /// Submit one packet from the caller thread. Returns false if the
  /// buffer pool or the chosen path ring is momentarily full.
  bool ingress(std::uint64_t flow_hash);

  /// Submit up to kMaxBurst packets from the caller thread in one burst:
  /// one admission timestamp, one policy state sample (JSQ samples ring
  /// occupancy once and accounts for its own intra-burst placements), and
  /// per-path bulk ring pushes. Returns the number accepted; packets that
  /// found the pool or their path ring full are rejected (counted in
  /// rejected()), not retried.
  std::size_t ingress_burst(std::span<const std::uint64_t> flow_hashes);

  /// Backend mode, caller thread only: retire the workers' completions
  /// (callbacks, stage attribution, slot recycling) and egress their
  /// frames back through the backend, then rx/admit up to cfg.burst_size
  /// new frames. Returns the number admitted this call. Frames the slot
  /// pool or a path ring could not absorb are returned to their packet
  /// pool and counted in rejected().
  std::size_t pump();

  /// Retired frames the backend has not yet taken (backend mode). Zero
  /// once pump() has been called after quiesce.
  std::size_t egress_backlog() const noexcept { return tx_pending_.size(); }

  /// Wait until everything in flight has drained, then stop all threads.
  /// In backend mode the caller retires what the workers finished last
  /// and makes one final tx pass.
  void stop();

  std::uint64_t completed() const noexcept {
    return completed_.load(std::memory_order_relaxed);
  }
  std::uint64_t submitted() const noexcept { return submitted_; }
  std::uint64_t rejected() const noexcept { return rejected_; }
  /// Packets accepted but not yet retired. Exact once quiesced (after
  /// stop()); approximate while threads run. Zero at quiesce is the
  /// counter-equivalence invariant the burst path is validated against.
  std::uint64_t inflight() const noexcept {
    return submitted_ - completed_.load(std::memory_order_relaxed);
  }
  std::size_t burst_size() const noexcept { return cfg_.burst_size; }
  std::size_t num_paths() const noexcept { return cfg_.num_paths; }
  std::uint64_t per_path_count(std::size_t p) const noexcept {
    return path_counts_[p];
  }

  // --- control-plane actuation hooks (caller thread, like pump()) ----------
  /// Mask/unmask path `p` in the dispatch candidate set. Takes effect on
  /// the next dispatch; packets already on the path's ring complete
  /// normally. If every path ends up inadmissible, dispatch falls back to
  /// the full path set rather than blackholing traffic.
  void set_path_admission(std::size_t p, PathAdmission a) {
    admission_.set(p, a);
    if (ingress_chan_)
      ingress_chan_->emit(now_ns(), telem::EventType::kAdmissionFlip,
                          static_cast<std::uint16_t>(p),
                          static_cast<std::uint32_t>(a), 0);
  }
  PathAdmission path_admission(std::size_t p) const noexcept {
    return admission_.level(p);
  }
  /// Allow `n` more packets onto a kProbeOnly path (probation probes).
  /// Credits are consumed one per dispatched packet; no-op effect while
  /// the path is kEnabled.
  void grant_probe_credits(std::size_t p, std::uint64_t n) {
    admission_.grant(p, n);
  }
  std::uint64_t probe_credits(std::size_t p) const noexcept {
    return admission_.credits(p);
  }
  /// Packets dispatched to `p` and not yet retired. Caller-thread
  /// dispatch count minus the atomic per-path retirement count (written
  /// by the collector in synthetic mode, by pump() in backend mode):
  /// exact at quiesce, a live estimate (never negative-wrapped below 0 in
  /// practice: completions only trail dispatches) while running.
  std::uint64_t path_inflight(std::size_t p) const noexcept {
    const std::uint64_t done =
        path_completed_[p].v.load(std::memory_order_acquire);
    const std::uint64_t sent = path_counts_[p];
    return sent > done ? sent - done : 0;
  }

  // Stage attribution (valid when cfg.record_stage_hist; read after
  // stop() — histograms and exemplars are written by the retiring
  // thread).
  /// Ingress enqueue -> worker burst pop (path ring wait).
  const stats::LatencyHistogram& queue_wait_hist() const noexcept {
    return queue_wait_hist_;
  }
  /// Attributed per-packet service: the burst's service span divided by
  /// the burst population, so a tail packet no longer claims its whole
  /// burst's span (ROADMAP "batch-aware exemplars").
  const stats::LatencyHistogram& service_hist() const noexcept {
    return service_hist_;
  }
  /// Burst work done -> retirement burst pop (completion ring wait; in
  /// backend mode that includes the wait for the caller's next pump()).
  const stats::LatencyHistogram& merge_wait_hist() const noexcept {
    return merge_wait_hist_;
  }
  /// Burst-aware tail exemplars: each carries burst_size, burst_pos and
  /// the raw (whole-burst) service span, so attributed_service_ns() stays
  /// honest at burst_size > 1.
  const trace::ExemplarReservoir& exemplars() const noexcept {
    return exemplars_;
  }

 private:
  struct Slot {
    std::uint64_t enqueue_ns = 0;
    std::uint64_t dequeue_ns = 0;  ///< worker burst pop (stage attribution)
    std::uint64_t done_ns = 0;     ///< burst work complete (stage attribution)
    std::uint16_t path = 0;
    std::uint32_t payload_seed = 0;
    net::Packet* pkt = nullptr;    ///< backend mode: the frame in flight
    std::uint64_t seq = 0;         ///< frame anno (exemplar metadata)
    std::uint32_t flow_id = 0;
    std::uint16_t burst_n = 1;     ///< service-burst population
    std::uint16_t burst_pos = 0;   ///< this packet's position in it
  };

  enum class Policy : std::uint8_t { kJsq, kRoundRobin, kHash };

  /// Shared dispatch tail of ingress, ingress_burst and pump: place `n`
  /// slots (enqueue_ns/payload/pkt already filled) by policy over the
  /// admissible paths, bulk-push per path, recycle what didn't fit
  /// (frames back to their pool, slots to the free ring). Returns accepted.
  std::size_t dispatch_slots(Slot* const* slots, const std::uint64_t* hashes,
                             std::size_t n);
  void reject_slot(Slot* slot);
  void worker_loop(std::size_t path);
  void collector_loop();
  /// Per-burst completion bookkeeping, the one routine both modes retire
  /// through: one clock read, stage histograms, exemplars, span observer,
  /// on_complete_, per-path and total completion counts, one kEgressBurst
  /// event; frames (backend mode only) get their path stamped and move to
  /// tx_pending_; every slot goes back to the free ring.
  void retire_burst(Slot** burst, std::size_t n);
  /// Retire everything on done_ring_ in bursts; returns how many
  /// completions it retired. Run by the collector loop in synthetic mode,
  /// by pump() and stop() on the caller thread in backend mode.
  std::size_t drain_completions();
  static std::uint64_t now_ns();

  ThreadedConfig cfg_;
  Completion on_complete_;
  std::vector<std::unique_ptr<ring::SpscRing<Slot*>>> path_rings_;
  /// Worker -> retiring thread. Holds every slot (capacity >= pool_size),
  /// so a worker push never fails for good: in backend mode stop() joins
  /// the workers before it drains the ring.
  std::unique_ptr<ring::MpmcRing<Slot*>> done_ring_;
  std::unique_ptr<ring::MpmcRing<Slot*>> free_ring_;
  std::vector<net::PacketPtr> tx_pending_;  ///< frames awaiting backend tx
  std::vector<Slot> slots_;
  std::vector<std::uint8_t> work_buf_;
  std::vector<std::thread> workers_;
  std::thread collector_;  ///< synthetic mode only
  std::atomic<bool> stopping_{false};
  std::atomic<bool> workers_done_{false};
  std::atomic<std::uint64_t> completed_{0};
  std::uint64_t submitted_ = 0;
  std::uint64_t rejected_ = 0;
  Policy policy_ = Policy::kJsq;
  std::size_t rr_next_ = 0;
  std::vector<std::uint64_t> path_counts_;
  // Control-plane state (caller thread only, mutated between bursts like
  // every other dispatch input) + the retiring thread's per-path
  // completion counters that path_inflight() diffs against. The completion
  // counters are padded one-per-line: retirement bumps neighboring paths'
  // counters back to back, and unpadded they'd share a line with each
  // other (and, in synthetic mode, the caller's reads) — the tab4
  // padded-vs-packed rows measure exactly this layout.
  AdmissionSet admission_;
  std::unique_ptr<stats::PaddedAtomicU64[]> path_completed_;
  // Flight-recorder channels (nullptr when cfg.recorder is unset):
  // ingress_chan_ is caller-thread only, egress_chan_ retiring-thread only
  // — one writer per channel, as the recorder requires.
  telem::FlightRecorder::Channel* ingress_chan_ = nullptr;
  telem::FlightRecorder::Channel* egress_chan_ = nullptr;
  // ingress_burst/pump scratch (caller thread only): per-path staging and
  // the JSQ occupancy snapshot, allocated once.
  std::vector<std::vector<Slot*>> stage_;
  std::vector<std::size_t> jsq_depths_;
  stats::LatencyHistogram queue_wait_hist_;
  stats::LatencyHistogram service_hist_;
  stats::LatencyHistogram merge_wait_hist_;
  trace::ExemplarReservoir exemplars_;  ///< retiring thread only
  SpanObserver span_observer_;  ///< set before start(); retirement calls
};

}  // namespace mdp::core

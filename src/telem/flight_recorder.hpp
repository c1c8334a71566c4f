// FlightRecorder: the always-on event plane — bounded, lock-free,
// overwrite-oldest rings of fixed-size binary events, one ring per
// writer, merged on demand into a single time-ordered JSON timeline.
//
// Design constraints, in order:
//   1. emit() must be cheap enough to leave on in the hot path (the
//      ext2 telem-on/off perf rows gate this): one enabled check, one
//      relaxed epoch fetch_add, one version exchange and five stores
//      into a preallocated slot. No allocation, no locks, no branches on
//      contention — each Channel has exactly one writer (SPSC toward the
//      dump side), so there is nothing to contend on.
//   2. dump must be safe while writers run. Every slot is a seqlock: the
//      writer publishes odd-version / words / even-version (fence-free —
//      ordering rides on the version word itself, see emit()), the
//      reader rejects any slot whose version moved or is odd. All slot
//      accesses are atomic, so a concurrent dump is TSan-clean by
//      construction and simply skips events that were mid-overwrite.
//   3. dumps must be a deterministic artifact. Timestamps are CALLER
//      time (the sim/rig logical clock or wall clock — the recorder
//      never reads a clock itself), and ties are broken by a per-
//      recorder epoch counter stamped at emit. A single-threaded
//      deterministic harness (tests/chaos_harness.hpp) therefore gets
//      byte-identical dumps for the same seed, which is what lets a
//      failed CI seed be diagnosed from the attached timeline alone.
//
// Memory model: channels are created up front (channel() is mutex-
// guarded and NOT for the hot path); each holds events_per_channel
// (rounded up to a power of two) slots of five 8-byte atomics. The
// recorder never grows after that — total footprint is
// channels * slots * 40 bytes, reported by memory_bytes().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mdp::telem {

/// Fixed event vocabulary. The binary form stores the enum; dump_json
/// renders event_type_name(). Extend at the end (codes are part of the
/// mdp.flight_recorder.v1 schema, see docs/OBSERVABILITY.md).
enum class EventType : std::uint8_t {
  kIngressBurst = 0,   ///< a burst admitted into the plane (a = count)
  kEgressBurst,        ///< a burst collected/egressed (a = count)
  kHedgeFire,          ///< a hedge copy launched (path = alt, b = key)
  kDedupDrop,          ///< a duplicate dropped at merge (b = key)
  kReorderRelease,     ///< resequencer released a packet (b = flow|seq)
  kCtrlDecision,       ///< controller logged a decision (a = reason code)
  kFaultInject,        ///< a fault lane armed (a=1) or cleared (a=0)
  kAdmissionFlip,      ///< path admission changed (a = new PathAdmission)
  kUser,               ///< free-form, caller-defined payload
  kCount,
};

inline const char* event_type_name(EventType t) noexcept {
  switch (t) {
    case EventType::kIngressBurst: return "ingress_burst";
    case EventType::kEgressBurst: return "egress_burst";
    case EventType::kHedgeFire: return "hedge_fire";
    case EventType::kDedupDrop: return "dedup_drop";
    case EventType::kReorderRelease: return "reorder_release";
    case EventType::kCtrlDecision: return "ctrl_decision";
    case EventType::kFaultInject: return "fault_inject";
    case EventType::kAdmissionFlip: return "admission_flip";
    case EventType::kUser: return "user";
    case EventType::kCount: break;
  }
  return "?";
}

/// `path` value for events that describe the whole plane, not one path.
inline constexpr std::uint16_t kAllPaths = 0xffff;

/// One decoded event, as returned by collect(). 32 bytes on the wire
/// (ts, epoch, packed type/path/a, b) plus the channel it came from.
struct Event {
  std::uint64_t ts_ns = 0;   ///< caller-supplied logical/wall timestamp
  std::uint64_t seq = 0;     ///< recorder-wide emit order (merge tiebreak)
  EventType type = EventType::kUser;
  std::uint16_t path = 0;
  std::uint32_t a = 0;       ///< small payload: count / code / flag
  std::uint64_t b = 0;       ///< large payload: key / total / latency
  std::uint32_t channel = 0; ///< index into channel_names()
};

class FlightRecorder {
 public:
  struct Config {
    /// Slots per channel, rounded up to a power of two. Oldest events
    /// are overwritten once a channel wraps.
    std::size_t events_per_channel = 4096;
    /// Channels creatable before channel() starts returning nullptr.
    std::size_t max_channels = 16;
    bool enabled = true;
  };

  /// One writer's ring. Single writer per channel; emit() is wait-free.
  class Channel {
   public:
    /// Record one event. `ts_ns` is caller time — pass the same clock
    /// the rest of the run uses (sim time, rig iteration time, wall
    /// time) so the merged timeline is coherent.
    void emit(std::uint64_t ts_ns, EventType type, std::uint16_t path,
              std::uint32_t a, std::uint64_t b) noexcept {
      if (!owner_->enabled_.load(std::memory_order_relaxed)) return;
      const std::uint64_t seq =
          owner_->epoch_.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t h = head_.load(std::memory_order_relaxed);
      Slot& s = slots_[h & mask_];
      // Seqlock writer, fence-free (GCC's TSan has no model for
      // atomic_thread_fence and rejects it under -Werror): the odd
      // marker is an acq_rel RMW whose acquire side keeps the word
      // stores below it, and the even marker is a release store that
      // keeps them above it — a reader that sees the exact even version
      // on both sides of its word loads therefore saw every word.
      s.ver.exchange(2 * h + 1, std::memory_order_acq_rel);
      s.ts.store(ts_ns, std::memory_order_relaxed);
      s.seq.store(seq, std::memory_order_relaxed);
      s.meta.store(pack_meta(type, path, a), std::memory_order_relaxed);
      s.b.store(b, std::memory_order_relaxed);
      s.ver.store(2 * h + 2, std::memory_order_release);
      head_.store(h + 1, std::memory_order_release);
    }

    const std::string& name() const noexcept { return name_; }
    std::size_t capacity() const noexcept { return mask_ + 1; }
    /// Events ever emitted on this channel (monotonic; the ring retains
    /// only the last capacity() of them).
    std::uint64_t emitted() const noexcept {
      return head_.load(std::memory_order_acquire);
    }

   private:
    friend class FlightRecorder;

    struct Slot {
      std::atomic<std::uint64_t> ver{0};  ///< 0 = never written
      std::atomic<std::uint64_t> ts{0};
      std::atomic<std::uint64_t> seq{0};
      std::atomic<std::uint64_t> meta{0};
      std::atomic<std::uint64_t> b{0};
    };

    Channel(FlightRecorder* owner, std::string name, std::size_t capacity)
        : owner_(owner),
          name_(std::move(name)),
          mask_(capacity - 1),
          slots_(std::make_unique<Slot[]>(capacity)) {}

    static std::uint64_t pack_meta(EventType type, std::uint16_t path,
                                   std::uint32_t a) noexcept {
      return static_cast<std::uint64_t>(static_cast<std::uint8_t>(type)) |
             (static_cast<std::uint64_t>(path) << 8) |
             (static_cast<std::uint64_t>(a) << 32);
    }

    FlightRecorder* owner_;
    std::string name_;
    std::size_t mask_;
    std::unique_ptr<Slot[]> slots_;
    std::atomic<std::uint64_t> head_{0};
  };

  FlightRecorder() : FlightRecorder(Config{}) {}
  explicit FlightRecorder(Config cfg);

  /// Get-or-create the named channel. Mutex-guarded registration (cold
  /// path: call at setup, keep the pointer). Returns nullptr once
  /// max_channels is reached; the pointer stays valid for the
  /// recorder's lifetime.
  Channel* channel(std::string_view name);

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Events ever emitted across all channels (= the epoch clock).
  std::uint64_t total_emitted() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }

  std::vector<std::string> channel_names() const;
  std::size_t memory_bytes() const;

  /// Decode and merge every channel's retained events into one list
  /// ordered by (ts_ns, seq). `window_ns` > 0 keeps only events within
  /// that span of the newest retained timestamp ("the last N ms").
  /// Safe to call while writers emit; slots mid-overwrite are skipped.
  std::vector<Event> collect(std::uint64_t window_ns = 0) const;

  /// The merged timeline as `mdp.flight_recorder.v1` JSON (schema in
  /// docs/OBSERVABILITY.md). Deterministic for deterministic inputs.
  std::string dump_json(std::uint64_t window_ns = 0) const;

 private:
  Config cfg_;
  std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> epoch_{0};
  mutable std::mutex reg_mu_;
  std::vector<std::unique_ptr<Channel>> channels_;
};

}  // namespace mdp::telem

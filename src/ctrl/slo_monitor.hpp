// SloMonitor: the control plane's observation stage — per-path latency
// windows the Controller harvests once per tick.
//
// Design constraints, in order:
//   1. observe() must be callable from ANY thread (in synthetic mode the
//      threaded plane's collector calls it from its Completion callback
//      while the caller thread ticks the controller; in backend mode
//      pump() calls it on the caller thread), so ingestion is lock-free:
//      per-path arrays of relaxed atomic counters plus a log2 sub-bucketed
//      window histogram. No shared non-atomic state, no locks — TSan-clean by
//      construction.
//   2. harvest() drains a path's window (exchange-to-zero per bucket) and
//      returns the interval summary: sample count, SLO violations, p99
//      derived from the bucket CDF. The window between two ticks IS the
//      controller's evidence; nothing accumulates across ticks except the
//      lifetime counters exposed via register_stats().
//   3. Units are caller-defined. The simulated plane feeds virtual
//      nanoseconds; the loopback test rig feeds wire-tick lag scaled to a
//      pseudo-ns unit. The monitor only compares against slo_target_ns in
//      the same unit, which is what keeps the end-to-end controller test
//      deterministic (no wall-clock in the loop).
//
// Bucketing: value -> (exponent, 2 sub-bits) like stats::LatencyHistogram
// but with atomic slots and a fixed footprint (kBuckets * 8 bytes per
// path). p99 resolution is ~25% of the value, plenty to decide "tail is
// 8x the SLO" vs "tail is fine".
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "stats/cacheline.hpp"
#include "trace/registry.hpp"
#include "trace/span.hpp"

namespace mdp::ctrl {

// Window-bucket geometry, at namespace level so WindowStats can carry the
// harvested counts and interpolate quantiles without reaching back into
// the monitor (the forecast estimator consumes WindowStats by value).
inline constexpr std::size_t kSloSubBits = 2;  // 4 sub-buckets per octave
inline constexpr std::size_t kSloBuckets = 64 << kSloSubBits;

/// Same shape as stats::LatencyHistogram: values below 2^kSloSubBits map
/// linearly, everything else by (octave, top kSloSubBits mantissa bits).
constexpr std::size_t slo_bucket_index(std::uint64_t v) noexcept {
  if (v < (1u << kSloSubBits)) return static_cast<std::size_t>(v);
  const int msb = 63 - std::countl_zero(v);
  const std::size_t sub =
      static_cast<std::size_t>(v >> (msb - static_cast<int>(kSloSubBits))) &
      ((1u << kSloSubBits) - 1);
  const std::size_t idx = (static_cast<std::size_t>(msb) << kSloSubBits) + sub;
  return idx < kSloBuckets ? idx : kSloBuckets - 1;
}

/// Upper edge of bucket `idx`: (1 + (sub+1)/4) * 2^msb - 1, saturating to
/// UINT64_MAX once the octave would overflow.
constexpr std::uint64_t slo_bucket_upper_edge(std::size_t idx) noexcept {
  if (idx < (1u << kSloSubBits)) return idx;
  const std::size_t msb = idx >> kSloSubBits;
  const std::size_t sub = idx & ((1u << kSloSubBits) - 1);
  if (msb >= 62) return UINT64_MAX;
  const std::uint64_t base = 1ull << msb;
  return base + ((base >> kSloSubBits) * (sub + 1)) - 1;
}

/// Smallest value that lands in bucket `idx`.
constexpr std::uint64_t slo_bucket_lower_edge(std::size_t idx) noexcept {
  return idx ? slo_bucket_upper_edge(idx - 1) + 1 : 0;
}

/// One harvested observation window for one path.
struct WindowStats {
  std::uint64_t samples = 0;
  std::uint64_t violations = 0;  ///< observations above the SLO target
  std::uint64_t sum_ns = 0;
  std::uint64_t p50_ns = 0;      ///< bucket-quantized window median
  std::uint64_t p99_ns = 0;      ///< bucket-quantized window p99
  std::uint64_t p999_ns = 0;     ///< bucket-quantized window p99.9
  std::uint64_t max_ns = 0;      ///< upper edge of the top non-empty bucket
  /// Per-stage latency mass observed this window (observe_span feeders
  /// only; all-zero when the plane feeds plain scalar latencies). Indexed
  /// by trace::stage_at(i).
  std::array<std::uint64_t, trace::kNumStages> stage_sum_ns{};
  /// The drained window histogram itself (slo_bucket_index geometry), so
  /// consumers can derive quantiles the summary fields don't carry.
  std::array<std::uint64_t, kSloBuckets> bucket_counts{};

  /// Bucket-interpolated quantile, q in [0, 1]. Unlike the quantized
  /// p50/p99/p999 fields (upper edge of the crossing bucket — kept
  /// byte-identical for every existing consumer), this interpolates the
  /// rank's position linearly WITHIN the crossing bucket, which is what a
  /// differentiating consumer (the forecast trend term) needs: a staircase
  /// input turns a smooth ramp into slope noise. Pinned edge behavior:
  /// empty window -> 0; the rank's position within a bucket of count c is
  /// (rank - seen)/c of the span, so a single-sample window returns the
  /// bucket's upper edge; a saturated top octave (upper edge UINT64_MAX)
  /// returns UINT64_MAX rather than pretending sub-bucket resolution.
  std::uint64_t quantile_ns(double q) const noexcept {
    if (samples == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const double exact = q * static_cast<double>(samples);
    std::uint64_t rank = static_cast<std::uint64_t>(exact);
    if (static_cast<double>(rank) < exact) ++rank;  // ceil
    if (rank == 0) rank = 1;
    if (rank > samples) rank = samples;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kSloBuckets; ++i) {
      const std::uint64_t c = bucket_counts[i];
      if (!c) continue;
      if (seen + c >= rank) {
        const std::uint64_t upper = slo_bucket_upper_edge(i);
        if (upper == UINT64_MAX) return upper;
        const std::uint64_t lower = slo_bucket_lower_edge(i);
        const double frac = static_cast<double>(rank - seen) /
                            static_cast<double>(c);
        return lower + static_cast<std::uint64_t>(
                           static_cast<double>(upper - lower) * frac);
      }
      seen += c;
    }
    return max_ns;  // unreachable with consistent counts
  }

  double violation_fraction() const noexcept {
    return samples ? static_cast<double>(violations) /
                         static_cast<double>(samples)
                   : 0.0;
  }

  /// True when this window carries stage-attributed evidence.
  bool has_stage_evidence() const noexcept {
    for (std::uint64_t s : stage_sum_ns)
      if (s) return true;
    return false;
  }

  /// The stage carrying the most latency mass this window (ties break to
  /// the earliest pipeline stage). Only meaningful with stage evidence.
  trace::Stage dominant_stage() const noexcept {
    std::size_t best = 0;
    for (std::size_t i = 1; i < trace::kNumStages; ++i)
      if (stage_sum_ns[i] > stage_sum_ns[best]) best = i;
    return trace::stage_at(best);
  }

  std::uint64_t dominant_stage_ns() const noexcept {
    return stage_sum_ns[static_cast<std::size_t>(dominant_stage())];
  }

  /// Fraction of the window's total stage mass in the dominant stage.
  double dominant_share() const noexcept {
    std::uint64_t total = 0;
    for (std::uint64_t s : stage_sum_ns) total += s;
    return total ? static_cast<double>(dominant_stage_ns()) /
                       static_cast<double>(total)
                 : 0.0;
  }
};

class SloMonitor {
 public:
  static constexpr std::size_t kSubBits = kSloSubBits;
  static constexpr std::size_t kBuckets = kSloBuckets;

  SloMonitor(std::size_t num_paths, std::uint64_t slo_target_ns);

  /// Record one completed-packet latency on `path`. Thread-safe, lock-free,
  /// relaxed atomics only; safe to call concurrently with harvest().
  void observe(std::uint16_t path, std::uint64_t latency_ns) noexcept;

  /// Record one completed packet WITH stage attribution: the span's e2e
  /// latency lands in the scalar window (exactly like observe()) and each
  /// stage's duration is added to the path's per-stage sums, so harvest()
  /// can say not just THAT the window breached but WHERE the time went
  /// (queue wait vs service vs reorder). Same thread-safety contract as
  /// observe(): relaxed atomics only, safe against a concurrent harvest().
  void observe_span(std::uint16_t path,
                    const trace::SpanRecord& span) noexcept;

  /// Drain `path`'s window and return its summary. Controller thread only
  /// (one harvester); concurrent observe() calls land in this window or
  /// the next, never lost.
  WindowStats harvest(std::size_t path) noexcept;

  std::uint64_t slo_target_ns() const noexcept { return slo_target_ns_; }
  /// Runtime-adjustable knob: applies to observations from now on.
  void set_slo_target_ns(std::uint64_t t) noexcept {
    slo_target_ns_.store(t, std::memory_order_relaxed);
  }

  /// Per-slot SLO target override (0 = use the global target). This is
  /// how one monitor carries heterogeneous objectives — per-tenant SLO
  /// classes share one monitor with one slot per tenant
  /// (docs/TENANCY.md). Relaxed atomic; applies from the next observation.
  void set_slot_target_ns(std::size_t slot, std::uint64_t t) noexcept {
    if (slot < paths_.size())
      paths_[slot]->slot_target.store(t, std::memory_order_relaxed);
  }
  std::uint64_t slot_target_ns(std::size_t slot) const noexcept {
    if (slot >= paths_.size()) return 0;
    const std::uint64_t t =
        paths_[slot]->slot_target.load(std::memory_order_relaxed);
    return t ? t : slo_target_ns_.load(std::memory_order_relaxed);
  }

  std::size_t num_paths() const noexcept { return paths_.size(); }

  // Lifetime totals (monotonic, across all harvested windows).
  std::uint64_t total_observed() const noexcept;
  std::uint64_t total_violations() const noexcept;

  /// Expose lifetime totals as `slo.*`. The monitor must outlive any
  /// snapshot taken from `reg`.
  void register_stats(trace::StatsRegistry& reg) const;

 private:
  // Hot-write layout (stats::kCacheLineSize, a fixed 64): the scalar window
  // accumulators the observer thread hits on EVERY observation (sum /
  // violations), the per-stage sums (every observe_span), and the
  // lifetime counters each get their own interference line, so the
  // harvester's exchange-to-zero on one group never steals the line the
  // observer is pounding in another — and adjacent heap-allocated
  // PathWindows can't share a boundary line either. tab4's
  // padded-vs-packed rows quantify what this buys.
  struct alignas(stats::kCacheLineSize) PathWindow {
    std::atomic<std::uint64_t> buckets[kBuckets];
    alignas(stats::kCacheLineSize) std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> violations{0};
    alignas(stats::kCacheLineSize)
        std::atomic<std::uint64_t> stage_sum[trace::kNumStages];
    alignas(stats::kCacheLineSize)
        std::atomic<std::uint64_t> lifetime_samples{0};
    std::atomic<std::uint64_t> lifetime_violations{0};
    /// Per-slot SLO override; 0 = inherit the monitor-wide target.
    std::atomic<std::uint64_t> slot_target{0};
  };

  std::atomic<std::uint64_t> slo_target_ns_;
  std::vector<std::unique_ptr<PathWindow>> paths_;
};

}  // namespace mdp::ctrl

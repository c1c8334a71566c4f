// Cache-line geometry for hot-path data layout.
//
// kCacheLineSize is a fixed 64 bytes, the x86-64 / ARM64 line: the span
// two threads must not share without paying coherence traffic. It is not
// std::hardware_destructive_interference_size, whose value follows
// -mtune, so a header padded with it could lay out differently in two
// builds of the same source (GCC warns with -Winterference-size).
// PaddedAtomicU64 places one counter per line so adjacent per-path
// counters written by different threads (the threaded plane's per-path
// completion counts, the monitor's window accumulators) never false-share
// — the ROADMAP false-sharing item, quantified by tab4's padded-vs-packed
// rows.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace mdp::stats {

inline constexpr std::size_t kCacheLineSize = 64;

/// One 64-bit atomic counter alone on its destructive-interference line.
/// Drop-in for arrays of adjacent hot counters written from different
/// threads; costs kCacheLineSize bytes per counter instead of 8.
struct alignas(kCacheLineSize) PaddedAtomicU64 {
  std::atomic<std::uint64_t> v{0};
};

static_assert(sizeof(PaddedAtomicU64) == kCacheLineSize,
              "padding must cover exactly one interference line");
static_assert(alignof(PaddedAtomicU64) == kCacheLineSize,
              "each counter must start on its own line");

}  // namespace mdp::stats

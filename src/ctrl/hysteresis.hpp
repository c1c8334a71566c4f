// Hysteresis: the one consecutive-window discipline every control loop
// shares, so a lever ratchets instead of flapping on one noisy window.
//
//   Hysteresis  counts consecutive up windows and consecutive down
//               windows. A hold (or no-signal) window clears both counts;
//               a move clears them and arms the cooldown, during which no
//               direction reads as sustained.
//   Band        turns one window's (worst p99, samples, SLO) into up /
//               down / hold: inflation = p99 / SLO above raise_threshold
//               is up, below lower_threshold is down, anything between —
//               or a window thinner than min_samples — is hold.
//
// Callers: the replication factor (AdaptiveHedger) judges the Band; the
// path FSM
// counts breaching windows toward quarantine; the tenant FSM counts
// storming and calm windows. What a sustained direction means, and whether
// a move is possible at all, stays with the caller, which calls moved()
// only when it actually moved.
#pragma once

#include <cstdint>

namespace mdp::ctrl {

enum class Direction : std::uint8_t { kHold = 0, kUp, kDown };

class Hysteresis {
 public:
  explicit Hysteresis(int cooldown_ticks = 0) noexcept
      : cooldown_ticks_(cooldown_ticks > 0 ? cooldown_ticks : 0) {}

  /// Count one window (and tick the cooldown down).
  void observe(Direction d) noexcept {
    if (cooldown_ > 0) --cooldown_;
    up_ = d == Direction::kUp ? up_ + 1 : 0;
    down_ = d == Direction::kDown ? down_ + 1 : 0;
  }

  /// True once max(n, 1) consecutive windows pointed `d` and no cooldown
  /// runs.
  bool sustained(Direction d, std::uint64_t n) const noexcept {
    const std::uint64_t streak =
        d == Direction::kUp ? up_ : d == Direction::kDown ? down_ : 0;
    return cooldown_ == 0 && streak > 0 && streak >= n;
  }

  /// The caller moved its lever: start both counts over, arm the cooldown.
  void moved() noexcept {
    up_ = 0;
    down_ = 0;
    cooldown_ = cooldown_ticks_;
  }

  bool cooling() const noexcept { return cooldown_ > 0; }
  std::uint64_t up_streak() const noexcept { return up_; }
  std::uint64_t down_streak() const noexcept { return down_; }

 private:
  int cooldown_ticks_;
  int cooldown_ = 0;
  std::uint64_t up_ = 0;
  std::uint64_t down_ = 0;
};

/// The band both replication levers judge their window against.
struct Band {
  /// Up when p99 exceeds raise_threshold x SLO target.
  double raise_threshold = 1.0;
  /// Down when p99 falls below lower_threshold x SLO target.
  double lower_threshold = 0.5;
  /// Consecutive qualifying windows before a move (0 acts as 1).
  std::uint32_t sustain_ticks = 2;
  /// Windows after a move during which no further move happens.
  int cooldown_ticks = 4;
  /// Windows smaller than this carry no signal (judged hold).
  std::uint64_t min_samples = 32;

  Direction judge(std::uint64_t worst_p99_ns, std::uint64_t samples,
                  std::uint64_t slo_target_ns) const noexcept {
    if (samples < min_samples) return Direction::kHold;
    const double inflation = static_cast<double>(worst_p99_ns) /
                             static_cast<double>(slo_target_ns);
    if (inflation > raise_threshold) return Direction::kUp;
    if (inflation < lower_threshold) return Direction::kDown;
    return Direction::kHold;
  }
};

}  // namespace mdp::ctrl

// PathStateMachine: the per-path decision kernel of the control plane.
//
//   ACTIVE ──(quarantine_after consecutive breaching ticks)──> QUARANTINED
//   QUARANTINED ──(next tick; stop feeding the path)──────────> DRAINING
//   DRAINING ──(backlog hits zero)─────────────────────────────> REINSTATED
//   REINSTATED ──(probation_probes clean probe observations)──> ACTIVE
//   REINSTATED ──(any breach while on probation)──────────────> QUARANTINED
//
// Hysteresis lives here: the ACTIVE breach streak is a ctrl::Hysteresis,
// so a single breaching window can never quarantine a path
// (quarantine_after >= 2 by validation), and a reinstated path must
// prove itself over a whole probation window before it takes real traffic
// again — so a path cannot flap on alternating good/bad samples. The
// machine is pure (no clocks, no actuators): the Controller feeds it one
// TickInput per tick and actuates on the transitions it reports.
#pragma once

#include <cstdint>

#include "ctrl/hysteresis.hpp"

namespace mdp::ctrl {

enum class PathState : std::uint8_t {
  kActive = 0,       ///< serving traffic, SLO window watched
  kQuarantined,      ///< breach confirmed; masked from the candidate set
  kDraining,         ///< masked; waiting for in-flight work to reach zero
  kReinstated,       ///< probe-only probation before rejoining ACTIVE
};

const char* path_state_name(PathState s) noexcept;

struct PathStateConfig {
  /// Consecutive breaching ticks before ACTIVE -> QUARANTINED. Clamped to
  /// >= 2: one window is a spike, not a trend.
  int quarantine_after = 2;
  /// Clean probe observations required to graduate probation.
  std::uint64_t probation_probes = 16;
};

/// Everything the controller learned about one path this tick.
struct TickInput {
  bool breach = false;       ///< SLO window breached (needs has_signal)
  bool has_signal = false;   ///< window had enough samples to judge
  bool drained = false;      ///< no queued or in-flight work on the path
  std::uint64_t clean_probes = 0;     ///< this tick's in-SLO observations
  std::uint64_t violated_probes = 0;  ///< this tick's out-of-SLO ones
};

class PathStateMachine {
 public:
  explicit PathStateMachine(PathStateConfig cfg = {});

  /// Advance one tick. Returns true when the state changed.
  bool on_tick(const TickInput& in);

  PathState state() const noexcept { return state_; }
  std::uint64_t breach_streak() const noexcept { return breach_.up_streak(); }
  std::uint64_t probation_progress() const noexcept { return probation_; }

  std::uint64_t quarantines() const noexcept { return quarantines_; }
  std::uint64_t reinstatements() const noexcept { return reinstatements_; }

 private:
  PathStateConfig cfg_;
  PathState state_ = PathState::kActive;
  Hysteresis breach_;
  std::uint64_t probation_ = 0;
  std::uint64_t quarantines_ = 0;
  std::uint64_t reinstatements_ = 0;
};

}  // namespace mdp::ctrl

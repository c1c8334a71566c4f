#include "ctrl/path_state.hpp"

namespace mdp::ctrl {

const char* path_state_name(PathState s) noexcept {
  switch (s) {
    case PathState::kActive: return "active";
    case PathState::kQuarantined: return "quarantined";
    case PathState::kDraining: return "draining";
    case PathState::kReinstated: return "reinstated";
  }
  return "?";
}

PathStateMachine::PathStateMachine(PathStateConfig cfg) : cfg_(cfg) {
  if (cfg_.quarantine_after < 2) cfg_.quarantine_after = 2;
  if (cfg_.probation_probes == 0) cfg_.probation_probes = 1;
}

bool PathStateMachine::on_tick(const TickInput& in) {
  const PathState before = state_;
  switch (state_) {
    case PathState::kActive:
      // A tick without signal breaks the streak: consecutive means
      // consecutive *judged* windows, and silence is not evidence.
      breach_.observe(in.has_signal && in.breach ? Direction::kUp
                                                 : Direction::kHold);
      if (breach_.sustained(Direction::kUp, cfg_.quarantine_after)) {
        state_ = PathState::kQuarantined;
        ++quarantines_;
        breach_.moved();
      }
      break;

    case PathState::kQuarantined:
      // One full tick masked (new dispatches already stopped); start
      // draining what is still in flight.
      state_ = PathState::kDraining;
      break;

    case PathState::kDraining:
      if (in.drained) {
        state_ = PathState::kReinstated;
        probation_ = 0;
      }
      break;

    case PathState::kReinstated:
      if (in.violated_probes > 0) {
        // Probation failed: the path is still sick. Back to quarantine —
        // this is the anti-flap edge; it never rejoins ACTIVE directly.
        state_ = PathState::kQuarantined;
        ++quarantines_;
        probation_ = 0;
      } else {
        probation_ += in.clean_probes;
        if (probation_ >= cfg_.probation_probes) {
          state_ = PathState::kActive;
          ++reinstatements_;
          probation_ = 0;
        }
      }
      break;
  }
  return state_ != before;
}

}  // namespace mdp::ctrl

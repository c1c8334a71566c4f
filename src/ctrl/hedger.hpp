// AdaptiveHedger: closes the loop on the replication factor.
//
// RepNet's lesson (see PAPERS.md) is that replication must be selective —
// at low load an extra copy erases the tail for free, at high load the
// copies ARE the load and the whole curve collapses. The static choice
// (RedundantScheduler r=2/3, AdaptiveMdpConfig::replicate_k) bakes that
// trade-off in at startup; the hedger moves it at runtime from observed
// tail inflation vs the SLO target:
//
//   inflation = serving-path worst p99 / slo_target
//   inflation > band.raise_threshold  (sustained)  -> replicas + 1
//   inflation < band.lower_threshold  (sustained)  -> replicas - 1
//
// The band (ctrl/hysteresis.hpp) is ctrl::Config::band: the hedger runs a
// ctrl::Hysteresis over it, so it needs `sustain_ticks` consecutive
// out-of-band windows and honours a cooldown after every move. Pure
// decision logic; the Controller actuates the returned factor through
// Actuator::set_replicas().
#pragma once

#include <cstddef>
#include <cstdint>

#include "ctrl/hysteresis.hpp"

namespace mdp::ctrl {

struct HedgerConfig {
  bool enabled = true;
  std::size_t min_replicas = 1;
  std::size_t max_replicas = 3;
};

class AdaptiveHedger {
 public:
  explicit AdaptiveHedger(HedgerConfig cfg = {}, Band band = {});

  /// One controller tick: feed the worst serving-path p99 and the window's
  /// sample count; returns the (possibly updated) replication factor.
  std::size_t update(std::uint64_t worst_p99_ns, std::uint64_t samples,
                     std::uint64_t slo_target_ns);

  /// Forecast-driven raise (mdp::forecast pre-hedge): +1 replica within
  /// max_replicas on predicted — not yet measured — tail inflation. Starts
  /// the same cooldown a measured raise would, so the reactive loop can't
  /// immediately fight the pre-raise; honored cooldowns also mean a
  /// flapping forecast can't ratchet replicas faster than measurement
  /// could. Returns the (possibly unchanged) factor.
  std::size_t pre_raise() {
    if (!cfg_.enabled || hys_.cooling() || replicas_ >= cfg_.max_replicas)
      return replicas_;
    ++replicas_;
    ++pre_raises_;
    hys_.moved();
    return replicas_;
  }

  std::size_t replicas() const noexcept { return replicas_; }
  std::uint64_t raises() const noexcept { return raises_; }
  std::uint64_t lowers() const noexcept { return lowers_; }
  std::uint64_t pre_raises() const noexcept { return pre_raises_; }

 private:
  HedgerConfig cfg_;
  Band band_;
  Hysteresis hys_;
  std::size_t replicas_;
  std::uint64_t raises_ = 0;
  std::uint64_t lowers_ = 0;
  std::uint64_t pre_raises_ = 0;
};

// --- hedge-timeout control -------------------------------------------------------
//
// The replica count is the coarse lever; the hedge TIMEOUT is the fine
// one. Fire too early and every packet sends two copies (the load doubles,
// RepNet's failure mode); fire too late and the straggler has already
// blown the SLO before its second copy leaves. The controller below moves
// the deadline inside [floor, ceiling] where
//
//   floor   = max(p50, min_timeout_ns)   never hedge before the median —
//                                        half of all packets would hedge
//   ceiling = max_timeout_ns (or the SLO target when 0) — a hedge fired
//                                        at/after the deadline is useless
//
// by a PID loop on the normalized tail error e = (p99 - slo) / slo:
// positive error (tail past the SLO) pushes the deadline down toward the
// median so stragglers get rescued sooner; negative error relaxes it back
// toward the ceiling, shedding duplicate-send load. kp reacts to the
// current window, ki works off persistent offsets (a tail that sits just
// above the SLO for many windows keeps ratcheting the deadline down), kd
// damps reaction to one-window spikes. A deadband suppresses actuation
// for sub-noise changes so the scheduler knob isn't twitched every tick.

struct HedgeTimeoutConfig {
  bool enabled = false;
  std::uint64_t min_timeout_ns = 1'000;
  /// Deadline ceiling; 0 = the SLO target passed to update().
  std::uint64_t max_timeout_ns = 0;
  double kp = 0.5;
  double ki = 0.1;
  double kd = 0.0;
  /// |integral| clamp, in error units (anti-windup).
  double integral_limit = 4.0;
  /// Windows smaller than this carry no signal.
  std::uint64_t min_samples = 32;
  /// Relative deadline change below which no actuation happens.
  double deadband = 0.05;
};

class HedgeTimeoutController {
 public:
  explicit HedgeTimeoutController(HedgeTimeoutConfig cfg = {});

  /// One controller tick: feed the worst serving path's window median and
  /// p99. Returns the hedge deadline to actuate, or 0 while disabled /
  /// before the first adequate window (meaning: leave the scheduler's own
  /// budget in place).
  std::uint64_t update(std::uint64_t p50_ns, std::uint64_t p99_ns,
                       std::uint64_t samples, std::uint64_t slo_target_ns);

  /// The currently actuated deadline (0 = none yet).
  std::uint64_t timeout_ns() const noexcept { return timeout_ns_; }
  std::uint64_t adjustments() const noexcept { return adjustments_; }
  bool enabled() const noexcept { return cfg_.enabled; }

  /// Forecast-driven tightening (mdp::forecast pre-hedge): slide the
  /// deadline position toward the floor by `frac` of its current value
  /// ahead of any measured error. The move flows through the next
  /// update()'s normal deadband/actuation path — the PID stays the single
  /// writer of the actuated deadline, the forecast only biases it.
  void pre_tighten(double frac) {
    if (!cfg_.enabled) return;
    if (frac < 0.0) frac = 0.0;
    if (frac > 1.0) frac = 1.0;
    position_ *= 1.0 - frac;
  }

 private:
  HedgeTimeoutConfig cfg_;
  /// Normalized deadline position in [0, 1]: 0 = floor, 1 = ceiling.
  /// Starts at the ceiling (conservative: no hedging before evidence).
  double position_ = 1.0;
  double integral_ = 0.0;
  double prev_error_ = 0.0;
  bool primed_ = false;
  std::uint64_t timeout_ns_ = 0;
  std::uint64_t adjustments_ = 0;
};

}  // namespace mdp::ctrl

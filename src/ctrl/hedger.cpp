#include "ctrl/hedger.hpp"

#include <algorithm>
#include <cmath>

namespace mdp::ctrl {

AdaptiveHedger::AdaptiveHedger(HedgerConfig cfg, Band band)
    : cfg_(cfg), band_(band), hys_(band.cooldown_ticks) {
  if (cfg_.min_replicas == 0) cfg_.min_replicas = 1;
  if (cfg_.max_replicas < cfg_.min_replicas)
    cfg_.max_replicas = cfg_.min_replicas;
  replicas_ = cfg_.min_replicas;
}

std::size_t AdaptiveHedger::update(std::uint64_t worst_p99_ns,
                                   std::uint64_t samples,
                                   std::uint64_t slo_target_ns) {
  if (!cfg_.enabled || slo_target_ns == 0) return replicas_;
  hys_.observe(band_.judge(worst_p99_ns, samples, slo_target_ns));
  if (hys_.sustained(Direction::kUp, band_.sustain_ticks) &&
      replicas_ < cfg_.max_replicas) {
    ++replicas_;
    ++raises_;
    hys_.moved();
  } else if (hys_.sustained(Direction::kDown, band_.sustain_ticks) &&
             replicas_ > cfg_.min_replicas) {
    --replicas_;
    ++lowers_;
    hys_.moved();
  }
  return replicas_;
}

// --- HedgeTimeoutController -----------------------------------------------------

HedgeTimeoutController::HedgeTimeoutController(HedgeTimeoutConfig cfg)
    : cfg_(cfg) {
  if (cfg_.min_timeout_ns == 0) cfg_.min_timeout_ns = 1;
  if (cfg_.integral_limit < 0) cfg_.integral_limit = 0;
  if (cfg_.deadband < 0) cfg_.deadband = 0;
}

std::uint64_t HedgeTimeoutController::update(std::uint64_t p50_ns,
                                             std::uint64_t p99_ns,
                                             std::uint64_t samples,
                                             std::uint64_t slo_target_ns) {
  if (!cfg_.enabled || slo_target_ns == 0) return 0;
  if (samples < cfg_.min_samples) return timeout_ns_;  // hold, no signal

  const double error =
      (static_cast<double>(p99_ns) - static_cast<double>(slo_target_ns)) /
      static_cast<double>(slo_target_ns);
  integral_ = std::clamp(integral_ + error, -cfg_.integral_limit,
                         cfg_.integral_limit);
  const double derivative = primed_ ? error - prev_error_ : 0.0;
  prev_error_ = error;
  primed_ = true;

  // Positive output = tail too hot = slide the deadline toward the floor.
  const double output =
      cfg_.kp * error + cfg_.ki * integral_ + cfg_.kd * derivative;
  position_ = std::clamp(position_ - output, 0.0, 1.0);

  const std::uint64_t ceiling_raw =
      cfg_.max_timeout_ns ? cfg_.max_timeout_ns : slo_target_ns;
  const std::uint64_t floor_ns = std::max(p50_ns, cfg_.min_timeout_ns);
  const std::uint64_t ceiling_ns = std::max(ceiling_raw, floor_ns);
  const std::uint64_t candidate =
      floor_ns + static_cast<std::uint64_t>(
                     position_ * static_cast<double>(ceiling_ns - floor_ns));

  if (timeout_ns_ != 0) {
    // Deadband: don't twitch the scheduler for sub-noise moves.
    const double rel =
        std::abs(static_cast<double>(candidate) -
                 static_cast<double>(timeout_ns_)) /
        static_cast<double>(timeout_ns_);
    if (rel < cfg_.deadband) return timeout_ns_;
  }
  if (candidate != timeout_ns_) {
    timeout_ns_ = candidate;
    ++adjustments_;
  }
  return timeout_ns_;
}

}  // namespace mdp::ctrl

#include "ctrl/tenant.hpp"

namespace mdp::ctrl {

const char* tenant_state_name(TenantState s) noexcept {
  switch (s) {
    case TenantState::kAdmitted: return "ADMITTED";
    case TenantState::kThrottled: return "THROTTLED";
    case TenantState::kShed: return "SHED";
    case TenantState::kProbation: return "PROBATION";
  }
  return "?";
}

bool TenantStateMachine::on_window(bool storming) {
  streaks_.observe(storming ? Direction::kUp : Direction::kDown);
  const TenantState before = state_;
  switch (state_) {
    case TenantState::kAdmitted:
      if (streaks_.sustained(Direction::kUp, throttle_after_)) {
        move(TenantState::kThrottled);
        ++throttles_;
      }
      break;
    case TenantState::kThrottled:
      // Still storming through the throttle: escalate to a full shed.
      if (streaks_.sustained(Direction::kUp, shed_after_)) {
        move(TenantState::kShed);
        ++sheds_;
      } else if (streaks_.sustained(Direction::kDown, cooldown_windows_)) {
        move(TenantState::kAdmitted);
        ++reinstates_;
      }
      break;
    case TenantState::kShed:
      // Arrivals measure OFFERED load while shed (nothing is admitted),
      // so calm here means the storm source actually stopped.
      if (streaks_.sustained(Direction::kDown, cooldown_windows_))
        move(TenantState::kProbation);
      break;
    case TenantState::kProbation:
      // Probation has no hysteresis: one storming window re-sheds.
      if (storming) {
        move(TenantState::kShed);
        ++sheds_;
      } else if (streaks_.sustained(Direction::kDown, probation_windows_)) {
        move(TenantState::kAdmitted);
        ++reinstates_;
      }
      break;
  }
  return state_ != before;
}

TenantAdmission::TenantAdmission(TenantAdmissionConfig cfg)
    : cfg_(std::move(cfg)),
      mon_(cfg_.tenants.empty() ? 1 : cfg_.tenants.size(),
           cfg_.default_slo_target_ns) {
  if (cfg_.tenants.empty()) cfg_.tenants.emplace_back();
  for (auto& spec : cfg_.tenants)
    if (spec.throttle_keep_one_in < 2) spec.throttle_keep_one_in = 2;
  slots_.reserve(cfg_.tenants.size());
  for (std::size_t t = 0; t < cfg_.tenants.size(); ++t) {
    auto s = std::make_unique<Slot>();
    s->fsm = TenantStateMachine(cfg_.throttle_after, cfg_.shed_after,
                                cfg_.cooldown_windows,
                                cfg_.probation_windows);
    s->hedge_tokens.store(cfg_.tenants[t].hedge_budget_per_tick,
                          std::memory_order_relaxed);
    slots_.push_back(std::move(s));
    if (cfg_.tenants[t].slo_target_ns)
      mon_.set_slot_target_ns(t, cfg_.tenants[t].slo_target_ns);
  }
}

bool TenantAdmission::admit(std::uint16_t tenant) noexcept {
  if (tenant >= slots_.size()) return true;  // unknown tenants pass
  Slot& s = *slots_[tenant];
  s.arrivals.fetch_add(1, std::memory_order_relaxed);
  switch (static_cast<TenantState>(
      s.state.load(std::memory_order_relaxed))) {
    case TenantState::kAdmitted:
    case TenantState::kProbation:
      s.admitted.fetch_add(1, std::memory_order_relaxed);
      return true;
    case TenantState::kThrottled: {
      // Deterministic 1-in-N keep: the fetch_add sequences concurrent
      // callers, so exactly one of every N consecutive arrivals passes.
      const std::uint64_t seq =
          s.throttle_seq.fetch_add(1, std::memory_order_relaxed);
      if (seq % cfg_.tenants[tenant].throttle_keep_one_in == 0) {
        s.admitted.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      s.dropped.fetch_add(1, std::memory_order_relaxed);
      s.lifetime_dropped.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    case TenantState::kShed:
      s.dropped.fetch_add(1, std::memory_order_relaxed);
      s.lifetime_dropped.fetch_add(1, std::memory_order_relaxed);
      return false;
  }
  return true;
}

void TenantAdmission::on_flow_arrival(std::uint16_t tenant) noexcept {
  if (tenant >= slots_.size()) return;
  slots_[tenant]->flow_arrivals.fetch_add(1, std::memory_order_relaxed);
}

bool TenantAdmission::try_consume_hedge_token(
    std::uint16_t tenant) noexcept {
  if (tenant >= slots_.size()) return true;
  if (cfg_.tenants[tenant].hedge_budget_per_tick == 0) return true;
  Slot& s = *slots_[tenant];
  std::uint64_t have = s.hedge_tokens.load(std::memory_order_relaxed);
  while (have > 0) {
    if (s.hedge_tokens.compare_exchange_weak(have, have - 1,
                                             std::memory_order_relaxed))
      return true;
  }
  return false;
}

TenantState TenantAdmission::state(std::uint16_t tenant) const noexcept {
  if (tenant >= slots_.size()) return TenantState::kAdmitted;
  return static_cast<TenantState>(
      slots_[tenant]->state.load(std::memory_order_relaxed));
}

TenantAdmission::TickResult TenantAdmission::tick_tenant(
    std::size_t tenant) {
  TickResult r;
  if (tenant >= slots_.size()) return r;
  Slot& s = *slots_[tenant];
  const TenantSpec& spec = cfg_.tenants[tenant];

  r.arrivals = s.arrivals.exchange(0, std::memory_order_relaxed);
  r.admitted = s.admitted.exchange(0, std::memory_order_relaxed);
  r.dropped = s.dropped.exchange(0, std::memory_order_relaxed);
  r.flow_arrivals = s.flow_arrivals.exchange(0, std::memory_order_relaxed);
  s.hedge_tokens.store(spec.hedge_budget_per_tick,
                       std::memory_order_relaxed);
  r.slo = mon_.harvest(tenant);

  r.storming = spec.arrival_budget_per_tick > 0 &&
               r.arrivals > spec.arrival_budget_per_tick;
  r.before = s.fsm.state();
  r.changed = s.fsm.on_window(r.storming);
  r.after = s.fsm.state();
  if (r.changed) {
    s.state.store(static_cast<std::uint8_t>(r.after),
                  std::memory_order_relaxed);
    switch (r.after) {
      case TenantState::kThrottled: r.reason = "tenant_throttle"; break;
      case TenantState::kShed: r.reason = "tenant_shed"; break;
      case TenantState::kProbation: r.reason = "tenant_probation"; break;
      case TenantState::kAdmitted: r.reason = "tenant_reinstate"; break;
    }
  }
  return r;
}

std::uint64_t TenantAdmission::throttles() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : slots_) n += s->fsm.throttles();
  return n;
}

std::uint64_t TenantAdmission::sheds() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : slots_) n += s->fsm.sheds();
  return n;
}

std::uint64_t TenantAdmission::reinstates() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : slots_) n += s->fsm.reinstates();
  return n;
}

std::uint64_t TenantAdmission::total_dropped() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : slots_)
    n += s->lifetime_dropped.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t TenantAdmission::dropped(std::size_t tenant) const noexcept {
  if (tenant >= slots_.size()) return 0;
  return slots_[tenant]->lifetime_dropped.load(std::memory_order_relaxed);
}

std::size_t TenantAdmission::shed_count() const noexcept {
  std::size_t n = 0;
  for (const auto& s : slots_)
    if (static_cast<TenantState>(s->state.load(
            std::memory_order_relaxed)) == TenantState::kShed)
      ++n;
  return n;
}

}  // namespace mdp::ctrl

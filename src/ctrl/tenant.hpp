// Tenant admission: the control plane's per-tenant stage — SLO classes,
// arrival contracts, and the shed/throttle state machine that keeps one
// tenant's connection storm from becoming every tenant's tail.
//
// Model (docs/TENANCY.md): each tenant carries a contract — an SLO target
// for its completions and an arrival budget per controller tick window.
// The controller judges the ARRIVAL side, not the latency side: when the
// plane's tail degrades under a storm, every tenant's latency suffers
// (the victim's windows breach too), so shedding on SLO violation would
// cut the victim. Shedding on budget violation cuts the tenant that broke
// its contract. Per-tenant SLO windows are still harvested every tick —
// they are the evidence (reported, exported, asserted in tests) that the
// isolation works.
//
// TenantAdmission threading mirrors SloMonitor: admit() / observe() /
// on_flow_arrival() are any-thread (relaxed atomics, lock-free, no
// fences); harvesting and the state machine run on the controller (tick)
// thread only. The data plane reads each tenant's admission state as a
// single relaxed atomic load per packet.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ctrl/hysteresis.hpp"
#include "ctrl/slo_monitor.hpp"
#include "stats/cacheline.hpp"

namespace mdp::ctrl {

/// Admission state of one tenant (docs/TENANCY.md state machine):
///   kAdmitted  -> every packet admitted
///   kThrottled -> 1 in throttle_keep_one_in packets admitted
///   kShed      -> nothing admitted
///   kProbation -> admitted, but one storming window re-sheds
enum class TenantState : std::uint8_t {
  kAdmitted = 0,
  kThrottled,
  kShed,
  kProbation,
};

const char* tenant_state_name(TenantState s) noexcept;

/// One tenant's contract. Budgets of 0 mean "uncontracted" (never judged
/// storming, unlimited hedges) — the implicit default tenant's shape.
struct TenantSpec {
  std::string name = "tenant";
  /// Per-tenant SLO target (same unit the monitor is fed); 0 = inherit
  /// TenantAdmissionConfig::default_slo_target_ns.
  std::uint64_t slo_target_ns = 0;
  /// Contracted packet arrivals per controller tick window; exceeding it
  /// makes the window "storming". 0 = uncontracted.
  std::uint64_t arrival_budget_per_tick = 0;
  /// Hedge copies this tenant may spend per tick window (tokens refilled
  /// at harvest). 0 = unlimited.
  std::uint64_t hedge_budget_per_tick = 0;
  /// While kThrottled, 1 in this many packets is admitted (>= 2).
  std::uint32_t throttle_keep_one_in = 8;
};

struct TenantAdmissionConfig {
  std::vector<TenantSpec> tenants;
  /// SLO target for tenants whose spec leaves slo_target_ns = 0.
  std::uint64_t default_slo_target_ns = 1'000'000;
  /// Consecutive storming windows before kAdmitted -> kThrottled (>= 1).
  std::uint32_t throttle_after = 2;
  /// Further consecutive storming windows before kThrottled -> kShed.
  std::uint32_t shed_after = 2;
  /// Calm (in-budget) windows before kShed -> kProbation, and before
  /// kThrottled -> kAdmitted.
  std::uint32_t cooldown_windows = 4;
  /// Calm windows in kProbation before full reinstatement.
  std::uint32_t probation_windows = 4;
};

/// Pure hysteresis FSM for one tenant, windowed like PathStateMachine:
/// one on_window(storming) call per controller tick. Storming windows
/// count up and calm ones down on a ctrl::Hysteresis; each state reads
/// its own streak thresholds off it. Tick-thread only.
class TenantStateMachine {
 public:
  TenantStateMachine() : TenantStateMachine(2, 2, 4, 4) {}
  /// A threshold of 0 acts as 1 (Hysteresis::sustained).
  TenantStateMachine(std::uint32_t throttle_after, std::uint32_t shed_after,
                     std::uint32_t cooldown_windows,
                     std::uint32_t probation_windows)
      : throttle_after_(throttle_after),
        shed_after_(shed_after),
        cooldown_windows_(cooldown_windows),
        probation_windows_(probation_windows) {}

  /// Advance one window. Returns true when the state changed.
  bool on_window(bool storming);

  TenantState state() const noexcept { return state_; }
  std::uint64_t throttles() const noexcept { return throttles_; }
  std::uint64_t sheds() const noexcept { return sheds_; }
  std::uint64_t reinstates() const noexcept { return reinstates_; }

 private:
  /// Moves to `next` and starts both streaks over.
  void move(TenantState next) {
    state_ = next;
    streaks_.moved();
  }

  std::uint32_t throttle_after_;
  std::uint32_t shed_after_;
  std::uint32_t cooldown_windows_;
  std::uint32_t probation_windows_;
  TenantState state_ = TenantState::kAdmitted;
  Hysteresis streaks_;
  std::uint64_t throttles_ = 0;
  std::uint64_t sheds_ = 0;
  std::uint64_t reinstates_ = 0;
};

class TenantAdmission {
 public:
  explicit TenantAdmission(TenantAdmissionConfig cfg);

  std::size_t num_tenants() const noexcept { return slots_.size(); }
  const TenantSpec& spec(std::size_t t) const { return cfg_.tenants[t]; }
  const TenantAdmissionConfig& config() const noexcept { return cfg_; }

  // --- any-thread (data plane) --------------------------------------------
  /// Count one packet arrival for `tenant` and decide its fate under the
  /// tenant's current admission state. Lock-free; false = drop at the
  /// door (the packet must not enter the plane).
  bool admit(std::uint16_t tenant) noexcept;

  /// Count one new-flow arrival (the connection-storm signal, distinct
  /// from per-packet arrivals in reports).
  void on_flow_arrival(std::uint16_t tenant) noexcept;

  /// Record a completed packet's latency against the tenant's SLO class.
  void observe(std::uint16_t tenant, std::uint64_t latency_ns) noexcept {
    mon_.observe(tenant, latency_ns);
  }

  /// Spend one hedge token (per-tenant hedging budget). True = the tenant
  /// may hedge this packet; unlimited when the spec's budget is 0.
  bool try_consume_hedge_token(std::uint16_t tenant) noexcept;

  /// Current admission state; single relaxed load, any thread.
  TenantState state(std::uint16_t tenant) const noexcept;

  // --- tick thread ---------------------------------------------------------
  struct TickResult {
    TenantState before = TenantState::kAdmitted;
    TenantState after = TenantState::kAdmitted;
    bool changed = false;
    bool storming = false;
    const char* reason = "";  ///< set iff changed
    std::uint64_t arrivals = 0;
    std::uint64_t admitted = 0;
    std::uint64_t dropped = 0;
    std::uint64_t flow_arrivals = 0;
    WindowStats slo;  ///< the tenant's harvested latency window
  };

  /// Harvest `tenant`'s window (exchange-to-zero), refill its hedge
  /// tokens, and advance its state machine. Controller thread only.
  TickResult tick_tenant(std::size_t tenant);

  /// The per-tenant SLO monitor (slot == tenant id).
  SloMonitor& monitor() noexcept { return mon_; }
  const SloMonitor& monitor() const noexcept { return mon_; }

  // Lifetime totals (tick thread for per-tenant FSM counters; dropped is
  // any-thread safe).
  std::uint64_t throttles() const noexcept;
  std::uint64_t sheds() const noexcept;
  std::uint64_t reinstates() const noexcept;
  std::uint64_t total_dropped() const noexcept;
  std::uint64_t dropped(std::size_t tenant) const noexcept;
  std::size_t shed_count() const noexcept;  ///< tenants currently kShed

 private:
  /// Hot counters one interference line per tenant so tenant A's packet
  /// rate never steals tenant B's counter line (same discipline as
  /// SloMonitor::PathWindow).
  struct alignas(stats::kCacheLineSize) Slot {
    std::atomic<std::uint64_t> arrivals{0};
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> flow_arrivals{0};
    std::atomic<std::uint64_t> throttle_seq{0};
    std::atomic<std::uint64_t> hedge_tokens{0};
    alignas(stats::kCacheLineSize) std::atomic<std::uint8_t> state{
        static_cast<std::uint8_t>(TenantState::kAdmitted)};
    std::atomic<std::uint64_t> lifetime_dropped{0};
    /// Tick-thread only.
    TenantStateMachine fsm;
  };

  TenantAdmissionConfig cfg_;
  std::vector<std::unique_ptr<Slot>> slots_;
  SloMonitor mon_;
};

}  // namespace mdp::ctrl

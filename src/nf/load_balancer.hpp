// LoadBalancer: L4 VIP -> backend (DIP) selection with per-flow affinity.
//
// Two selection policies:
//   - kConsistentHash : 160-vnode consistent-hash ring; backend changes
//                       disturb only O(1/n) of the flow space
//   - kWeightedRR     : smooth weighted round robin (nginx algorithm)
// Affinity: the first packet of a flow picks the backend; subsequent
// packets follow the affinity table so connections never split.
// The packet's dst_ip is rewritten to the chosen DIP with incremental
// checksum patching.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "click/element.hpp"
#include "net/flow_key.hpp"
#include "nf/flow_table.hpp"

namespace mdp::nf {

struct Backend {
  std::uint32_t dip = 0;   // host order
  std::uint32_t weight = 1;
  bool healthy = true;
};

/// Affinity state lives in a bounded second-chance nf::FlowTable: a
/// million-flow affinity footprint is fixed at construction, cold flows
/// are displaced instead of growing memory, and per-tenant caps keep one
/// tenant's connection storm from flushing another tenant's affinity
/// (docs/TENANCY.md). Losing an affinity entry is safe — the flow simply
/// re-resolves through the (stable) consistent-hash ring.
class LoadBalancerCore {
 public:
  enum class Policy { kConsistentHash, kWeightedRR };

  explicit LoadBalancerCore(Policy p = Policy::kConsistentHash,
                            std::size_t affinity_capacity = 1 << 20)
      : policy_(p), affinity_(affinity_capacity) {}

  void add_backend(Backend b);
  /// Mark a backend (by DIP) unhealthy; its flows re-resolve on next packet.
  void set_healthy(std::uint32_t dip, bool healthy);

  /// Pick the backend for a flow (affinity table first). Returns 0 if no
  /// healthy backend exists. `tenant` charges the affinity entry to a
  /// tenant's occupancy cap; a cap-refused entry still load-balances, it
  /// just re-resolves per packet.
  std::uint32_t select(const net::FlowKey& flow, std::uint16_t tenant = 0);

  /// Per-tenant affinity-entry cap (0 = uncapped); docs/TENANCY.md.
  void set_tenant_cap(std::uint16_t tenant, std::size_t cap) {
    affinity_.set_tenant_cap(tenant, cap);
  }
  std::size_t tenant_occupancy(std::uint16_t tenant) const noexcept {
    return affinity_.tenant_occupancy(tenant);
  }

  std::size_t num_backends() const noexcept { return backends_.size(); }
  std::size_t affinity_entries() const noexcept { return affinity_.size(); }
  std::size_t affinity_capacity() const noexcept {
    return affinity_.capacity();
  }
  std::uint64_t affinity_evictions() const noexcept {
    return affinity_.evictions();
  }
  Policy policy() const noexcept { return policy_; }

  /// Per-backend packet counts (for balance tests).
  const std::unordered_map<std::uint32_t, std::uint64_t>& hits()
      const noexcept {
    return hits_;
  }

 private:
  static constexpr int kVnodesPerWeight = 160;
  void rebuild_ring();
  std::uint32_t pick_consistent(std::uint64_t hash) const;
  std::uint32_t pick_wrr();
  bool is_healthy(std::uint32_t dip) const;

  Policy policy_;
  std::vector<Backend> backends_;
  std::map<std::uint64_t, std::uint32_t> ring_;  // vnode hash -> dip
  FlowTable<std::uint32_t> affinity_;            // flow -> dip
  std::unordered_map<std::uint32_t, std::uint64_t> hits_;
  // Smooth WRR state.
  std::vector<std::int64_t> wrr_current_;
};

/// Click element: LoadBalancer(VIP, DIP1 [w], DIP2 [w], ... [, policy hash|rr]).
/// Packets whose dst is not the VIP pass through untouched.
///
/// The core (ring + affinity table) is built in initialize(). A chain
/// replica bound with share_state_of() builds none: it selects through its
/// primary's core, so a flow reaches one backend on every path.
class LoadBalancer final : public click::Element {
 public:
  std::string class_name() const override { return "LoadBalancer"; }
  bool configure(const std::vector<std::string>& args,
                 std::string* err) override;
  bool initialize(std::string* err) override;
  sim::TimeNs cost_ns() const override { return 120; }
  net::PacketPtr simple_action(net::PacketPtr pkt) override;
  void push_batch(int, click::PacketBatch&& batch) override {
    act_batch_and_forward(std::move(batch));
  }

  /// Select through `primary`'s core instead of building one.
  void share_state_of(LoadBalancer& primary) noexcept { primary_ = &primary; }

  /// Valid after initialize().
  LoadBalancerCore& core() noexcept { return *core_; }
  std::uint64_t rewritten() const noexcept { return rewritten_; }

 private:
  LoadBalancerCore::Policy policy_ = LoadBalancerCore::Policy::kConsistentHash;
  std::vector<Backend> backends_;
  LoadBalancer* primary_ = nullptr;
  std::shared_ptr<LoadBalancerCore> core_;
  std::uint32_t vip_ = 0;
  std::uint64_t rewritten_ = 0;
};

}  // namespace mdp::nf

// Connection tracking + stateful firewall.
//
// ConnTracker follows the TCP state machine (and pseudo-states for UDP)
// per canonical 5-tuple; StatefulFirewall admits packets that belong to an
// ESTABLISHED (or legitimately progressing) connection and applies the
// static ACL only to connection-opening packets — the iptables
// "ESTABLISHED,RELATED ACCEPT" pattern.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "click/element.hpp"
#include "net/flow_key.hpp"
#include "nf/firewall.hpp"
#include "nf/flow_table.hpp"

namespace mdp::nf {

enum class ConnState : std::uint8_t {
  kNew,          // first packet seen (UDP) / SYN sent (TCP)
  kSynAck,       // SYN+ACK observed
  kEstablished,  // handshake done / bidirectional UDP
  kFinWait,      // one side sent FIN
  kClosed,       // both FINs or RST
};

const char* to_string(ConnState s);

struct ConnEntry {
  ConnState state = ConnState::kNew;
  std::uint64_t packets = 0;
  std::uint64_t last_seen_ns = 0;
  bool forward_fin = false;
  bool reverse_fin = false;
};

struct ConnTrackerConfig {
  std::size_t max_entries = 1 << 16;
  std::uint64_t tcp_idle_timeout_ns = 300ull * 1'000'000'000;
  std::uint64_t udp_idle_timeout_ns = 30ull * 1'000'000'000;
  std::uint64_t closed_linger_ns = 1'000'000'000;
};

/// Connection table over a bounded second-chance nf::FlowTable: memory is
/// fixed at max_entries, active connections are protected by their
/// reference bit, and per-tenant occupancy caps bound how many tracked
/// connections one tenant's storm can hold (docs/TENANCY.md). In-flight
/// connections (mid-handshake under owner protection) can be pinned so
/// capacity pressure defers their eviction instead of cutting them.
class ConnTracker {
 public:
  explicit ConnTracker(ConnTrackerConfig cfg = {})
      : cfg_(cfg), table_(cfg.max_entries) {}

  /// Advance the connection for one observed packet.
  /// @param flow       packet 5-tuple in packet direction
  /// @param tcp_flags  TCP flags byte, 0 for non-TCP
  /// @param tenant     tenant charged for the entry's occupancy
  /// @returns the state AFTER this packet (kClosed if the tenant's cap
  ///          refused the entry).
  ConnState observe(const net::FlowKey& flow, std::uint8_t tcp_flags,
                    std::uint64_t now_ns, std::uint16_t tenant = 0);

  /// Current state (kClosed for unknown connections).
  ConnState lookup(const net::FlowKey& flow) const;

  /// Expire idle/closed entries. Returns count removed.
  std::size_t expire(std::uint64_t now_ns);

  /// Defer/permit eviction of an in-flight connection (docs/TENANCY.md).
  bool pin(const net::FlowKey& flow) { return table_.pin(flow.canonical()); }
  bool unpin(const net::FlowKey& flow) {
    return table_.unpin(flow.canonical());
  }

  /// Per-tenant tracked-connection cap (0 = uncapped).
  void set_tenant_cap(std::uint16_t tenant, std::size_t cap) {
    table_.set_tenant_cap(tenant, cap);
  }
  std::size_t tenant_occupancy(std::uint16_t tenant) const noexcept {
    return table_.tenant_occupancy(tenant);
  }

  std::size_t size() const noexcept { return table_.size(); }
  std::uint64_t evictions() const noexcept { return table_.evictions(); }
  std::uint64_t cap_rejections() const noexcept {
    return table_.cap_rejections();
  }
  std::uint64_t pinned_deferrals() const noexcept {
    return table_.pinned_deferrals();
  }

 private:
  struct Keyed {
    ConnEntry entry;
    bool forward_is_initiator = false;  // canonical-src opened the conn
  };

  ConnTrackerConfig cfg_;
  FlowTable<Keyed> table_;
};

/// Click element: StatefulFirewall(RULES...). Rules use FwRule syntax and
/// gate only connection-*opening* packets: anything on an established
/// connection passes. Out-of-state TCP packets (e.g. an ACK with no
/// tracked connection) are rejected — the classic stateful-FW behaviour.
/// Output 0 = accept, output 1 (optional) = reject.
///
/// The connection table is allocated in initialize(). A chain replica
/// bound with share_state_of() allocates none: it tracks through its
/// primary's table, so a connection whose packets take different paths
/// is still one connection. The ACL stays per element.
class StatefulFirewall final : public click::Element {
 public:
  std::string class_name() const override { return "StatefulFirewall"; }
  int n_outputs() const override { return -1; }
  bool configure(const std::vector<std::string>& args,
                 std::string* err) override;
  bool initialize(std::string* err) override;
  sim::TimeNs cost_ns() const override {
    return 140 + 8 * static_cast<sim::TimeNs>(table_.num_rules());
  }
  void push(int port, net::PacketPtr pkt) override;

  /// Track through `primary`'s connection table instead of allocating one.
  void share_state_of(StatefulFirewall& primary) noexcept {
    primary_ = &primary;
  }

  /// Valid after initialize().
  ConnTracker& tracker() noexcept { return *tracker_; }
  FirewallTable& acl() noexcept { return table_; }
  std::uint64_t accepted() const noexcept { return accepted_; }
  std::uint64_t rejected() const noexcept { return rejected_; }
  std::uint64_t out_of_state() const noexcept { return out_of_state_; }

 private:
  StatefulFirewall* primary_ = nullptr;
  std::shared_ptr<ConnTracker> tracker_;
  FirewallTable table_;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t out_of_state_ = 0;
};

}  // namespace mdp::nf

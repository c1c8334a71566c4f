// Nat: source NAT with dynamic port allocation (the IPRewriter pattern).
//
// Outbound packets get src_ip rewritten to the external address and
// src_port to a port drawn from the pool; the (internal flow -> external
// port) binding persists for the life of the flow so a flow stays
// recognizable downstream. Checksums (IPv4 + TCP/UDP) are patched
// incrementally (RFC 1624) rather than recomputed.
//
// Bindings live in a bounded second-chance nf::FlowTable (cold bindings
// displaced under table/port pressure, in-use bindings protected by their
// reference bit) and also expire by idle timeout. With num_external_ips >
// 1 the external side is a (NAT-pool address, port) grid — 20 addresses x
// 50k ports covers a million concurrent bindings, the carrier-grade-NAT
// shape — and per-tenant occupancy caps bound how much of the pool one
// tenant's connection storm can claim (docs/TENANCY.md).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "click/element.hpp"
#include "net/flow_key.hpp"
#include "nf/flow_table.hpp"

namespace mdp::nf {

struct NatConfig {
  std::uint32_t external_ip = 0x0a0a0a0a;  // 10.10.10.10 (pool base)
  std::uint16_t port_lo = 10000;
  std::uint16_t port_hi = 60000;
  /// Consecutive external addresses starting at external_ip; the usable
  /// binding space is num_external_ips * (port_hi - port_lo + 1).
  std::uint16_t num_external_ips = 1;
  std::size_t max_entries = 65536;
  std::uint64_t idle_timeout_ns = 120ull * 1'000'000'000;  // 120 s
};

class NatTable {
 public:
  explicit NatTable(NatConfig cfg = {});
  // The evict callback captures `this`: a copy or move would hand freed
  // ports back to the wrong pool.
  NatTable(const NatTable&) = delete;
  NatTable& operator=(const NatTable&) = delete;
  NatTable(NatTable&&) = delete;
  NatTable& operator=(NatTable&&) = delete;

  struct Binding {
    std::uint32_t external_ip;
    std::uint16_t external_port;
    std::uint64_t last_used_ns;
  };

  /// Translate an outbound flow: returns the external port bound to this
  /// flow (allocating one if new), or nullopt if the pool and table are
  /// exhausted. `tenant` charges the binding to a tenant's occupancy cap.
  std::optional<std::uint16_t> translate(const net::FlowKey& flow,
                                         std::uint64_t now_ns,
                                         std::uint16_t tenant = 0);

  /// Full binding (external ip + port) for an outbound flow.
  std::optional<Binding> translate_binding(const net::FlowKey& flow,
                                           std::uint64_t now_ns,
                                           std::uint16_t tenant = 0);

  /// Reverse lookup on the pool base address: which internal flow owns
  /// this external port? (Single-address pools; for multi-address pools
  /// use the (ip, port) overload.)
  std::optional<net::FlowKey> reverse(std::uint16_t external_port) const;
  std::optional<net::FlowKey> reverse(std::uint32_t external_ip,
                                      std::uint16_t external_port) const;

  /// Drop bindings idle longer than the timeout. Returns count evicted.
  std::size_t expire(std::uint64_t now_ns);

  /// Per-tenant binding cap (0 = uncapped); docs/TENANCY.md.
  void set_tenant_cap(std::uint16_t tenant, std::size_t cap) {
    bindings_.set_tenant_cap(tenant, cap);
  }
  std::size_t tenant_occupancy(std::uint16_t tenant) const noexcept {
    return bindings_.tenant_occupancy(tenant);
  }

  std::size_t size() const noexcept { return bindings_.size(); }
  std::size_t ports_available() const noexcept { return free_addrs_.size(); }
  std::uint64_t evictions() const noexcept { return bindings_.evictions(); }
  std::uint64_t cap_rejections() const noexcept {
    return bindings_.cap_rejections();
  }
  const NatConfig& config() const noexcept { return cfg_; }

 private:
  /// (address index << 16) | port — one code per pool slot.
  std::uint32_t addr_code(std::uint32_t ip, std::uint16_t port) const;
  void release_addr(const Binding& b);

  NatConfig cfg_;
  FlowTable<Binding> bindings_;
  std::unordered_map<std::uint32_t, net::FlowKey> by_addr_;  // code -> flow
  std::vector<std::uint32_t> free_addrs_;  // codes; back = next allocated
};

/// Click element: Nat(EXTERNAL_IP [, PORT_LO, PORT_HI]). Output 0 carries
/// translated traffic; packets that cannot be translated (pool exhausted,
/// non-IP) exit port 1 if connected, else drop.
///
/// The binding table is allocated in initialize(). A chain replica bound
/// with share_state_of() allocates none: it translates through its
/// primary's table, so a flow keeps one external identity on every path.
class Nat final : public click::Element {
 public:
  std::string class_name() const override { return "Nat"; }
  int n_outputs() const override { return -1; }
  bool configure(const std::vector<std::string>& args,
                 std::string* err) override;
  bool initialize(std::string* err) override;
  sim::TimeNs cost_ns() const override { return 180; }
  void push(int port, net::PacketPtr pkt) override;
  void push_batch(int port, click::PacketBatch&& batch) override;

  /// Translate through `primary`'s table instead of allocating one.
  void share_state_of(Nat& primary) noexcept { primary_ = &primary; }

  /// Valid after initialize().
  NatTable& table() noexcept { return *table_; }
  std::uint64_t translated() const noexcept { return translated_; }
  std::uint64_t failed() const noexcept { return failed_; }

 private:
  /// Translate + rewrite one packet. Returns the packet for output 0, or
  /// null after diverting it to port 1 / dropping it.
  net::PacketPtr translate_one(net::PacketPtr pkt);
  NatConfig cfg_{};
  Nat* primary_ = nullptr;
  std::shared_ptr<NatTable> table_;
  std::uint64_t translated_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace mdp::nf

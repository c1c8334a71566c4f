// FlowCache: the vSwitch fast path. An exact-match (5-tuple) cache in
// front of the slow-path NF chain, in the style of OVS's exact-match/
// megaflow cache: the first packet of a flow takes the slow path (output
// 1) and the controller of the cache (the chain tail) installs the
// resulting verdict; subsequent packets hit the cache and bypass the chain
// entirely (output 0).
//
// Entries hold the flow's cached action (pass/drop) and rewrite template
// (new src/dst ip+port learned from the slow path's output packet).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "click/element.hpp"
#include "net/flow_key.hpp"
#include "net/packet_builder.hpp"
#include "nf/flow_table.hpp"

namespace mdp::nf {

struct CachedAction {
  bool drop = false;
  /// Rewrite template: apply these fields to matching packets (the
  /// composite effect of NAT + LB learned from one slow-path traversal).
  bool rewrite = false;
  std::uint32_t new_src_ip = 0;
  std::uint32_t new_dst_ip = 0;
  std::uint16_t new_src_port = 0;
  std::uint16_t new_dst_port = 0;
};

/// Exact-match cache over a bounded second-chance nf::FlowTable: memory is
/// fixed at construction, a cache hit refreshes the entry's reference bit,
/// and a full cache displaces the coldest entry. Per-tenant occupancy caps
/// (set_tenant_cap) keep one tenant's flow churn from flushing another's
/// working set — see docs/TENANCY.md for the eviction guarantees.
class FlowCacheCore {
 public:
  explicit FlowCacheCore(std::size_t capacity = 1 << 15)
      : table_(capacity) {}

  const CachedAction* lookup(const net::FlowKey& flow);
  void install(const net::FlowKey& flow, CachedAction action,
               std::uint16_t tenant = 0);
  void invalidate(const net::FlowKey& flow);
  void clear();

  /// Per-tenant occupancy cap (0 = uncapped); docs/TENANCY.md.
  void set_tenant_cap(std::uint16_t tenant, std::size_t cap) {
    table_.set_tenant_cap(tenant, cap);
  }
  std::size_t tenant_occupancy(std::uint16_t tenant) const noexcept {
    return table_.tenant_occupancy(tenant);
  }

  std::size_t size() const noexcept { return table_.size(); }
  std::size_t capacity() const noexcept { return table_.capacity(); }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t evictions() const noexcept { return table_.evictions(); }
  std::uint64_t cap_rejections() const noexcept {
    return table_.cap_rejections();
  }
  double hit_rate() const noexcept {
    std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / static_cast<double>(total)
                 : 0.0;
  }

 private:
  FlowTable<CachedAction> table_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Click element: FlowCache(CAPACITY=32768).
///   input 0: packets from the wire. Cache hit => apply action, output 0
///            (or drop). Miss => output 1 (the slow path).
///   input 1: packets returning from the slow path. The element learns
///            the (original flow -> observed rewrite) mapping, installs
///            it, and emits on output 0.
/// The original flow of a slow-path packet is carried in a stash keyed by
/// a cookie annotation (paint is too small; we use flow_hash as cookie,
/// set on the miss path). The cache table is allocated once, in
/// initialize(), at the configured capacity.
class FlowCache final : public click::Element {
 public:
  std::string class_name() const override { return "FlowCache"; }
  int n_inputs() const override { return -1; }
  int n_outputs() const override { return -1; }
  bool configure(const std::vector<std::string>& args,
                 std::string* err) override;
  bool initialize(std::string* err) override;
  sim::TimeNs cost_ns() const override { return 45; }  // fast-path cost
  void push(int port, net::PacketPtr pkt) override;

  /// Valid after initialize().
  FlowCacheCore& core() noexcept { return *cache_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  void apply(const CachedAction& a, net::Packet& pkt,
             const net::ParsedPacket& parsed);

  std::size_t capacity_ = 1 << 15;
  std::unique_ptr<FlowCacheCore> cache_;
  // Original 5-tuple of in-flight slow-path packets, keyed by cookie.
  std::unordered_map<std::uint64_t, net::FlowKey> pending_;
  std::uint64_t next_cookie_ = 1;
  std::uint64_t dropped_ = 0;
};

}  // namespace mdp::nf

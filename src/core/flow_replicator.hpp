// SPDX-License-Identifier: MIT
#pragma once

#include <cstdint>
#include <functional>

#include "core/scheduler.hpp"
#include "net/flow_key.hpp"
#include "net/packet.hpp"
#include "nf/flow_table.hpp"

namespace mdp::core {

/// Flow-granularity replication (RepNet, PAPERS.md). Per-packet hedging
/// rescues individual stragglers after a deadline has already been
/// missed; a short latency-critical flow whose path stalls still eats
/// the stall once per packet. The FlowReplicator instead decides ONCE,
/// on the first packet of a flow, whether the whole flow is worth
/// cloning onto a disjoint path set — every subsequent packet of a
/// replicated flow is sent on the same stable path pair and the egress
/// dedup keeps first-copy-wins per sequence.
///
/// Decision inputs, applied in order on the first packet:
///   1. size class — only flows known (or hinted) to be short qualify:
///      `anno().flow_bytes <= size_cutoff_bytes`, or, when the size is
///      unknown (0), the packet's kLatencyCritical traffic class;
///   2. path supply — at least `replicas` distinct up paths must exist
///      (the disjoint set comes from k_least_backlog_paths, i.e. the
///      current SLO/backlog evidence picks the replica paths);
///   3. tenant budget — an optional token hook (wired to
///      ctrl::TenantAdmission::try_consume_hedge_token) charges one
///      hedge token per replicated flow; denial falls back to a single
///      path.
/// The verdict is cached per flow in an nf::FlowTable, so elephants are
/// gated once, tokens are charged once, and the path set stays stable
/// for the flow's lifetime (filtered by up() on every packet).
struct FlowReplicatorConfig {
  bool enabled = false;
  /// Flows at or under this many bytes qualify for replication.
  std::uint32_t size_cutoff_bytes = 30'000;
  /// Copies per replicated flow (clamped to [2, kMaxReplicaPaths]).
  std::size_t replicas = 2;
  /// Capacity of the per-flow decision table (second-chance eviction
  /// beyond this; an evicted flow is re-decided on its next packet).
  std::size_t flow_table_capacity = 1 << 15;
};

class FlowReplicator {
 public:
  static constexpr std::size_t kMaxReplicaPaths = 4;

  /// Returns true when the flow may replicate (one hedge token is
  /// consumed per replicated flow). Unset == unlimited budget.
  using TokenFn = std::function<bool(std::uint16_t tenant)>;

  explicit FlowReplicator(FlowReplicatorConfig cfg = {})
      : cfg_(cfg), table_(cfg.flow_table_capacity) {
    if (cfg_.replicas < 2) cfg_.replicas = 2;
    if (cfg_.replicas > kMaxReplicaPaths) cfg_.replicas = kMaxReplicaPaths;
  }

  void set_token_fn(TokenFn fn) { token_fn_ = std::move(fn); }

  /// Route one packet. Returns true iff the packet's flow is replicated,
  /// with `out` holding the flow's replica paths filtered to those still
  /// up (>= 1 entries; the caller dispatches one copy per entry).
  /// Returns false for non-replicated flows — the caller falls through
  /// to its normal scheduler.
  bool route(const net::Packet& pkt, const PathContext& ctx, PathVec& out) {
    const auto& a = pkt.anno();
    const net::FlowKey k = key_of(a.flow_id);
    if (State* s = table_.find(k)) {
      if (!s->replicated) return false;
      fill_up_paths(*s, ctx, out);
      return true;
    }
    // First packet of an untracked flow: decide.
    ++flows_seen_;
    State st{};
    if (!qualifies_by_size(a)) {
      ++size_gated_;
      remember(k, a.tenant_id, st);
      return false;
    }
    PathVec cand;
    k_least_backlog_paths(ctx, cfg_.replicas, cand);
    if (cand.size() < 2) {
      ++path_starved_;
      remember(k, a.tenant_id, st);
      return false;
    }
    if (token_fn_ && !token_fn_(a.tenant_id)) {
      ++token_denied_;
      remember(k, a.tenant_id, st);
      return false;
    }
    st.replicated = true;
    st.n = static_cast<std::uint8_t>(
        cand.size() < cfg_.replicas ? cand.size() : cfg_.replicas);
    for (std::uint8_t i = 0; i < st.n; ++i) st.paths[i] = cand[i];
    remember(k, a.tenant_id, st);
    ++flows_replicated_;
    fill_up_paths(st, ctx, out);
    return true;
  }

  /// Forget a flow (flow completed). Returns true if it was tracked.
  bool erase(std::uint32_t flow_id) { return table_.erase(key_of(flow_id)); }

  const FlowReplicatorConfig& config() const { return cfg_; }
  std::size_t tracked() const { return table_.size(); }
  std::uint64_t flows_seen() const { return flows_seen_; }
  std::uint64_t flows_replicated() const { return flows_replicated_; }
  std::uint64_t size_gated() const { return size_gated_; }
  std::uint64_t token_denied() const { return token_denied_; }
  std::uint64_t path_starved() const { return path_starved_; }
  std::uint64_t table_rejections() const { return table_.cap_rejections(); }

  /// The sim plane has no parsed 5-tuple — flow identity is the dense
  /// anno().flow_id. Synthesize a stable FlowKey from it.
  static net::FlowKey key_of(std::uint32_t flow_id) {
    net::FlowKey k{};
    k.src_ip = flow_id;
    return k;
  }

 private:
  struct State {
    std::uint16_t paths[kMaxReplicaPaths] = {};
    std::uint8_t n = 0;
    bool replicated = false;
  };

  bool qualifies_by_size(const net::Annotations& a) const {
    if (a.flow_bytes > 0) return a.flow_bytes <= cfg_.size_cutoff_bytes;
    return a.traffic_class == net::TrafficClass::kLatencyCritical;
  }

  void remember(const net::FlowKey& k, std::uint16_t tenant,
                const State& st) {
    // Insert can fail when the table is full of pinned entries — the
    // flow is then simply re-decided on its next packet (counted in
    // table_rejections()).
    table_.insert(k, tenant, st);
  }

  void fill_up_paths(const State& s, const PathContext& ctx, PathVec& out) {
    out.clear();
    for (std::uint8_t i = 0; i < s.n; ++i) {
      if (ctx.up(s.paths[i])) out.push_back(s.paths[i]);
    }
    // Whole replica set is down: serve single-copy on any live path so
    // the flow still makes progress.
    if (out.empty()) {
      ++replica_set_down_;
      out.push_back(first_up_path(ctx));
    }
  }

  FlowReplicatorConfig cfg_;
  nf::FlowTable<State> table_;
  TokenFn token_fn_;
  std::uint64_t flows_seen_ = 0;
  std::uint64_t flows_replicated_ = 0;
  std::uint64_t size_gated_ = 0;
  std::uint64_t token_denied_ = 0;
  std::uint64_t path_starved_ = 0;
  std::uint64_t replica_set_down_ = 0;
};

}  // namespace mdp::core

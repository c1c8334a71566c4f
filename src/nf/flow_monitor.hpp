// FlowMonitor: per-flow accounting (packets, bytes, first/last seen) with a
// bounded table and top-k heavy-hitter query. Transparent element.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "click/element.hpp"
#include "net/flow_key.hpp"

namespace mdp::nf {

struct FlowStats {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t first_seen_ns = 0;
  std::uint64_t last_seen_ns = 0;
};

class FlowMonitorCore {
 public:
  explicit FlowMonitorCore(std::size_t max_flows = 1 << 16)
      : max_flows_(max_flows) {}

  void record(const net::FlowKey& flow, std::size_t bytes,
              std::uint64_t now_ns) {
    auto it = table_.find(flow);
    if (it == table_.end()) {
      if (table_.size() >= max_flows_) {
        ++overflow_;
        return;
      }
      it = table_.emplace(flow, FlowStats{}).first;
      it->second.first_seen_ns = now_ns;
    }
    ++it->second.packets;
    it->second.bytes += bytes;
    it->second.last_seen_ns = now_ns;
  }

  const FlowStats* lookup(const net::FlowKey& flow) const {
    auto it = table_.find(flow);
    return it == table_.end() ? nullptr : &it->second;
  }

  /// Heaviest k flows by bytes.
  std::vector<std::pair<net::FlowKey, FlowStats>> top_k(std::size_t k) const {
    std::vector<std::pair<net::FlowKey, FlowStats>> all(table_.begin(),
                                                        table_.end());
    std::partial_sort(all.begin(),
                      all.begin() + std::min(k, all.size()), all.end(),
                      [](const auto& a, const auto& b) {
                        return a.second.bytes > b.second.bytes;
                      });
    if (all.size() > k) all.resize(k);
    return all;
  }

  std::size_t num_flows() const noexcept { return table_.size(); }
  std::uint64_t overflow() const noexcept { return overflow_; }
  void clear() { table_.clear(); }

 private:
  std::size_t max_flows_;
  std::unordered_map<net::FlowKey, FlowStats, net::FlowKeyHash> table_;
  std::uint64_t overflow_ = 0;
};

/// Click element: FlowMonitor(MAX_FLOWS=65536). The table is allocated in
/// initialize(); a chain replica bound with share_state_of() records into
/// its primary's table, so a flow's counts are not split across paths.
class FlowMonitor final : public click::Element {
 public:
  std::string class_name() const override { return "FlowMonitor"; }
  bool configure(const std::vector<std::string>& args,
                 std::string* err) override;
  bool initialize(std::string* err) override;
  sim::TimeNs cost_ns() const override { return 60; }
  net::PacketPtr simple_action(net::PacketPtr pkt) override;
  void push_batch(int, click::PacketBatch&& batch) override {
    act_batch_and_forward(std::move(batch));
  }

  /// Record into `primary`'s table instead of allocating one.
  void share_state_of(FlowMonitor& primary) noexcept { primary_ = &primary; }

  /// Valid after initialize().
  FlowMonitorCore& core() noexcept { return *core_; }

 private:
  std::size_t max_flows_ = 1 << 16;
  FlowMonitor* primary_ = nullptr;
  std::shared_ptr<FlowMonitorCore> core_;
};

}  // namespace mdp::nf

#include "nf/flow_monitor.hpp"

#include "click/elements.hpp"
#include "click/registry.hpp"
#include "net/packet_builder.hpp"

namespace mdp::nf {

bool FlowMonitor::configure(const std::vector<std::string>& args,
                            std::string* err) {
  if (args.empty()) return true;
  if (args.size() > 1 || !click::parse_size_arg(args[0], &max_flows_) ||
      max_flows_ == 0) {
    *err = "FlowMonitor(MAX_FLOWS)";
    return false;
  }
  return true;
}

bool FlowMonitor::initialize(std::string* err) {
  if (core_) return true;
  if (primary_ == nullptr) {
    core_ = std::make_shared<FlowMonitorCore>(max_flows_);
    return true;
  }
  if (!primary_->initialize(err)) return false;
  core_ = primary_->core_;
  return true;
}

net::PacketPtr FlowMonitor::simple_action(net::PacketPtr pkt) {
  auto parsed = net::parse(*pkt);
  if (parsed)
    core_->record(parsed->flow, pkt->length(), pkt->anno().ingress_ns);
  return pkt;
}

MDP_REGISTER_ELEMENT(FlowMonitor, "FlowMonitor");

}  // namespace mdp::nf

#include "nf/chain.hpp"

#include <cstdio>

#include "nf/conntrack.hpp"
#include "nf/flow_monitor.hpp"
#include "nf/load_balancer.hpp"
#include "nf/nat.hpp"

namespace mdp::nf {

std::vector<std::string> make_firewall_rules(std::size_t n) {
  std::vector<std::string> rules;
  rules.reserve(n);
  // A few deny rules up front (dark space, bogons), then allow /24s.
  const char* denies[] = {
      "deny src 0.0.0.0/8",
      "deny src 127.0.0.0/8",
      "deny src 224.0.0.0/4",
      "deny proto tcp dport 23",
  };
  for (std::size_t i = 0; i < n && i < 4; ++i) rules.push_back(denies[i]);
  for (std::size_t i = 4; i < n; ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "allow src 10.%zu.%zu.0/24",
                  (i / 250) % 250, i % 250);
    rules.emplace_back(buf);
  }
  return rules;
}

ChainSpec ChainSpec::preset(const std::string& name) {
  ChainSpec spec;
  spec.name = name;

  auto fw_stage = [] {
    ChainStage s{"Firewall", {"default allow"}};
    for (auto& r : make_firewall_rules(32)) s.args.push_back(r);
    return s;
  };
  ChainStage ipcheck{"CheckIPHeader", {}};
  ChainStage nat{"Nat", {"10.10.10.10"}};
  ChainStage lb{"LoadBalancer",
                {"10.0.100.1", "10.0.200.1", "10.0.200.2", "10.0.200.3"}};
  ChainStage mon{"FlowMonitor", {}};
  ChainStage dpi{"Dpi", {"paint 1", "EVILPATTERN", "MALWARE", "c2beacon"}};
  ChainStage police{"RateLimiter", {"10000"}};  // 10 Gbps: shaping, not drop

  auto sfw_stage = [] {
    ChainStage s{"StatefulFirewall", {"default allow"}};
    for (auto& r : make_firewall_rules(32)) s.args.push_back(r);
    return s;
  };
  ChainStage vxlan{"VxlanEncap",
                   {"4096", "192.168.50.1", "192.168.50.2"}};

  if (name == "ipcheck") {
    spec.stages = {ipcheck};
  } else if (name == "fw") {
    spec.stages = {ipcheck, fw_stage()};
  } else if (name == "stateful") {
    spec.stages = {ipcheck, sfw_stage()};
  } else if (name == "fw-nat") {
    spec.stages = {ipcheck, fw_stage(), nat};
  } else if (name == "fw-nat-lb") {
    spec.stages = {ipcheck, fw_stage(), nat, lb};
  } else if (name == "fw-nat-lb-mon") {
    spec.stages = {ipcheck, fw_stage(), nat, lb, mon};
  } else if (name == "overlay") {
    // Tenant pipeline terminating in VXLAN encap toward the underlay —
    // the virtualized-network last mile in its full glory.
    spec.stages = {ipcheck, fw_stage(), nat, lb, vxlan};
  } else if (name == "full") {
    spec.stages = {ipcheck, fw_stage(), nat, lb, dpi, police};
  }
  return spec;
}

std::vector<std::string> ChainSpec::preset_names() {
  // Ordered by per-packet cost (Tab 3 relies on this monotonicity).
  return {"ipcheck", "fw",            "stateful", "fw-nat",
          "fw-nat-lb", "fw-nat-lb-mon", "overlay",  "full"};
}

namespace {

/// Bind a replica stage to the per-flow state of the same stage of the
/// primary chain. Both elements have the same class.
void share_stage_state(click::Element& replica, click::Element& primary) {
  if (auto* nat = dynamic_cast<Nat*>(&replica))
    nat->share_state_of(dynamic_cast<Nat&>(primary));
  else if (auto* lb = dynamic_cast<LoadBalancer*>(&replica))
    lb->share_state_of(dynamic_cast<LoadBalancer&>(primary));
  else if (auto* sfw = dynamic_cast<StatefulFirewall*>(&replica))
    sfw->share_state_of(dynamic_cast<StatefulFirewall&>(primary));
  else if (auto* mon = dynamic_cast<FlowMonitor*>(&replica))
    mon->share_state_of(dynamic_cast<FlowMonitor&>(primary));
}

}  // namespace

std::optional<BuiltChain> build_chain(click::Router& router,
                                      const std::string& prefix,
                                      const ChainSpec& spec,
                                      std::string* err,
                                      const BuiltChain* replica_of) {
  if (spec.stages.empty()) {
    *err = "chain '" + spec.name + "' has no stages (unknown preset?)";
    return std::nullopt;
  }
  if (replica_of != nullptr &&
      replica_of->stages.size() != spec.stages.size()) {
    *err = "chain '" + spec.name + "' is not a replica of a " +
           std::to_string(replica_of->stages.size()) + "-stage chain";
    return std::nullopt;
  }
  BuiltChain out;
  click::Element* prev = nullptr;
  for (std::size_t i = 0; i < spec.stages.size(); ++i) {
    const auto& st = spec.stages[i];
    std::string ename = prefix + "_" + std::to_string(i);
    click::Element* e = router.add_element(ename, st.cls, st.args, err);
    if (e == nullptr) return std::nullopt;
    if (replica_of != nullptr) {
      click::Element* primary = replica_of->stages[i];
      if (primary->class_name() != e->class_name()) {
        *err = ename + ": replica stage " + e->class_name() +
               " does not match " + primary->class_name();
        return std::nullopt;
      }
      share_stage_state(*e, *primary);
    }
    if (prev != nullptr && !router.connect(prev, 0, e, 0, err))
      return std::nullopt;
    out.stages.push_back(e);
    prev = e;
  }
  out.head = out.stages.front();
  out.tail = prev;
  out.cost_ns = router.chain_cost(out.head);
  return out;
}

void process_batch(const BuiltChain& chain, click::PacketBatch&& batch) {
  if (chain.head == nullptr) {
    batch.clear();
    return;
  }
  chain.head->push_batch(0, std::move(batch));
}

}  // namespace mdp::nf

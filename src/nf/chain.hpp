// ChainBuilder: assembles NF service chains (as Click element pipelines)
// from declarative specs, and provides the canned chains used throughout
// the evaluation (the FW -> NAT -> LB -> Monitor style last-mile pipeline).
//
// Each multipath path instantiates its own chain replica via build_chain();
// Router::chain_cost() of the replica is the base service time the
// discrete-event path model charges per packet. Replicas of one chain
// share its per-flow state: the first replica's Nat, LoadBalancer,
// StatefulFirewall and FlowMonitor own the tables, and every later replica
// (built with `replica_of`) binds to them, so a flow keeps one NAT
// identity, one backend and one connection on every path. Stateless
// stages (CheckIPHeader, Firewall, Dpi, RateLimiter, VxlanEncap) stay per
// replica.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "click/router.hpp"

namespace mdp::nf {

struct ChainStage {
  std::string cls;                 ///< registered element class name
  std::vector<std::string> args;   ///< configure() arguments
};

struct ChainSpec {
  std::string name;
  std::vector<ChainStage> stages;

  std::size_t length() const noexcept { return stages.size(); }

  /// Canned chains:
  ///   "ipcheck"      : CheckIPHeader
  ///   "fw"           : CheckIPHeader, Firewall(32 rules)
  ///   "fw-nat"       : + Nat
  ///   "fw-nat-lb"    : + LoadBalancer (the default evaluation chain)
  ///   "fw-nat-lb-mon": + FlowMonitor
  ///   "full"         : + Dpi + RateLimiter (6-stage worst case)
  static ChainSpec preset(const std::string& name);

  /// All preset names, shortest chain first (Tab 3 sweeps these).
  static std::vector<std::string> preset_names();
};

/// Generate `n` syntactically distinct firewall rules (deny a few dark
/// prefixes, then allow enumerated /24s) so rule-count sweeps are realistic.
std::vector<std::string> make_firewall_rules(std::size_t n);

struct BuiltChain {
  click::Element* head = nullptr;
  click::Element* tail = nullptr;
  std::vector<click::Element*> stages;  ///< stage i, head first
  sim::TimeNs cost_ns = 0;  ///< sum of element costs along the chain
};

/// Instantiate `spec` into `router` with element names `<prefix>_<i>`,
/// connecting stage i output 0 -> stage i+1 input 0. Does NOT initialize
/// the router (callers wire sources/sinks first). With `replica_of` (a
/// chain built earlier from the same spec), each stateful stage binds to
/// the per-flow state of the same stage in `replica_of` instead of
/// allocating its own; the state is allocated when the routers initialize.
std::optional<BuiltChain> build_chain(click::Router& router,
                                      const std::string& prefix,
                                      const ChainSpec& spec,
                                      std::string* err,
                                      const BuiltChain* replica_of = nullptr);

/// Run a whole burst through the chain via the Click batch path
/// (head->push_batch): each element processes the full burst before the
/// next — one virtual call per element per burst, same per-packet results
/// as pushing each batch entry through head->push() in order. Survivors
/// flow to whatever is wired downstream of the chain tail.
void process_batch(const BuiltChain& chain, click::PacketBatch&& batch);

}  // namespace mdp::nf

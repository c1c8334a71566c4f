#include "nf/conntrack.hpp"

#include "click/registry.hpp"
#include "net/headers.hpp"
#include "net/packet_builder.hpp"

namespace mdp::nf {

const char* to_string(ConnState s) {
  switch (s) {
    case ConnState::kNew: return "NEW";
    case ConnState::kSynAck: return "SYN_ACK";
    case ConnState::kEstablished: return "ESTABLISHED";
    case ConnState::kFinWait: return "FIN_WAIT";
    case ConnState::kClosed: return "CLOSED";
  }
  return "?";
}

ConnState ConnTracker::observe(const net::FlowKey& flow,
                               std::uint8_t tcp_flags,
                               std::uint64_t now_ns,
                               std::uint16_t tenant) {
  net::FlowKey canon = flow.canonical();
  bool is_forward = (flow == canon);

  Keyed* k = table_.find(canon);
  if (!k) {
    Keyed fresh;
    fresh.forward_is_initiator = is_forward;
    fresh.entry.state = ConnState::kNew;
    k = table_.insert(canon, tenant, fresh);
    if (!k) return ConnState::kClosed;  // tenant cap refused the entry
  }
  ConnEntry& e = k->entry;
  ++e.packets;
  e.last_seen_ns = now_ns;

  bool from_initiator = (is_forward == k->forward_is_initiator);

  if (flow.protocol != net::kIpProtoTcp) {
    // UDP pseudo-states: NEW until the responder speaks, then ESTABLISHED.
    if (e.state == ConnState::kNew && !from_initiator)
      e.state = ConnState::kEstablished;
    return e.state;
  }

  using net::TcpView;
  if (tcp_flags & TcpView::kRst) {
    e.state = ConnState::kClosed;
    return e.state;
  }
  switch (e.state) {
    case ConnState::kNew:
      if ((tcp_flags & TcpView::kSyn) && (tcp_flags & TcpView::kAck) &&
          !from_initiator) {
        e.state = ConnState::kSynAck;
      }
      break;
    case ConnState::kSynAck:
      if ((tcp_flags & TcpView::kAck) && from_initiator)
        e.state = ConnState::kEstablished;
      break;
    case ConnState::kEstablished:
      if (tcp_flags & TcpView::kFin) {
        (from_initiator ? e.forward_fin : e.reverse_fin) = true;
        e.state = ConnState::kFinWait;
      }
      break;
    case ConnState::kFinWait:
      if (tcp_flags & TcpView::kFin) {
        (from_initiator ? e.forward_fin : e.reverse_fin) = true;
        if (e.forward_fin && e.reverse_fin) e.state = ConnState::kClosed;
      }
      break;
    case ConnState::kClosed:
      break;
  }
  return e.state;
}

ConnState ConnTracker::lookup(const net::FlowKey& flow) const {
  const Keyed* k = table_.peek(flow.canonical());
  return k ? k->entry.state : ConnState::kClosed;
}

std::size_t ConnTracker::expire(std::uint64_t now_ns) {
  return table_.erase_if(
      [&](const net::FlowKey& key, const Keyed& k, std::uint16_t) {
        const ConnEntry& e = k.entry;
        std::uint64_t timeout =
            e.state == ConnState::kClosed
                ? cfg_.closed_linger_ns
                : (key.protocol == net::kIpProtoTcp
                       ? cfg_.tcp_idle_timeout_ns
                       : cfg_.udp_idle_timeout_ns);
        return now_ns - e.last_seen_ns >= timeout;
      });
}

// --- StatefulFirewall ----------------------------------------------------------

bool StatefulFirewall::configure(const std::vector<std::string>& args,
                                 std::string* err) {
  for (const auto& arg : args) {
    if (arg.rfind("default ", 0) == 0) {
      std::string v = arg.substr(8);
      if (v == "allow") {
        table_.set_default(FwAction::kAllow);
      } else if (v == "deny") {
        table_.set_default(FwAction::kDeny);
      } else {
        *err = "default must be allow|deny";
        return false;
      }
      continue;
    }
    auto rule = FwRule::parse(arg, err);
    if (!rule) return false;
    table_.add_rule(*rule);
  }
  return true;
}

bool StatefulFirewall::initialize(std::string* err) {
  if (tracker_) return true;
  if (primary_ == nullptr) {
    tracker_ = std::make_shared<ConnTracker>();
    return true;
  }
  if (!primary_->initialize(err)) return false;
  tracker_ = primary_->tracker_;
  return true;
}

void StatefulFirewall::push(int, net::PacketPtr pkt) {
  auto parsed = net::parse(*pkt);
  if (!parsed || !parsed->has_l4) {
    ++rejected_;
    if (output_connected(1)) output_push(1, std::move(pkt));
    return;
  }

  std::uint8_t flags = 0;
  if (parsed->flow.protocol == net::kIpProtoTcp)
    flags = net::TcpView(pkt->data() + parsed->l4_offset).flags();

  ConnState before = tracker_->lookup(parsed->flow);
  bool opening =
      (parsed->flow.protocol == net::kIpProtoTcp)
          ? (flags & net::TcpView::kSyn) != 0 && (flags & net::TcpView::kAck) == 0
          : before == ConnState::kClosed;  // unknown UDP flow

  if (opening) {
    if (table_.decide(parsed->flow) != FwAction::kAllow) {
      ++rejected_;
      if (output_connected(1)) output_push(1, std::move(pkt));
      return;
    }
  } else if (before == ConnState::kClosed &&
             parsed->flow.protocol == net::kIpProtoTcp) {
    // Mid-stream TCP with no tracked connection: out-of-state, reject.
    ++out_of_state_;
    ++rejected_;
    if (output_connected(1)) output_push(1, std::move(pkt));
    return;
  }

  tracker_->observe(parsed->flow, flags, pkt->anno().ingress_ns,
                   pkt->anno().tenant_id);
  ++accepted_;
  output_push(0, std::move(pkt));
}

MDP_REGISTER_ELEMENT(StatefulFirewall, "StatefulFirewall");

}  // namespace mdp::nf

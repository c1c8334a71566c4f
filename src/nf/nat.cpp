#include "nf/nat.hpp"

#include "click/registry.hpp"
#include "net/checksum.hpp"
#include "net/headers.hpp"
#include "net/packet_builder.hpp"

namespace mdp::nf {

NatTable::NatTable(NatConfig cfg)
    : cfg_(cfg),
      bindings_(cfg.max_entries) {
  if (cfg_.num_external_ips == 0) cfg_.num_external_ips = 1;
  const std::size_t ports_per_ip =
      static_cast<std::size_t>(cfg_.port_hi) - cfg_.port_lo + 1;
  free_addrs_.reserve(ports_per_ip * cfg_.num_external_ips);
  // Populate descending (ip index, then port) so allocation starts at
  // (external_ip, port_lo) and walks ports before spilling to the next
  // pool address (pop_back).
  for (std::uint32_t ip = cfg_.num_external_ips; ip-- > 0;) {
    for (std::uint32_t p = cfg_.port_hi; p >= cfg_.port_lo; --p) {
      free_addrs_.push_back((ip << 16) | p);
      if (p == 0) break;  // uint wrap guard
    }
  }
  // Displaced bindings hand their pool slot back before the entry goes.
  bindings_.set_evict_callback(
      [this](const net::FlowKey&, const Binding& b, std::uint16_t) {
        release_addr(b);
      });
}

std::uint32_t NatTable::addr_code(std::uint32_t ip,
                                  std::uint16_t port) const {
  return ((ip - cfg_.external_ip) << 16) | port;
}

void NatTable::release_addr(const Binding& b) {
  free_addrs_.push_back(addr_code(b.external_ip, b.external_port));
  by_addr_.erase(addr_code(b.external_ip, b.external_port));
}

std::optional<NatTable::Binding> NatTable::translate_binding(
    const net::FlowKey& flow, std::uint64_t now_ns, std::uint16_t tenant) {
  if (Binding* b = bindings_.find(flow)) {
    b->last_used_ns = now_ns;
    return *b;
  }
  if (free_addrs_.empty()) {
    // Pool exhausted: displace a cold binding the same way capacity
    // pressure would (its callback returns the slot to the pool).
    if (!bindings_.evict_one() || free_addrs_.empty()) return std::nullopt;
  }
  // Claim the slot BEFORE inserting: the insert itself may displace a
  // cold binding, whose callback pushes a freed code onto free_addrs_.
  const std::uint32_t code = free_addrs_.back();
  free_addrs_.pop_back();
  Binding b;
  b.external_ip = cfg_.external_ip + (code >> 16);
  b.external_port = static_cast<std::uint16_t>(code & 0xffff);
  b.last_used_ns = now_ns;
  if (!bindings_.insert(flow, tenant, b)) {
    free_addrs_.push_back(code);  // tenant at cap with nothing evictable
    return std::nullopt;
  }
  by_addr_.emplace(code, flow);
  return b;
}

std::optional<std::uint16_t> NatTable::translate(const net::FlowKey& flow,
                                                 std::uint64_t now_ns,
                                                 std::uint16_t tenant) {
  auto b = translate_binding(flow, now_ns, tenant);
  if (!b) return std::nullopt;
  return b->external_port;
}

std::optional<net::FlowKey> NatTable::reverse(
    std::uint16_t external_port) const {
  return reverse(cfg_.external_ip, external_port);
}

std::optional<net::FlowKey> NatTable::reverse(
    std::uint32_t external_ip, std::uint16_t external_port) const {
  auto it = by_addr_.find(addr_code(external_ip, external_port));
  if (it == by_addr_.end()) return std::nullopt;
  return it->second;
}

std::size_t NatTable::expire(std::uint64_t now_ns) {
  return bindings_.erase_if(
      [&](const net::FlowKey&, const Binding& b, std::uint16_t) {
        const bool stale =
            now_ns - b.last_used_ns >= cfg_.idle_timeout_ns;
        if (stale) release_addr(b);
        return stale;
      });
}

// --- Nat element ----------------------------------------------------------------

bool Nat::configure(const std::vector<std::string>& args, std::string* err) {
  NatConfig cfg;
  if (!args.empty()) {
    if (!net::ipv4_from_string(args[0], &cfg.external_ip)) {
      *err = "Nat: bad external IP '" + args[0] + "'";
      return false;
    }
  }
  if (args.size() >= 3) {
    int lo = std::atoi(args[1].c_str());
    int hi = std::atoi(args[2].c_str());
    if (lo <= 0 || hi > 65535 || lo > hi) {
      *err = "Nat: bad port range";
      return false;
    }
    cfg.port_lo = static_cast<std::uint16_t>(lo);
    cfg.port_hi = static_cast<std::uint16_t>(hi);
  } else if (args.size() == 2) {
    *err = "Nat(EXTERNAL_IP [, PORT_LO, PORT_HI])";
    return false;
  }
  cfg_ = cfg;
  return true;
}

bool Nat::initialize(std::string* err) {
  if (table_) return true;
  if (primary_ == nullptr) {
    table_ = std::make_shared<NatTable>(cfg_);
    return true;
  }
  if (!primary_->initialize(err)) return false;
  table_ = primary_->table_;
  return true;
}

net::PacketPtr Nat::translate_one(net::PacketPtr pkt) {
  auto parsed = net::parse(*pkt);
  if (!parsed || !parsed->has_l4) {
    ++failed_;
    if (output_connected(1)) output_push(1, std::move(pkt));
    return net::PacketPtr{nullptr};
  }
  auto binding = table_->translate_binding(parsed->flow, pkt->anno().ingress_ns,
                                           pkt->anno().tenant_id);
  if (!binding) {
    ++failed_;
    if (output_connected(1)) output_push(1, std::move(pkt));
    return net::PacketPtr{nullptr};
  }

  net::Ipv4View ip(pkt->data() + parsed->l3_offset);
  std::uint32_t old_ip = ip.src();
  std::uint16_t old_port = parsed->flow.src_port;
  std::uint32_t new_ip = binding->external_ip;
  std::uint16_t new_port = binding->external_port;

  ip.set_src(new_ip);
  ip.set_checksum(net::checksum_update32(ip.checksum(), old_ip, new_ip));

  std::byte* l4 = pkt->data() + parsed->l4_offset;
  if (parsed->flow.protocol == net::kIpProtoTcp) {
    net::TcpView tcp(l4);
    tcp.set_src_port(new_port);
    std::uint16_t c = tcp.checksum();
    c = net::checksum_update32(c, old_ip, new_ip);  // pseudo-header
    c = net::checksum_update16(c, old_port, new_port);
    tcp.set_checksum(c);
  } else {
    net::UdpView udp(l4);
    udp.set_src_port(new_port);
    std::uint16_t c = udp.checksum();
    if (c != 0) {  // 0 = checksum disabled
      c = net::checksum_update32(c, old_ip, new_ip);
      c = net::checksum_update16(c, old_port, new_port);
      udp.set_checksum(c == 0 ? 0xffff : c);
    }
  }

  // The flow identity changed; refresh the cached hash annotation.
  net::FlowKey new_flow = parsed->flow;
  new_flow.src_ip = new_ip;
  new_flow.src_port = new_port;
  pkt->anno().flow_hash = net::hash_flow(new_flow);

  ++translated_;
  return pkt;
}

void Nat::push(int, net::PacketPtr pkt) {
  net::PacketPtr out = translate_one(std::move(pkt));
  if (out) output_push(0, std::move(out));
}

void Nat::push_batch(int, click::PacketBatch&& batch) {
  for (auto& pkt : batch)
    if (pkt) pkt = translate_one(std::move(pkt));
  output_push_batch(0, std::move(batch));
}

MDP_REGISTER_ELEMENT(Nat, "Nat");

}  // namespace mdp::nf

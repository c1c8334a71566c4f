#include "nf/flow_cache.hpp"

#include "click/elements.hpp"
#include "click/registry.hpp"
#include "net/checksum.hpp"
#include "net/headers.hpp"
#include "net/packet_builder.hpp"

namespace mdp::nf {

const CachedAction* FlowCacheCore::lookup(const net::FlowKey& flow) {
  const CachedAction* a = table_.find(flow);
  if (!a) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return a;
}

void FlowCacheCore::install(const net::FlowKey& flow, CachedAction action,
                            std::uint16_t tenant) {
  table_.insert(flow, tenant, action);
}

void FlowCacheCore::invalidate(const net::FlowKey& flow) {
  table_.erase(flow);
}

void FlowCacheCore::clear() { table_.clear(); }

// --- FlowCache element ------------------------------------------------------

bool FlowCache::configure(const std::vector<std::string>& args,
                          std::string* err) {
  if (args.empty()) return true;
  std::size_t cap;
  if (args.size() > 1 || !click::parse_size_arg(args[0], &cap) || cap == 0) {
    *err = "FlowCache(CAPACITY)";
    return false;
  }
  capacity_ = cap;
  return true;
}

bool FlowCache::initialize(std::string* err) {
  (void)err;
  if (!cache_) cache_ = std::make_unique<FlowCacheCore>(capacity_);
  return true;
}

void FlowCache::apply(const CachedAction& a, net::Packet& pkt,
                      const net::ParsedPacket& parsed) {
  if (!a.rewrite) return;
  net::Ipv4View ip(pkt.data() + parsed.l3_offset);
  const std::uint32_t old_src = ip.src();
  const std::uint32_t old_dst = ip.dst();
  std::uint16_t csum = ip.checksum();
  csum = net::checksum_update32(csum, old_src, a.new_src_ip);
  csum = net::checksum_update32(csum, old_dst, a.new_dst_ip);
  ip.set_src(a.new_src_ip);
  ip.set_dst(a.new_dst_ip);
  ip.set_checksum(csum);
  if (!parsed.has_l4) return;
  // RFC 1624 over the pseudo-header addresses and the ports, as NAT and
  // the load balancer patch theirs.
  auto patch_l4 = [&](std::uint16_t c) {
    c = net::checksum_update32(c, old_src, a.new_src_ip);
    c = net::checksum_update32(c, old_dst, a.new_dst_ip);
    c = net::checksum_update16(c, parsed.flow.src_port, a.new_src_port);
    return net::checksum_update16(c, parsed.flow.dst_port, a.new_dst_port);
  };
  std::byte* l4 = pkt.data() + parsed.l4_offset;
  if (parsed.flow.protocol == net::kIpProtoTcp) {
    net::TcpView tcp(l4);
    tcp.set_src_port(a.new_src_port);
    tcp.set_dst_port(a.new_dst_port);
    tcp.set_checksum(patch_l4(tcp.checksum()));
  } else if (parsed.flow.protocol == net::kIpProtoUdp) {
    net::UdpView udp(l4);
    udp.set_src_port(a.new_src_port);
    udp.set_dst_port(a.new_dst_port);
    if (std::uint16_t c = udp.checksum(); c != 0) {  // 0 = checksum disabled
      c = patch_l4(c);
      udp.set_checksum(c == 0 ? 0xffff : c);
    }
  }
}

void FlowCache::push(int port, net::PacketPtr pkt) {
  auto parsed = net::parse(*pkt);

  if (port == 1) {
    // Slow-path return: learn the composite rewrite for the ORIGINAL flow.
    auto it = pending_.find(pkt->anno().cache_cookie);
    if (it != pending_.end() && parsed) {
      CachedAction a;
      a.rewrite = !(parsed->flow == it->second);
      a.new_src_ip = parsed->flow.src_ip;
      a.new_dst_ip = parsed->flow.dst_ip;
      a.new_src_port = parsed->flow.src_port;
      a.new_dst_port = parsed->flow.dst_port;
      cache_->install(it->second, a, pkt->anno().tenant_id);
      pending_.erase(it);
    }
    pkt->anno().cache_cookie = 0;
    output_push(0, std::move(pkt));
    return;
  }

  if (!parsed) {
    // Non-IP cannot be cached: straight to the slow path.
    output_push(1, std::move(pkt));
    return;
  }

  if (const CachedAction* a = cache_->lookup(parsed->flow)) {
    if (a->drop) {
      ++dropped_;
      return;
    }
    apply(*a, *pkt, *parsed);
    output_push(0, std::move(pkt));
    return;
  }

  // Miss: remember the original flow under a cookie and take the slow path.
  std::uint64_t cookie = next_cookie_++;
  pkt->anno().cache_cookie = cookie;
  pending_.emplace(cookie, parsed->flow);
  output_push(1, std::move(pkt));
}

/// Teach the cache that a flow should be dropped (e.g. the slow path's
/// firewall filtered it). Exposed for controller-style integration.
MDP_REGISTER_ELEMENT(FlowCache, "FlowCache");

}  // namespace mdp::nf

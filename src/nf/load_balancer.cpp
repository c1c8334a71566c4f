#include "nf/load_balancer.hpp"

#include <cstdlib>

#include "click/registry.hpp"
#include "net/checksum.hpp"
#include "net/headers.hpp"
#include "net/packet_builder.hpp"

namespace mdp::nf {

void LoadBalancerCore::add_backend(Backend b) {
  backends_.push_back(b);
  rebuild_ring();
  wrr_current_.assign(backends_.size(), 0);
}

void LoadBalancerCore::set_healthy(std::uint32_t dip, bool healthy) {
  for (auto& b : backends_)
    if (b.dip == dip) b.healthy = healthy;
  rebuild_ring();
}

bool LoadBalancerCore::is_healthy(std::uint32_t dip) const {
  for (const auto& b : backends_)
    if (b.dip == dip) return b.healthy;
  return false;
}

void LoadBalancerCore::rebuild_ring() {
  ring_.clear();
  for (const auto& b : backends_) {
    if (!b.healthy) continue;
    std::uint64_t vnodes =
        std::uint64_t{kVnodesPerWeight} * (b.weight ? b.weight : 1);
    for (std::uint64_t v = 0; v < vnodes; ++v) {
      std::uint64_t h =
          net::mix64((std::uint64_t{b.dip} << 20) ^ v ^ 0xc0ffee);
      ring_[h] = b.dip;
    }
  }
}

std::uint32_t LoadBalancerCore::pick_consistent(std::uint64_t hash) const {
  if (ring_.empty()) return 0;
  auto it = ring_.lower_bound(hash);
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->second;
}

std::uint32_t LoadBalancerCore::pick_wrr() {
  // Smooth weighted round robin: current += weight; pick max; max -= total.
  std::int64_t total = 0;
  int best = -1;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (!backends_[i].healthy) continue;
    wrr_current_[i] += backends_[i].weight;
    total += backends_[i].weight;
    if (best < 0 || wrr_current_[i] > wrr_current_[best])
      best = static_cast<int>(i);
  }
  if (best < 0) return 0;
  wrr_current_[best] -= total;
  return backends_[best].dip;
}

std::uint32_t LoadBalancerCore::select(const net::FlowKey& flow,
                                       std::uint16_t tenant) {
  if (std::uint32_t* dip = affinity_.find(flow)) {
    if (is_healthy(*dip)) {
      ++hits_[*dip];
      return *dip;
    }
    affinity_.erase(flow);  // stale affinity to a dead backend
  }
  std::uint32_t dip = (policy_ == Policy::kConsistentHash)
                          ? pick_consistent(net::hash_flow(flow))
                          : pick_wrr();
  if (dip != 0) {
    affinity_.insert(flow, tenant, dip);  // cap-refused: re-resolve later
    ++hits_[dip];
  }
  return dip;
}

// --- LoadBalancer element --------------------------------------------------------

bool LoadBalancer::configure(const std::vector<std::string>& args,
                             std::string* err) {
  if (args.size() < 2) {
    *err = "LoadBalancer(VIP, DIP[ w], ... [, policy hash|rr])";
    return false;
  }
  if (!net::ipv4_from_string(args[0], &vip_)) {
    *err = "LoadBalancer: bad VIP '" + args[0] + "'";
    return false;
  }
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("policy ", 0) == 0) {
      std::string p = a.substr(7);
      if (p == "hash") {
        policy_ = LoadBalancerCore::Policy::kConsistentHash;
      } else if (p == "rr") {
        policy_ = LoadBalancerCore::Policy::kWeightedRR;
      } else {
        *err = "LoadBalancer: unknown policy '" + p + "'";
        return false;
      }
      continue;
    }
    // "DIP" or "DIP weight"
    Backend b;
    std::string addr = a;
    std::size_t sp = a.find(' ');
    if (sp != std::string::npos) {
      addr = a.substr(0, sp);
      int w = std::atoi(a.substr(sp + 1).c_str());
      if (w <= 0) {
        *err = "LoadBalancer: bad weight in '" + a + "'";
        return false;
      }
      b.weight = static_cast<std::uint32_t>(w);
    }
    if (!net::ipv4_from_string(addr, &b.dip)) {
      *err = "LoadBalancer: bad DIP '" + addr + "'";
      return false;
    }
    backends_.push_back(b);
  }
  return true;
}

bool LoadBalancer::initialize(std::string* err) {
  if (core_) return true;
  if (primary_ == nullptr) {
    core_ = std::make_shared<LoadBalancerCore>(policy_);
    for (const auto& b : backends_) core_->add_backend(b);
    return true;
  }
  if (!primary_->initialize(err)) return false;
  core_ = primary_->core_;
  return true;
}

net::PacketPtr LoadBalancer::simple_action(net::PacketPtr pkt) {
  auto parsed = net::parse(*pkt);
  if (!parsed || parsed->flow.dst_ip != vip_) return pkt;

  std::uint32_t dip = core_->select(parsed->flow, pkt->anno().tenant_id);
  if (dip == 0) return net::PacketPtr{nullptr};  // no healthy backend: drop

  net::Ipv4View ip(pkt->data() + parsed->l3_offset);
  std::uint32_t old_ip = ip.dst();
  ip.set_dst(dip);
  ip.set_checksum(net::checksum_update32(ip.checksum(), old_ip, dip));

  if (parsed->has_l4) {
    std::byte* l4 = pkt->data() + parsed->l4_offset;
    if (parsed->flow.protocol == net::kIpProtoTcp) {
      net::TcpView tcp(l4);
      tcp.set_checksum(
          net::checksum_update32(tcp.checksum(), old_ip, dip));
    } else if (parsed->flow.protocol == net::kIpProtoUdp) {
      net::UdpView udp(l4);
      std::uint16_t c = udp.checksum();
      if (c != 0) {
        c = net::checksum_update32(c, old_ip, dip);
        udp.set_checksum(c == 0 ? 0xffff : c);
      }
    }
  }

  net::FlowKey nf = parsed->flow;
  nf.dst_ip = dip;
  pkt->anno().flow_hash = net::hash_flow(nf);
  ++rewritten_;
  return pkt;
}

MDP_REGISTER_ELEMENT(LoadBalancer, "LoadBalancer");

}  // namespace mdp::nf

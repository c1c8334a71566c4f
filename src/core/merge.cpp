#include "core/merge.hpp"

namespace mdp::core {

net::PacketPtr Merge::receive(net::PacketPtr pkt) {
  const auto& a = pkt->anno();
  if (!dedup_.accept(Deduplicator::key(a.flow_id, a.seq))) return pkt;
  reorder_.submit(std::move(pkt));
  return {};
}

std::size_t Merge::receive(std::span<net::PacketPtr> burst) {
  std::size_t firsts = 0;
  for (net::PacketPtr& slot : burst) {
    if (!slot) continue;
    slot = receive(std::move(slot));
    if (!slot) ++firsts;
  }
  return firsts;
}

}  // namespace mdp::core

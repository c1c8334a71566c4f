// PacketBackend: the packet I/O boundary of the data plane.
//
// A backend is a burst-oriented RX/TX port, DPDK-shaped: rx_burst() fills a
// span with owning net::PacketPtr handles, tx_burst() consumes a prefix of
// one. Everything above this interface (dispatch, per-path rings, workers,
// merge, reorder) is backend-agnostic; everything below it (a synthetic
// generator, an in-memory loopback wire, one day a real NIC) is
// swappable. The conformance suite in
// tests/test_backend_conformance.cpp is the contract every implementation
// must pass — see docs/IO_BACKENDS.md.
//
// Ownership contract:
//   - rx_burst(out) writes up to out.size() owning packets into out[0..n)
//     and returns n. The caller owns them from that point on.
//   - tx_burst(pkts) accepts a prefix: it takes ownership of (and nulls)
//     pkts[0..n) and returns n. Entries [n..) are NOT consumed — they stay
//     valid, owned by the caller, who decides to retry, reroute, or drop.
//     This is the partial-burst rule a nearly-full port enforces.
//
// Threading contract: a backend is a single-caller object per direction.
// rx_burst and tx_burst may be driven from two different threads only when
// caps().split_rx_tx is true (the loopback endpoints are SPSC per
// direction); no function may be called concurrently with itself. Packet
// pools are single-threaded, so every pool a backend allocates from or
// recycles into must only ever be touched from that direction's thread.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"

namespace mdp::io {

/// Static capabilities/placement hints a backend reports once at setup.
/// Capacity hints size the rings above the backend; the NUMA hint feeds
/// the (future) socket-aware path placement from the ROADMAP.
struct BackendCaps {
  std::string name;            ///< stable identifier ("synthetic", ...)
  std::size_t max_burst = 256; ///< largest rx/tx burst honored per call
  std::size_t queue_depth = 0; ///< per-direction buffering, 0 = unbounded
  int numa_node = -1;          ///< preferred NUMA node, -1 = no affinity
  bool split_rx_tx = false;    ///< rx and tx may run on different threads
  bool injects_faults = false; ///< delivery may drop/dup/reorder/delay
  /// True when rx only yields frames some peer transmitted (loopback,
  /// real NICs); false for self-generating backends (synthetic).
  bool needs_peer_frames = false;
};

class PacketBackend {
 public:
  virtual ~PacketBackend() = default;

  virtual const BackendCaps& caps() const noexcept = 0;

  /// Bring the port up. Returns false (with *err set) on failure; a
  /// backend must tolerate start/stop cycles.
  virtual bool start(std::string* err = nullptr) {
    (void)err;
    return true;
  }
  virtual void stop() {}

  /// Receive up to out.size() packets. Every returned packet carries a
  /// populated anno().flow_hash (backends parse or synthesize it) so the
  /// dispatch policy never re-walks headers on the hot path.
  virtual std::size_t rx_burst(std::span<net::PacketPtr> out) = 0;

  /// Transmit a prefix of pkts (see the ownership contract above).
  virtual std::size_t tx_burst(std::span<net::PacketPtr> pkts) = 0;

  // Lifetime counters (single-writer per direction, read at quiesce).
  std::uint64_t rx_packets() const noexcept { return rx_packets_; }
  std::uint64_t tx_packets() const noexcept { return tx_packets_; }
  std::uint64_t tx_rejected() const noexcept { return tx_rejected_; }

 protected:
  std::uint64_t rx_packets_ = 0;
  std::uint64_t tx_packets_ = 0;
  std::uint64_t tx_rejected_ = 0;
};

}  // namespace mdp::io

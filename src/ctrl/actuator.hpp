// Actuator: the control plane's write interface onto a data plane.
//
// The Controller is deliberately blind to which vehicle it is driving —
// the simulated MdpDataPlane (virtual clock, bench timelines) or the
// ThreadedDataPlane (real threads, the loopback test rig). Each vehicle
// supplies an adapter:
//
//   ThreadedPlaneActuator  -> ThreadedDataPlane::set_path_admission /
//                             grant_probe_credits (the plane's
//                             core::AdmissionSet) / path_inflight. All
//                             calls happen on the caller thread, the same
//                             thread that runs pump() and Controller::tick
//                             — no atomics needed beyond what the plane
//                             already exposes.
//   SimPlaneActuator       -> MdpDataPlane::set_path_up for masking,
//                             core::Merge::flush_all for draining,
//                             SimCore probe jobs for probation (results
//                             loop back into the SloMonitor), and
//                             Scheduler::set_replication for hedging.
//
// Test doubles implement the interface directly (see tests/test_ctrl.cpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/dataplane.hpp"
#include "core/threaded_dataplane.hpp"
#include "ctrl/slo_monitor.hpp"
#include "sim/event_queue.hpp"

namespace mdp::ctrl {

class Actuator {
 public:
  virtual ~Actuator() = default;
  virtual std::size_t num_paths() const = 0;

  /// Mask/unmask a path in the dispatch candidate set, or admit only
  /// controller-granted probes (core::PathAdmission).
  virtual void set_admission(std::size_t path, core::PathAdmission a) = 0;

  /// Allow `n` probe packets onto a kProbeOnly path (probation traffic).
  virtual void grant_probes(std::size_t path, std::uint64_t n) = 0;

  /// Queued + in-flight work attributable to the path; 0 == drained.
  virtual std::uint64_t path_backlog(std::size_t path) const = 0;

  /// Push stranded work toward quiesce (reorder flush, staged wire
  /// frames). Called once per tick while the path drains; may be a no-op
  /// for planes that drain on their own.
  virtual void flush_path(std::size_t path) = 0;

  /// Hedging: desired replication factor for latency-critical copies.
  /// Default no-op — not every plane replicates.
  virtual void set_replicas(std::size_t r) { (void)r; }

  /// Hedging: pin the hedge-fire deadline (ctrl::HedgeTimeoutController);
  /// 0 restores the policy's own budget. Default no-op — not every plane
  /// hedges.
  virtual void set_hedge_timeout(std::uint64_t timeout_ns) {
    (void)timeout_ns;
  }
};

/// Adapter for the threaded plane. Caller-thread only, like pump().
class ThreadedPlaneActuator : public Actuator {
 public:
  explicit ThreadedPlaneActuator(core::ThreadedDataPlane& dp) : dp_(dp) {}

  std::size_t num_paths() const override { return dp_.num_paths(); }
  void set_admission(std::size_t path, core::PathAdmission a) override {
    dp_.set_path_admission(path, a);
  }
  void grant_probes(std::size_t path, std::uint64_t n) override {
    dp_.grant_probe_credits(path, n);
  }
  std::uint64_t path_backlog(std::size_t path) const override {
    return dp_.path_inflight(path);
  }
  /// The threaded plane's path rings drain on their own while workers
  /// run, and the pump() that follows retires what they finished; rigs
  /// that put a wire behind the plane override this to flush it.
  void flush_path(std::size_t path) override { (void)path; }

 protected:
  core::ThreadedDataPlane& dp_;
};

/// Adapter for the simulated plane. Probation probes are tiny SimCore
/// jobs whose completion latency feeds back into the SloMonitor on the
/// probed path — the same closed loop the real traffic uses.
class SimPlaneActuator : public Actuator {
 public:
  SimPlaneActuator(sim::EventQueue& eq, core::MdpDataPlane& dp,
                   SloMonitor& monitor, sim::TimeNs probe_cost_ns = 200)
      : eq_(eq), dp_(dp), monitor_(monitor), probe_cost_ns_(probe_cost_ns) {}

  std::size_t num_paths() const override { return dp_.num_paths(); }
  void set_admission(std::size_t path, core::PathAdmission a) override;
  void grant_probes(std::size_t path, std::uint64_t n) override;
  std::uint64_t path_backlog(std::size_t path) const override {
    return dp_.inflight(path);
  }
  void flush_path(std::size_t path) override;
  void set_replicas(std::size_t r) override {
    dp_.scheduler().set_replication(r);
  }
  void set_hedge_timeout(std::uint64_t timeout_ns) override {
    dp_.scheduler().set_hedge_timeout_ns(
        static_cast<sim::TimeNs>(timeout_ns));
  }

  std::uint64_t probes_sent() const noexcept { return probes_sent_; }

 private:
  sim::EventQueue& eq_;
  core::MdpDataPlane& dp_;
  SloMonitor& monitor_;
  sim::TimeNs probe_cost_ns_;
  std::uint64_t probes_sent_ = 0;
};

}  // namespace mdp::ctrl

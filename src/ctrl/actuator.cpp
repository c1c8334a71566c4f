#include "ctrl/actuator.hpp"

namespace mdp::ctrl {

// --- SimPlaneActuator -----------------------------------------------------------

void SimPlaneActuator::set_admission(std::size_t path,
                                     core::PathAdmission a) {
  // The sim plane's candidate mask is binary: schedulers skip down paths.
  // Probe-only probation rides on top — the path stays masked and the
  // probes go straight onto its core (grant_probes), bypassing dispatch.
  dp_.set_path_up(path, a == core::PathAdmission::kEnabled);
}

void SimPlaneActuator::grant_probes(std::size_t path, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    const sim::TimeNs start = eq_.now();
    ++probes_sent_;
    // High-priority so the probe measures the core's responsiveness (the
    // stall), not the drained queue; visible=false keeps it out of the
    // schedulers' backlog view.
    dp_.core(path).submit(
        probe_cost_ns_,
        [this, path, start](sim::TimeNs now) {
          monitor_.observe(static_cast<std::uint16_t>(path), now - start);
        },
        /*high_priority=*/true, /*visible=*/false);
  }
}

void SimPlaneActuator::flush_path(std::size_t path) {
  (void)path;
  // Release everything the merge stage is holding for resequencing; the
  // quarantined path's gaps will not fill while it is masked, and the
  // flushed packets advance every flow window past them.
  dp_.merge().flush_all();
}

}  // namespace mdp::ctrl

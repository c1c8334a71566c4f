// AdmissionSet: the one path-admission rule every dispatcher follows.
//
// A control plane (mdp::ctrl) sets each path's level and grants probe
// credits; a dispatcher asks which paths are candidates and books each
// placement. If no path is a candidate the dispatcher serves from the
// full set rather than blackholing traffic (the controller's capacity
// guard should prevent that; belt and braces). ThreadedDataPlane and the
// chaos rig both dispatch through it, so their round-robin and hash picks
// land on the same path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mdp::core {

/// Per-path admission level, set by a control plane from the dispatching
/// thread. kProbeOnly admits only packets covered by probe credits;
/// kDisabled masks the path out of dispatch.
enum class PathAdmission : std::uint8_t {
  kEnabled = 0,
  kProbeOnly,
  kDisabled,
};

class AdmissionSet {
 public:
  explicit AdmissionSet(std::size_t num_paths = 0)
      : level_(num_paths, PathAdmission::kEnabled), credits_(num_paths, 0) {}

  void set(std::size_t p, PathAdmission a) { level_[p] = a; }
  PathAdmission level(std::size_t p) const noexcept { return level_[p]; }

  /// Allow `n` more packets onto a kProbeOnly path. No effect on dispatch
  /// while the path is kEnabled.
  void grant(std::size_t p, std::uint64_t n) { credits_[p] += n; }
  std::uint64_t credits(std::size_t p) const noexcept { return credits_[p]; }

  /// May a packet be placed on `p` right now?
  bool candidate(std::size_t p) const noexcept {
    switch (level_[p]) {
      case PathAdmission::kEnabled: return true;
      case PathAdmission::kProbeOnly: return credits_[p] > 0;
      case PathAdmission::kDisabled: return false;
    }
    return false;
  }

  bool any() const noexcept {
    for (std::size_t p = 0; p < level_.size(); ++p)
      if (candidate(p)) return true;
    return false;
  }

  /// Book one packet placed on `p`: spends a probe credit on a kProbeOnly
  /// path, nothing otherwise.
  void place(std::size_t p) noexcept {
    if (level_[p] == PathAdmission::kProbeOnly && credits_[p] > 0)
      --credits_[p];
  }

  /// The first candidate scanning from `start` (wrapping), or `start`
  /// itself when no path is a candidate. Hash/affinity picks scan from the
  /// flow's home path; round-robin scans from its cursor.
  std::size_t first_from(std::size_t start) const noexcept {
    const std::size_t n = level_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t p = (start + i) % n;
      if (candidate(p)) return p;
    }
    return start;
  }

 private:
  std::vector<PathAdmission> level_;
  std::vector<std::uint64_t> credits_;
};

}  // namespace mdp::core

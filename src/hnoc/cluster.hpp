// The simulated heterogeneous network of computers (HNOC).
//
// This is the ground truth the whole library runs on: the paper evaluated
// HMPI on a real 9-workstation Solaris/Linux network; we substitute a
// configurable model of such a network (DESIGN.md §2). A Cluster describes
//   * processors: name, base speed (benchmark units/second, the paper's
//     relative speed figures), and an external LoadProfile;
//   * links: latency + bandwidth per directed processor pair, with a
//     switched-network default (independent parallel transfers), a distinct
//     intra-machine "shared memory protocol" link, and per-pair overrides
//     (the paper's ad-hoc, multi-protocol network challenge).
//
// The same cost formulas used here by the mpsim execution engine are used by
// the estimator, which is what makes HMPI_Timeof predictions meaningful.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hnoc/availability.hpp"
#include "hnoc/load_profile.hpp"

namespace hmpi::hnoc {

/// Communication parameters of one directed link.
struct LinkParams {
  double latency_s = 0.0;       ///< Per-message fixed cost (seconds).
  double bandwidth_bps = 1e12;  ///< Bytes per second.

  /// Virtual duration of transferring `bytes` over this link.
  double transfer_time(double bytes) const noexcept {
    return latency_s + bytes / bandwidth_bps;
  }
};

/// One machine of the network.
struct Processor {
  std::string name;
  /// Base speed in benchmark units per second. The paper's relative speed
  /// figures (46, 176, 106, 9, ...) are used directly as units/second.
  double speed = 1.0;
  /// External (multi-user) load; effective speed is speed * multiplier(t).
  LoadProfile load;
  /// When the machine is reachable at all (multi-user networks lose machines
  /// outright, not just cycles). Consumed by mp::FaultPlan::from_cluster.
  Availability availability;
};

/// Two-level LAN/WAN topology (cf. MPICH-G2's multilevel clustering): every
/// processor belongs to one LAN; same-LAN pairs communicate over the `intra`
/// link, cross-LAN pairs over the `inter` link. Per-pair overrides and the
/// intra-machine self link still take precedence. Described by two link
/// classes instead of a P x P table, so a 10k-processor WAN costs O(P).
struct TwoLevelTopology {
  std::vector<int> lan_of;  ///< LAN id per processor (any non-negative ids).
  LinkParams intra;         ///< Same-LAN link (fast, low latency).
  LinkParams inter;         ///< Cross-LAN link (WAN: slow, high latency).
};

/// Immutable description of a heterogeneous network of computers.
class Cluster {
 public:
  /// Throws InvalidArgument unless every speed, and every speed times one
  /// of its load multipliers, is positive and finite, every latency finite
  /// and non-negative, and every bandwidth positive.
  Cluster(std::vector<Processor> processors, LinkParams default_link,
          LinkParams self_link,
          std::map<std::pair<int, int>, LinkParams> overrides = {},
          std::optional<TwoLevelTopology> two_level = {});

  int size() const noexcept { return static_cast<int>(processors_.size()); }
  const Processor& processor(int p) const;
  const std::vector<Processor>& processors() const noexcept { return processors_; }

  /// Link parameters for messages from processor `from` to processor `to`.
  /// `from == to` selects the intra-machine (shared-memory protocol) link
  /// unless overridden for that pair.
  const LinkParams& link(int from, int to) const;

  /// link() without its range check, inline for the estimator kernel, which
  /// checks a whole mapping once: both endpoints must be processors of this
  /// cluster.
  const LinkParams& link_unchecked(int from, int to) const {
    if (!overrides_.empty()) {
      auto it = overrides_.find({from, to});
      if (it != overrides_.end()) return it->second;
    }
    if (from == to) return self_link_;
    if (two_level_.has_value()) {
      const auto& lan = two_level_->lan_of;
      return lan[static_cast<std::size_t>(from)] ==
                     lan[static_cast<std::size_t>(to)]
                 ? two_level_->intra
                 : two_level_->inter;
    }
    return default_link_;
  }

  /// Virtual finish time of `units` benchmark units started on processor `p`
  /// at virtual time `start` (accounts for the load profile).
  double compute_finish(int p, double start, double units) const;

  /// Effective speed (units/second) processor `p` delivers at time `t`.
  double effective_speed(int p, double t) const;

  /// Sum of base speeds (useful for theoretical-bound calculations).
  double total_base_speed() const noexcept;

  /// True when the cluster carries a two-level LAN/WAN topology.
  bool two_level() const noexcept { return two_level_.has_value(); }

  /// LAN id of processor `p` (requires two_level()).
  int lan_of(int p) const;

  /// Same-LAN / cross-LAN links (require two_level()).
  const LinkParams& intra_link() const;
  const LinkParams& inter_link() const;

  /// Raw link configuration (used by cluster_io and diagnostics).
  const LinkParams& default_link() const noexcept { return default_link_; }
  const LinkParams& self_link() const noexcept { return self_link_; }
  const std::map<std::pair<int, int>, LinkParams>& link_overrides() const noexcept {
    return overrides_;
  }
  const std::optional<TwoLevelTopology>& two_level_topology() const noexcept {
    return two_level_;
  }

 private:
  std::vector<Processor> processors_;
  LinkParams default_link_;
  LinkParams self_link_;
  std::map<std::pair<int, int>, LinkParams> overrides_;
  std::optional<TwoLevelTopology> two_level_;
};

/// Fluent builder for Cluster.
class ClusterBuilder {
 public:
  /// Adds one processor; returns *this.
  ClusterBuilder& add(std::string name, double speed, LoadProfile load = {});

  /// Sets the availability calendar of the most recently added processor.
  ClusterBuilder& availability(Availability avail);

  /// Sets the default inter-machine link (switched network).
  ClusterBuilder& network(double latency_s, double bandwidth_bps);

  /// Sets the intra-machine link (shared-memory protocol).
  ClusterBuilder& shared_memory(double latency_s, double bandwidth_bps);

  /// Overrides the link between one directed pair (multi-protocol networks).
  ClusterBuilder& link_override(int from, int to, double latency_s,
                                double bandwidth_bps);

  /// Overrides the link in both directions.
  ClusterBuilder& symmetric_link_override(int a, int b, double latency_s,
                                          double bandwidth_bps);

  /// Declares a two-level LAN/WAN topology: `lan_of[p]` is the LAN id of
  /// processor p (sized to the processors added by build() time), intra is
  /// the same-LAN link and inter the cross-LAN link.
  ClusterBuilder& two_level(std::vector<int> lan_of, double intra_latency_s,
                            double intra_bandwidth_bps, double inter_latency_s,
                            double inter_bandwidth_bps);

  Cluster build() const;

 private:
  std::vector<Processor> processors_;
  LinkParams default_link_{150e-6, 12.5e6};  // 100 Mbit switched Ethernet
  LinkParams self_link_{5e-6, 1e9};          // shared memory
  std::map<std::pair<int, int>, LinkParams> overrides_;
  std::optional<TwoLevelTopology> two_level_;
};

namespace testbeds {

/// The paper's EM3D testbed: 9 workstations with speeds
/// {46,46,46,46,46,46,176,106,9} on 100 Mbit switched Ethernet (§5).
Cluster paper_em3d_network();

/// The paper's matrix-multiplication testbed: 9 workstations with speeds
/// {46,46,46,46,46,46,46,106,9} on 100 Mbit switched Ethernet (§5; the
/// paper lists 8 figures for 9 machines — we complete the list with one
/// more 46, see DESIGN.md).
Cluster paper_mm_network();

/// Homogeneous n-machine cluster (control case: HMPI should match MPI).
Cluster homogeneous(int n, double speed = 50.0);

/// `lans` LANs of `per_lan` machines each, gigabit inside a LAN and a slow
/// high-latency WAN between LANs (the MPICH-G2 style hierarchical testbed).
Cluster two_level(int lans, int per_lan, double speed = 50.0);

/// Seeded heterogeneous cluster at campus scale for the P=1000 mapping
/// experiments (bench/ablation_mapscale.cpp, hmpictl --large-cluster):
/// `machines` nodes with speeds drawn log-uniformly from [20, 200) — a
/// decade of spread, like a campus network mixing hardware generations — on
/// fast switched gigabit Ethernet. Fully deterministic in (machines, seed).
Cluster large_cluster(int machines, std::uint64_t seed = 0x413130);

}  // namespace testbeds
}  // namespace hmpi::hnoc

// Textual cluster descriptions.
//
// Lets experiments describe a heterogeneous network in a small config format
// instead of C++ — one directive per line, '#' comments:
//
//   # the paper's EM3D testbed
//   network latency 150e-6 bandwidth 12.5e6
//   shared_memory latency 5e-6 bandwidth 1e9
//   processor ws0 speed 46
//   processor ws6 speed 176 load 0.25        # constant external load
//   processor ws7 speed 106 load@10 0.5      # multiplier 0.5 from t=10 s
//   link ws0 ws6 latency 1e-5 bandwidth 1e8  # per-pair override (directed)
//   symmetric_link ws0 ws7 latency 1e-5 bandwidth 1e8
//
// A two-level LAN/WAN topology is declared by assigning every processor a
// LAN id (all processors must then be assigned) and, optionally, the two
// link classes:
//
//   intra_lan latency 50e-6 bandwidth 125e6  # same-LAN link
//   inter_lan latency 5e-3 bandwidth 1.25e6  # cross-LAN (WAN) link
//   lan ws0 0
//   lan ws6 1
//
// Values are decimal numbers (std::from_chars) and must be finite; a LAN id
// is a whole int >= 0. A processor's speed times each of its load
// multipliers must stay positive and finite. Processors are indexed in
// declaration order. parse_cluster throws InvalidArgument, with a line
// number for a malformed line, on bad input.
#pragma once

#include <string>
#include <string_view>

#include "hnoc/cluster.hpp"

namespace hmpi::hnoc {

/// Parses a cluster description (see file comment).
Cluster parse_cluster(std::string_view text);

/// Renders a cluster back to the description format (load profiles
/// included), every number in its shortest form that parses back to the
/// same double, so parse_cluster returns the same cluster.
std::string to_description(const Cluster& cluster);

}  // namespace hmpi::hnoc

// Time-varying external load on a simulated processor.
//
// HNOCs are multi-user systems: the speed a processor delivers to the
// parallel application varies as other users come and go (paper §1,
// "multi-user decentralized computer system"). A LoadProfile models that as a
// piecewise-constant multiplier of the processor's base speed over virtual
// time, which is what makes HMPI_Recon meaningful in the simulator: the speed
// measured "now" can differ from the speed configured at cluster creation.
#pragma once

#include <vector>

namespace hmpi::hnoc {

/// Piecewise-constant speed multiplier over virtual time.
///
/// The profile is a step function: multiplier(t) equals the `multiplier` of
/// the last breakpoint whose `time <= t`, or 1.0 before the first breakpoint.
/// Multipliers must be positive and finite; 1.0 means "unloaded", 0.5
/// means the application gets half of the processor.
class LoadProfile {
 public:
  struct Step {
    double time;        ///< Virtual time (seconds) the step starts.
    double multiplier;  ///< Effective-speed multiplier from that time on.
  };

  /// Always-unloaded profile.
  LoadProfile() = default;

  /// Builds a profile from breakpoints; they are sorted by time and
  /// validated (positive, finite multipliers; no duplicate times).
  explicit LoadProfile(std::vector<Step> steps);

  /// Convenience: constant multiplier for all time.
  static LoadProfile constant(double multiplier);

  /// Multiplier in effect at virtual time `t`.
  double multiplier_at(double t) const noexcept;

  /// Virtual time at which a computation of `units` benchmark units,
  /// started at `t0` on a processor with base speed `base_speed`
  /// (units/second), finishes. Integrates across profile steps.
  double finish_time(double t0, double units, double base_speed) const;

  bool is_constant_one() const noexcept { return steps_.empty(); }
  const std::vector<Step>& steps() const noexcept { return steps_; }

 private:
  std::vector<Step> steps_;  // sorted by time; empty == always 1.0
};

}  // namespace hmpi::hnoc

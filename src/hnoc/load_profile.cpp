#include "hnoc/load_profile.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.hpp"

namespace hmpi::hnoc {

LoadProfile::LoadProfile(std::vector<Step> steps) : steps_(std::move(steps)) {
  std::sort(steps_.begin(), steps_.end(),
            [](const Step& a, const Step& b) { return a.time < b.time; });
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    support::require(steps_[i].multiplier > 0.0 &&
                         std::isfinite(steps_[i].multiplier),
                     "LoadProfile multiplier must be positive and finite");
    support::require(std::isfinite(steps_[i].time), "LoadProfile time must be finite");
    if (i > 0) {
      support::require(steps_[i].time != steps_[i - 1].time,
                       "LoadProfile has duplicate breakpoint times");
    }
  }
}

LoadProfile LoadProfile::constant(double multiplier) {
  return LoadProfile({{std::numeric_limits<double>::lowest(), multiplier}});
}

double LoadProfile::multiplier_at(double t) const noexcept {
  double m = 1.0;
  for (const Step& s : steps_) {
    if (s.time > t) break;
    m = s.multiplier;
  }
  return m;
}

double LoadProfile::finish_time(double t0, double units, double base_speed) const {
  support::require(units >= 0.0, "computation volume must be non-negative");
  support::require(base_speed > 0.0, "processor speed must be positive");
  if (units == 0.0) return t0;

  double t = t0;
  double remaining = units;
  // Walk the steps that lie after t, consuming work at the rate in effect.
  std::size_t i = 0;
  while (i < steps_.size() && steps_[i].time <= t) ++i;
  for (;; ++i) {
    const double rate = base_speed * multiplier_at(t);
    const double segment_end =
        i < steps_.size() ? steps_[i].time : std::numeric_limits<double>::infinity();
    const double can_do = rate * (segment_end - t);
    if (remaining <= can_do) return t + remaining / rate;
    remaining -= can_do;
    t = segment_end;
  }
}

}  // namespace hmpi::hnoc

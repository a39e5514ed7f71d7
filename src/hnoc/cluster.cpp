#include "hnoc/cluster.hpp"

#include <cmath>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace hmpi::hnoc {

Cluster::Cluster(std::vector<Processor> processors, LinkParams default_link,
                 LinkParams self_link,
                 std::map<std::pair<int, int>, LinkParams> overrides,
                 std::optional<TwoLevelTopology> two_level)
    : processors_(std::move(processors)),
      default_link_(default_link),
      self_link_(self_link),
      overrides_(std::move(overrides)),
      two_level_(std::move(two_level)) {
  support::require(!processors_.empty(), "Cluster needs at least one processor");
  for (const Processor& p : processors_) {
    support::require(p.speed > 0.0 && std::isfinite(p.speed),
                     "processor speed must be positive and finite");
    // Speed times a load multiplier can overflow to infinity or underflow
    // to zero even when both factors are fine.
    for (const LoadProfile::Step& step : p.load.steps()) {
      const double effective = p.speed * step.multiplier;
      support::require(effective > 0.0 && std::isfinite(effective),
                       "processor '" + p.name +
                           "': speed x load must be positive and finite");
    }
  }
  auto check_link = [](const LinkParams& l, const char* what) {
    support::require(
        l.latency_s >= 0.0 && std::isfinite(l.latency_s),
        std::string(what) + ": latency must be finite and non-negative");
    support::require(
        l.bandwidth_bps > 0.0 && std::isfinite(l.bandwidth_bps),
        std::string(what) + ": bandwidth must be positive and finite");
  };
  check_link(default_link_, "default link");
  check_link(self_link_, "self link");
  for (const auto& [pair, l] : overrides_) {
    support::require(pair.first >= 0 && pair.first < size() && pair.second >= 0 &&
                         pair.second < size(),
                     "link override references unknown processor");
    check_link(l, "link override");
  }
  if (two_level_.has_value()) {
    support::require(
        two_level_->lan_of.size() == processors_.size(),
        "two-level topology needs exactly one LAN id per processor");
    for (int id : two_level_->lan_of) {
      support::require(id >= 0, "LAN ids must be non-negative");
    }
    check_link(two_level_->intra, "intra-LAN link");
    check_link(two_level_->inter, "inter-LAN link");
  }
}

const Processor& Cluster::processor(int p) const {
  support::require(p >= 0 && p < size(), "processor index out of range");
  return processors_[static_cast<std::size_t>(p)];
}

const LinkParams& Cluster::link(int from, int to) const {
  support::require(from >= 0 && from < size() && to >= 0 && to < size(),
                   "link endpoint out of range");
  return link_unchecked(from, to);
}

int Cluster::lan_of(int p) const {
  support::require(p >= 0 && p < size(), "processor index out of range");
  support::require(two_level_.has_value(), "lan_of on a flat cluster");
  return two_level_->lan_of[static_cast<std::size_t>(p)];
}

const LinkParams& Cluster::intra_link() const {
  support::require(two_level_.has_value(), "intra_link on a flat cluster");
  return two_level_->intra;
}

const LinkParams& Cluster::inter_link() const {
  support::require(two_level_.has_value(), "inter_link on a flat cluster");
  return two_level_->inter;
}

double Cluster::compute_finish(int p, double start, double units) const {
  const Processor& proc = processor(p);
  return proc.load.finish_time(start, units, proc.speed);
}

double Cluster::effective_speed(int p, double t) const {
  const Processor& proc = processor(p);
  return proc.speed * proc.load.multiplier_at(t);
}

double Cluster::total_base_speed() const noexcept {
  double sum = 0.0;
  for (const Processor& p : processors_) sum += p.speed;
  return sum;
}

ClusterBuilder& ClusterBuilder::add(std::string name, double speed,
                                    LoadProfile load) {
  processors_.push_back({std::move(name), speed, std::move(load), {}});
  return *this;
}

ClusterBuilder& ClusterBuilder::availability(Availability avail) {
  support::require(!processors_.empty(),
                   "availability() must follow the add() of a processor");
  processors_.back().availability = std::move(avail);
  return *this;
}

ClusterBuilder& ClusterBuilder::network(double latency_s, double bandwidth_bps) {
  default_link_ = {latency_s, bandwidth_bps};
  return *this;
}

ClusterBuilder& ClusterBuilder::shared_memory(double latency_s,
                                              double bandwidth_bps) {
  self_link_ = {latency_s, bandwidth_bps};
  return *this;
}

ClusterBuilder& ClusterBuilder::link_override(int from, int to, double latency_s,
                                              double bandwidth_bps) {
  overrides_[{from, to}] = {latency_s, bandwidth_bps};
  return *this;
}

ClusterBuilder& ClusterBuilder::symmetric_link_override(int a, int b,
                                                        double latency_s,
                                                        double bandwidth_bps) {
  link_override(a, b, latency_s, bandwidth_bps);
  link_override(b, a, latency_s, bandwidth_bps);
  return *this;
}

ClusterBuilder& ClusterBuilder::two_level(std::vector<int> lan_of,
                                          double intra_latency_s,
                                          double intra_bandwidth_bps,
                                          double inter_latency_s,
                                          double inter_bandwidth_bps) {
  two_level_ = TwoLevelTopology{std::move(lan_of),
                                {intra_latency_s, intra_bandwidth_bps},
                                {inter_latency_s, inter_bandwidth_bps}};
  return *this;
}

Cluster ClusterBuilder::build() const {
  return Cluster(processors_, default_link_, self_link_, overrides_, two_level_);
}

namespace testbeds {

namespace {
Cluster from_speeds(const std::vector<double>& speeds) {
  ClusterBuilder b;
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    b.add("ws" + std::to_string(i), speeds[i]);
  }
  // 100 Mbit switched Ethernet: ~12.5 MB/s, ~150 us message latency.
  b.network(150e-6, 12.5e6);
  b.shared_memory(5e-6, 1e9);
  return b.build();
}
}  // namespace

Cluster paper_em3d_network() {
  return from_speeds({46, 46, 46, 46, 46, 46, 176, 106, 9});
}

Cluster paper_mm_network() {
  return from_speeds({46, 46, 46, 46, 46, 46, 46, 106, 9});
}

Cluster homogeneous(int n, double speed) {
  support::require(n > 0, "homogeneous cluster needs n > 0");
  std::vector<double> speeds(static_cast<std::size_t>(n), speed);
  return from_speeds(speeds);
}

Cluster large_cluster(int machines, std::uint64_t seed) {
  support::require(machines > 0, "large_cluster needs machines > 0");
  support::Rng rng(seed);
  ClusterBuilder b;
  for (int i = 0; i < machines; ++i) {
    // Log-uniform over [20, 200): heterogeneity multiplicative, like mixed
    // hardware generations. Rounded to 0.01 so the speeds print cleanly.
    const double speed = 20.0 * std::exp(rng.next_double() * std::log(10.0));
    b.add(std::string("n").append(std::to_string(i)),
          std::round(speed * 100.0) / 100.0);
  }
  // Switched gigabit Ethernet: ~100 MB/s, ~50 us message latency. Fast
  // uniform links keep the landscape compute-dominant at this scale, which
  // is the regime the paper's campus-network experiments target.
  b.network(50e-6, 1e8);
  b.shared_memory(5e-6, 1e9);
  return b.build();
}

Cluster two_level(int lans, int per_lan, double speed) {
  support::require(lans > 0 && per_lan > 0,
                   "two_level cluster needs lans > 0 and per_lan > 0");
  ClusterBuilder b;
  std::vector<int> lan_of;
  lan_of.reserve(static_cast<std::size_t>(lans) *
                 static_cast<std::size_t>(per_lan));
  for (int lan = 0; lan < lans; ++lan) {
    for (int m = 0; m < per_lan; ++m) {
      b.add(std::string("l").append(std::to_string(lan)) + "m" +
                std::to_string(m),
            speed);
      lan_of.push_back(lan);
    }
  }
  b.shared_memory(5e-6, 1e9);
  // Gigabit inside a LAN; a slow, high-latency WAN between LANs.
  b.two_level(std::move(lan_of), 50e-6, 125e6, 5e-3, 1.25e6);
  return b.build();
}

}  // namespace testbeds
}  // namespace hmpi::hnoc
